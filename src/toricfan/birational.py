"""Blow-down discovery and factorization of refinement morphisms.

A blow-down candidate is a primitive relation of the shape
x1+...+xh = x (single target ray with coefficient 1); it is valid when the
contraction it steers succeeds. This module alone decides which
relations are blow-downs: ``fan.contract_ray`` only carries out the
contraction along a given collection, and ``blow_down`` picks the
collection for a bare ray. Factorization searches for chains of valid
blow-downs carrying a fine fan onto a coarse one it refines, depth-first
with one memo of the step suffixes below each intermediate, optionally
insisting that every strict intermediate be Fano.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from . import mori
from .errors import (
    NoBlowdownRelationError,
    NotARefinementError,
    StarConditionViolatedError,
)
from .fan import (
    Cone,
    Fan,
    _masks_cover,
    _ray_masks,
    contract_ray,
    resolve_ray,
    structural_key,
)


@dataclass(frozen=True)
class BlowdownCandidate:
    relation: mori.PrimitiveRelation
    valid: bool
    # every maximal cone violating the star condition, when invalid
    obstruction: tuple[Cone, ...] | None
    target: Fan | None

    def ray_name(self, fan: Fan) -> str:
        return fan.generators[self.relation.target[0]].name


@dataclass(frozen=True)
class FactorStep:
    ray: str  # contracted ray name
    center: tuple[str, ...]  # blow-up center in the target, by name
    fan: Fan  # the fan after this contraction
    fano: bool
    projective: bool


@dataclass(frozen=True)
class FactorizationPath:
    steps: tuple[FactorStep, ...]


@lru_cache(maxsize=4096)
def blow_down_candidates(fan: Fan) -> tuple[BlowdownCandidate, ...]:
    """All relations of blow-down shape, each tested by actual contraction.

    Ordered by contracted ray name, then by collection. The shape is tested
    here only, on the cached ``mori.primitive_relations`` table; every match
    is handed to ``contract_ray``, which validates the contracted fan in
    full, in time linear in its number of cones when the contraction is
    valid. The result is cached per fan (``lru_cache``, 4096 fans), so a fan
    the search or ``blow_down`` reaches again costs no contraction.
    """
    star_rels = [
        rel
        for rel in mori.primitive_relations(fan)
        if len(rel.target) == 1 and rel.coefficients == (1,)
    ]
    star_rels.sort(key=lambda r: (fan.generators[r.target[0]].name, r.collection))
    out = []
    for rel in star_rels:
        try:
            target = contract_ray(fan, rel.target[0], rel.collection)
        except StarConditionViolatedError as exc:
            out.append(BlowdownCandidate(rel, False, exc.witnesses, None))
        else:
            out.append(BlowdownCandidate(rel, True, None, target))
    return tuple(out)


def blow_down(
    fan: Fan, ray: int | str, via: Iterable[int | str] | None = None
) -> Fan:
    """Blow down the divisor of ``ray`` via the collection ``via`` or, without
    one, by the ray's first valid blow-down candidate in collection order.

    A ray may carry several candidates, and the choice changes the target
    fan, so pass ``via`` to pin it. When every candidate is obstructed, the
    first is contracted again so that ``contract_ray`` raises its
    ``StarConditionViolatedError``.
    """
    if via is not None:
        return contract_ray(fan, ray, via)
    ridx = resolve_ray(fan, ray)
    cands = [c for c in blow_down_candidates(fan) if c.relation.target == (ridx,)]
    if not cands:
        raise NoBlowdownRelationError(
            f"no relation of the shape x1+...+xh = {fan.generators[ridx].name}"
        )
    for cand in cands:
        if cand.valid:
            return cand.target
    return contract_ray(fan, ridx, cands[0].relation.collection)


def factor_morphism(
    fine: Fan,
    coarse: Fan,
    require_fano: bool = False,
    exhaustive: bool = False,
) -> tuple[FactorizationPath, ...]:
    """Factor the refinement morphism fine -> coarse into blow-downs.

    Depth-first search over valid blow-down candidates whose targets still
    refine ``coarse``; a path is complete when the current fan equals
    ``coarse`` structurally. The coarse-cone bitmasks of ``fine``'s rays are
    computed once (see ``fan.refines``); every target's rays are among
    them, so each refinement test is one AND per maximal cone. Candidates
    come from the cached ``blow_down_candidates``; the step flags come from
    ``mori.is_fano`` (which reads the cached relation table) and the cached
    ``mori.is_projective``. With ``require_fano``, intermediates strictly
    between the endpoints must be Fano. With ``exhaustive``, all complete
    paths are returned, otherwise only the first; the empty tuple means the
    search finished and no factorization exists. Candidate order (by
    contracted ray name, then collection) makes results deterministic.

    One memo maps each structural key to the step suffixes from there to
    ``coarse`` (at most one unless ``exhaustive``), so each intermediate
    lists its candidates once. Every ray comes from ``fine``, so equal keys
    mean equal rays and names, and a memoized suffix is the one a new walk
    would build.
    """
    masks = _ray_masks(fine, coarse)
    if not _masks_cover(fine, masks):
        raise NotARefinementError(
            "the first fan does not refine the second; no equivariant"
            " morphism to factor"
        )
    coarse_key = structural_key(coarse)
    memo: dict = {coarse_key: ((),)}

    def suffixes(current: Fan) -> tuple[tuple[FactorStep, ...], ...]:
        key = structural_key(current)
        if key in memo:
            return memo[key]
        found: list[tuple[FactorStep, ...]] = []
        for cand in blow_down_candidates(current):
            if not cand.valid:
                continue
            target = cand.target
            if not _masks_cover(target, masks):
                continue
            if (
                require_fano
                and structural_key(target) != coarse_key
                and not mori.is_fano(target)[0]
            ):
                continue
            rest = suffixes(target)
            if not rest:
                continue
            # collection rays survive the contraction, so their names name
            # the blow-up center in the target as well
            step = FactorStep(
                cand.ray_name(current),
                current.cone_names(cand.relation.collection),
                target,
                mori.is_fano(target)[0],
                mori.is_projective(target),
            )
            found.extend((step,) + r for r in rest)
            if not exhaustive:
                break
        memo[key] = tuple(found)
        return memo[key]

    return tuple(FactorizationPath(s) for s in suffixes(fine))
