"""Blow-down discovery and factorization of refinement morphisms.

A blow-down is a relation x1+...+xh = x along which ``fan.contract_ray``
succeeds. This module alone decides which are tried, by one shape rule: the
collection's vectors sum to the generator x. ``blow_down_candidates`` is
the one generator: it contracts each primitive collection of that shape,
for the reports, for ``blow_down``, which picks the collection for a bare
ray, and for factorization. Factorization searches for chains of valid
blow-downs carrying a fine fan onto a coarse one it refines, depth-first
with one memo of the step suffixes below each intermediate, optionally
insisting that every strict intermediate be Fano.

The records are ``typing.NamedTuple`` classes, not dataclasses, so that a
cold start does not import ``dataclasses`` (see the ``fan`` docstring).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple

from . import mori
from .errors import NoBlowdownRelationError, NotARefinementError
from .fan import (
    Cone,
    Fan,
    _contract,
    _masks_cover,
    _ray_masks,
    contract_ray,
    resolve_ray,
)


class BlowdownCandidate(NamedTuple):
    relation: mori.PrimitiveRelation
    valid: bool
    # every maximal cone violating the star condition, when invalid
    obstruction: tuple[Cone, ...] | None
    target: Fan | None

    def ray_name(self, fan: Fan) -> str:
        return fan.generators[self.relation.target[0]].name


class FactorStep(NamedTuple):
    ray: str  # contracted ray name
    center: tuple[str, ...]  # blow-up center in the target, by name
    fan: Fan  # the fan after this contraction
    fano: bool
    projective: bool


class FactorizationPath(NamedTuple):
    steps: tuple[FactorStep, ...]


@lru_cache(maxsize=4096)
def blow_down_candidates(fan: Fan) -> tuple[BlowdownCandidate, ...]:
    """Each primitive collection whose vectors sum to a generator x, read as
    x1+...+xh = x and contracted by ``fan._contract``, the step of
    ``contract_ray`` and its one validity rule, with the obstructions of
    those that fail; ordered by the name of x, then by collection. The
    indices come resolved and the sum checked, so the step runs without
    ``contract_ray``'s argument checks and raises nothing. Raises on a fan
    ``validate_fan`` rejects, via ``mori.wall_classes``; cached (4096
    fans)."""
    mori.wall_classes(fan)  # the check only; the classes are not read
    index = {v: i for i, v in enumerate(fan.vectors())}
    pairs = []
    for coll in mori.primitive_collections(fan):
        x = index.get(tuple(map(sum, zip(*fan.cone_vectors(coll)))))
        if x is not None:
            pairs.append((x, coll))
    out = []
    for x, coll in sorted(pairs, key=lambda p: (fan.generators[p[0]].name, p[1])):
        rel = mori.PrimitiveRelation(coll, (x,), (1,), len(coll) - 1)
        target = _contract(fan, x, coll)
        if type(target) is Fan:
            out.append(BlowdownCandidate(rel, True, None, target))
        else:
            out.append(BlowdownCandidate(rel, False, target, None))
    return tuple(out)


def blow_down(
    fan: Fan, ray: int | str, via: Iterable[int | str] | None = None
) -> Fan:
    """Blow down the divisor of ``ray`` via the collection ``via`` or, without
    one, by the ray's first valid blow-down candidate in collection order.

    A ray may carry several candidates, and the choice changes the target
    fan, so pass ``via`` to pin it. When every candidate is obstructed, the
    first is contracted, so that ``contract_ray`` raises its
    ``StarConditionViolatedError``.
    """
    if via is None:
        ridx = resolve_ray(fan, ray)
        cands = [c for c in blow_down_candidates(fan) if c.relation.target == (ridx,)]
        if not cands:
            raise NoBlowdownRelationError(
                f"no relation of the shape x1+...+xh = {fan.generators[ridx].name}"
            )
        via = next((c for c in cands if c.valid), cands[0]).relation.collection
    return contract_ray(fan, ray, via)


def factor_morphism(
    fine: Fan,
    coarse: Fan,
    require_fano: bool = False,
    exhaustive: bool = False,
) -> tuple[FactorizationPath, ...]:
    """Factor the refinement morphism fine -> coarse into blow-downs.

    Depth-first search over valid blow-down candidates whose targets still
    refine ``coarse``; a path is complete when the current fan has as many
    rays as ``coarse``. A complete fan refining ``coarse`` holds every ray
    of ``coarse``, so with as many rays it holds no other, and each coarse
    cone is then the one fine cone inside it: the fan equals ``coarse``.
    The coarse-cone bitmasks of ``fine``'s rays are read once per call
    from the cache of ``fan._ray_masks``, keyed by the coarse fan and the
    vector, so calls onto one coarse fan test each vector once; every
    target's rays are among them, so each refinement test is one AND per
    maximal cone. Both endpoints, and every intermediate via
    ``blow_down_candidates``, go through the cached wall pass of
    ``mori.wall_classes``, so a fan that ``validate_fan`` rejects raises
    ``InternalInconsistencyError``. The step flags read that pass, so the
    search locates no primitive relation: ``fano`` is
    ``mori.is_fano_by_walls``, and ``projective`` is True when the next fan
    toward ``coarse`` is projective, else the cached ``mori.is_projective``.
    Each step fan is the star subdivision of the fan below it, the blow-up
    along a smooth invariant center, and a blow-up of a projective variety
    is projective (Hartshorne, *Algebraic Geometry*, II.7). So onto a
    projective ``coarse``, such as P^n, the search runs no Gordan LP, and
    onto a non-projective one it runs the LP only up to the first step it
    finds projective. The flag below the last step is
    ``mori.is_projective(coarse)``, read once per call. With
    ``require_fano``, intermediates strictly between the endpoints must be
    Fano. With ``exhaustive``, all complete paths are returned, otherwise
    only the first; the empty tuple means the search finished and no
    factorization exists. Candidate order (by contracted ray name, then
    collection) makes results deterministic, and the steps are named from
    ``fine``.

    One memo maps each intermediate fan to its step suffixes down to
    ``coarse`` (at most one unless ``exhaustive``), so each intermediate
    lists its candidates once. The memo compares fans as values: the
    contraction step slices the generators of the fan it contracts, so
    every intermediate has ``fine``'s rays in ``fine``'s order, and ``Fan``
    sorts its maximal cones, so equal fans are equal ``Fan`` values and a
    memoized suffix is the one a new walk would build.
    """
    for endpoint in (fine, coarse):
        mori.wall_classes(endpoint)  # the check only; the classes are not read
    masks = _ray_masks(fine, coarse)
    if not _masks_cover(fine, masks):
        raise NotARefinementError(
            "the first fan does not refine the second; no equivariant"
            " morphism to factor"
        )
    rays = len(coarse.generators)
    coarse_projective = mori.is_projective(coarse)
    memo: dict = {}

    def suffixes(current: Fan) -> tuple[tuple[FactorStep, ...], ...]:
        if len(current.generators) == rays:
            return ((),)
        if current in memo:
            return memo[current]
        found: list[tuple[FactorStep, ...]] = []
        for cand in blow_down_candidates(current):
            target = cand.target
            if not cand.valid or not _masks_cover(target, masks):
                continue
            if (
                require_fano
                and len(target.generators) != rays
                and not mori.is_fano_by_walls(target)
            ):
                continue
            rest = suffixes(target)
            if not rest:
                continue
            # target is the blow-up of the fan its first suffix steps to,
            # or ``coarse`` itself when that suffix is empty
            below = rest[0][0].projective if rest[0] else coarse_projective
            # collection rays survive the contraction, so their names name
            # the blow-up center in the target as well
            step = FactorStep(
                cand.ray_name(current),
                current.cone_names(cand.relation.collection),
                target,
                mori.is_fano_by_walls(target),
                below or mori.is_projective(target),
            )
            found.extend((step,) + r for r in rest)
            if not exhaustive:
                break
        memo[current] = tuple(found)
        return memo[current]

    return tuple(FactorizationPath(s) for s in suffixes(fine))
