"""Blow-down discovery and factorization of refinement morphisms.

A blow-down is a relation x1+...+xh = x along which ``fan.contract_ray``
succeeds. This module alone decides which are tried, by one shape rule: the
collection's vectors sum to the generator x. ``_candidates`` is the one
generator: it contracts each primitive collection of that shape, behind
the validity gate of ``blow_down_candidates`` for the reports and for
``blow_down``, which picks the collection for a bare ray, and directly for
the fans the factorization search builds by contraction. Factorization
searches for chains of valid blow-downs carrying a fine fan onto a coarse
one it refines, depth-first with one memo of the step suffixes below each
intermediate, optionally insisting that every strict intermediate be Fano.
It passes the walls of its two endpoints only: the wall classes of the
fine fan, pushed down each contraction (``_push``), are the wall classes
of each intermediate, and decide its Fano flag.

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


def blow_down_candidates(fan: Fan) -> tuple[BlowdownCandidate, ...]:
    """Each primitive collection whose vectors sum to a generator x, read as
    x1+...+xh = x and contracted by ``fan._contract``, the step of
    ``contract_ray`` and its one validity rule, with the obstructions of
    those that fail; ordered by the name of x, then by collection. The
    indices come resolved and the sum checked, so the step runs without
    ``contract_ray``'s argument checks and raises nothing. Raises on a fan
    ``validate_fan`` rejects, via ``mori.wall_classes``, then reads the
    cached list of ``_candidates``."""
    mori.wall_classes(fan)  # the check only; the classes are not read
    return _candidates(fan)


@lru_cache(maxsize=4096)
def _candidates(fan: Fan) -> tuple[BlowdownCandidate, ...]:
    """``blow_down_candidates`` on a fan known to be valid, unchecked;
    cached (4096 fans). The factorization search calls it on the fans it
    builds by contraction, which Sato's argument (``fan.contract_ray``)
    shows valid."""
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
    maximal cone. Both endpoints go through the cached wall pass of
    ``mori.wall_classes``, so a fan that ``validate_fan`` rejects raises
    ``InternalInconsistencyError``; an intermediate is valid by Sato's
    argument (``fan.contract_ray``), so its candidates come unchecked from
    ``_candidates`` and its walls are never passed. The search carries a
    set of curve classes instead: ``wall_classes(fine)``, pushed down each
    contraction by ``_push``, is the set of wall classes of each fan it
    reaches, which generate its Mori cone (Reid, "Decomposition of toric
    morphisms", 1983; Cox, Little and Schenck, *Toric Varieties*, Thm
    6.3.20), and a divisor is ample iff it is positive on each. So ``fano``
    is the positivity of the sum of the entries of every carried class, the
    test of ``mori.is_fano_by_walls``, and the search locates no primitive
    relation. ``projective`` is True when the next fan toward ``coarse`` is
    projective, else the cached ``mori.is_projective``, which passes the
    walls of that one fan. Each step fan is the star subdivision of the fan
    below it, the blow-up along a smooth invariant center, and a blow-up of
    a projective variety is projective (Hartshorne, *Algebraic Geometry*,
    II.7). So onto a projective ``coarse``, such as P^n, the search runs no
    Gordan LP, and onto a non-projective one it runs the LP only up to the
    first step it finds projective. The flag below the last step is
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
    memoized suffix is the one a new walk would build. The classes carried
    into a fan are its wall classes by whatever path it is reached, so the
    memo needs no key beyond the fan.
    """
    fine_classes = mori.wall_classes(fine)
    mori.wall_classes(coarse)  # the check only; the classes are not read
    masks = _ray_masks(fine, coarse)
    if not _masks_cover(fine, masks):
        raise NotARefinementError(
            "the first fan does not refine the second; no equivariant"
            " morphism to factor"
        )
    rays = len(coarse.generators)
    coarse_projective = mori.is_projective(coarse)
    memo: dict = {}

    def suffixes(current: Fan, classes) -> tuple[tuple[FactorStep, ...], ...]:
        if len(current.generators) == rays:
            return ((),)
        if current in memo:
            return memo[current]
        found: list[tuple[FactorStep, ...]] = []
        for cand in _candidates(current):
            target = cand.target
            if not cand.valid or not _masks_cover(target, masks):
                continue
            pushed = _push(classes, cand.relation.target[0], cand.relation.collection)
            fano = all(sum(c) > 0 for c in pushed)
            if require_fano and len(target.generators) != rays and not fano:
                continue
            rest = suffixes(target, pushed)
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
                fano,
                below or mori.is_projective(target),
            )
            found.extend((step,) + r for r in rest)
            if not exhaustive:
                break
        memo[current] = tuple(found)
        return memo[current]

    return tuple(FactorizationPath(s) for s in suffixes(fine, fine_classes))


def _push(classes, x: int, collection: Cone) -> tuple[tuple[int, ...], ...]:
    """The images of curve classes under the contraction of ray x via
    ``collection``, without zeros or repeats: pi_* c is c with entry x
    deleted and c_x added to the entry of each collection ray, the indices
    past x shifting down as in ``fan._contract``. For the blow-up pi of the
    collection's cone, pi^* D'_i = D_i + E on a collection ray and D_i on
    any other, and pi_* c . D' = c . pi^* D'. Each T-invariant curve of the
    source maps to a point or, with degree 1, onto a T-invariant curve of
    the target, and each T-invariant curve of the target is such an image,
    so the images of a fan's wall classes are the target's wall classes."""
    out = set()
    for c in classes:
        entries = list(c)
        cx = entries.pop(x)
        if cx:
            for i in collection:
                entries[i - (i > x)] += cx
        if any(entries):
            out.add(tuple(entries))
    return tuple(out)
