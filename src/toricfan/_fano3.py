"""Enumeration of smooth toric Fano fans in dimensions 1 to 3.

One advancing-front search serves every dimension (the module keeps its
name because ``bench/tracer.py`` lists it). It grows simplicial complexes
of unimodular cones around the standard cone. Every complete smooth fan
can be mapped by GL(n,Z) so that one maximal cone is the standard cone, so
each isomorphism class is reachable; completed fans are deduplicated by
canonical form.

The front is the set of walls ((n-1)-faces) lying in exactly one cone so
far. The expansion step picks the lexicographically smallest open wall
with its unique flanking cone apex p and tries every candidate apex w on
the opposite side: unimodularity and the side condition force the
coordinate of w on p to be -1 in the basis (wall, p), so
w = sum(a_i * u_i) - p over the wall vectors u_i.

Wall rule: once both cones of a wall are placed, its relation
p + q = sum(a_i * u_i) (``fan._wall_coefficients``) is fixed, since no
cone is ever removed, and -K is ample iff every such relation has degree
2 - sum(a_i) > 0 (see ``mori.wall_classes``). So a branch is cut as soon
as it closes a wall with sum(a_i) >= 2: the wall it expands, or any other
facet of the new cone that meets an open wall. Every closed complex is
then Fano; on each, the wall verdict of ``mori.is_fano`` is checked
against the degrees of the primitive relations.

No visited set is kept, as no complex is reached twice: two paths first
differ where they put different cones on one open wall, both cones hold
it, and no step gives a closed wall a third owner. Nor is a new cone ever
already in the complex: it holds the open wall, whose only owner has apex
p, and its own apex w has coordinate -1 on p, so it is not that owner.

The caps are 8 vertices and coordinates in [-2, 2], validated by
reproducing the known counts 1, 5 and 18. Cones need no cap: the cones of
an open complex meet in common faces, so in dimension 3 they triangulate
part of the sphere with V <= 8 vertices, by Euler's formula in at most
2V - 5 <= 11 cones (2V - 4 only if the sphere is covered and no wall is
open); in dimension 2 they form a path of at most V - 1 cones.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from math import gcd

from . import lattice, mori
from .errors import InternalInconsistencyError
from .fan import (
    Fan,
    canonical_gl_key,
    cones_meet_in_common_face,
    make_fan,
    validate_fan,
    _dual_rows,
    _wall_coefficients,
    _wall_owners,
)

MAX_VERTICES = 8
COORD_BOUND = 2


@lru_cache(maxsize=None)
def _primitive_pool(dim: int):
    rng = range(-COORD_BOUND, COORD_BOUND + 1)
    return tuple(v for v in product(rng, repeat=dim) if gcd(*v) == 1)


def _breaks_fano(cone, k, q) -> bool:
    """The wall rule: ``cone`` and the cone across its facet opposite
    ``cone[k]`` with apex q make a wall relation of anticanonical degree
    <= 0, that is, sum(a_i) >= 2. When q's coordinate on ``cone[k]`` is not
    -1 the pair is left to the face check, which rejects it."""
    coeffs = _wall_coefficients(cone, k, q)
    return coeffs is not None and sum(coeffs) >= 2


@lru_cache(maxsize=16384)  # dimension 3 meets 8,804 (cone, k) pairs
def _candidates(cone, k):
    """Pool vectors w with coordinate -1 on ``cone[k]`` in the basis
    ``cone`` that the wall rule keeps, in pool order."""
    on_p = _dual_rows(cone)[k]
    return tuple(
        w
        for w in _primitive_pool(len(cone))
        if lattice.dot(on_p, w) == -1 and not _breaks_fano(cone, k, w)
    )


def _fan_from_cones(dim: int, cones) -> Fan:
    vertices = sorted({v for cone in cones for v in cone})
    index = {v: i for i, v in enumerate(vertices)}
    return make_fan(
        dim,
        [(f"e{i}", v) for i, v in enumerate(vertices)],
        [tuple(index[v] for v in cone) for cone in cones],
    )


def enumerate_fano_fans(dim: int) -> list[Fan]:
    """All smooth toric Fano fans of dimension ``dim`` within the vertex
    cap and the coordinate bound, up to GL(dim,Z), in canonical-key order."""
    start = tuple(
        sorted(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    )
    found: dict = {}

    def grow(cones: frozenset):
        counts = _wall_owners(cones)
        if any(len(owners) > 2 for owners in counts.values()):
            raise InternalInconsistencyError("wall covered three times")
        # the smallest open wall, None once the complex is closed
        wall = min((w for w, o in counts.items() if len(o) == 1), default=None)
        if wall is None:
            fan = _fan_from_cones(dim, cones)
            if not validate_fan(fan).ok:
                raise InternalInconsistencyError(
                    "closed cone complex failed validation"
                )
            fano = mori.is_fano(fan)[0]
            if fano != all(r.degree > 0 for r in mori.primitive_relations(fan)):
                raise InternalInconsistencyError(
                    "wall and primitive-collection Fano verdicts disagree"
                )
            if fano:
                found.setdefault(canonical_gl_key(fan), fan)
            return
        ((owner, k),) = counts[wall]
        vertices = {x for cone in cones for x in cone}
        for w in _candidates(owner, k):
            if w not in vertices and len(vertices) >= MAX_VERTICES:
                continue
            new_cone = tuple(sorted(wall + (w,)))
            # (facet, apex of new_cone off it) for every other facet;
            # combinations drops the last ray first
            facets = [
                (f, x)
                for f, x in zip(combinations(new_cone, dim - 1), reversed(new_cone))
                if f != wall
            ]
            if any(len(counts.get(f, ())) >= 2 for f, _ in facets):
                continue
            if any(
                _breaks_fano(*counts[f][0], x) for f, x in facets if f in counts
            ):
                continue  # closes another wall with degree <= 0
            if all(
                cones_meet_in_common_face(new_cone, cone) for cone in cones
            ):
                grow(cones | {new_cone})

    grow(frozenset([start]))
    return [found[k] for k in sorted(found)]
