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

Wall rule: once both cones of a wall are placed, the wall relation
p + q = sum(a_i * u_i) is fixed, and it stays a wall relation in every
completion, since no cone is ever removed. Its anticanonical degree is
2 - sum(a_i), the degree of -K on the torus-invariant curve of the wall,
and a divisor on a complete toric variety is ample iff it is positive on
every such curve (the toric Kleiman criterion: Cox, Little and Schenck,
*Toric Varieties*, Thm 6.3.13; Reid, "Decomposition of toric morphisms",
1983). So a branch is cut as soon as it closes a wall with sum(a_i) >= 2,
whatever the signs of the a_i: the wall it expands, or any other facet of
the new cone that meets an open wall. Every wall of a closed complex was
closed by some step, so every closed complex is Fano; the
primitive-collection verdict of ``mori.is_fano`` is checked against the
wall verdict on each one.

Vertex and cone counts are capped (8 vertices, hence at most
2*8 - 4 = 12 cones for a simplicial 2-sphere) and vertex coordinates lie
in [-2, 2]; the caps are validated by reproducing the known
classification counts 1, 5 and 18.
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
)

MAX_VERTICES = 8
MAX_CONES = 2 * MAX_VERTICES - 4
COORD_BOUND = 2


@lru_cache(maxsize=None)
def _primitive_pool(dim: int):
    rng = range(-COORD_BOUND, COORD_BOUND + 1)
    return tuple(v for v in product(rng, repeat=dim) if gcd(*v) == 1)


def _wall_sum(wall, p, q):
    """sum(a_i) in the wall relation p + q = sum(a_i * u_i) over the vectors
    u_i of ``wall``, or None when q does not have coordinate -1 on p in the
    basis (wall, p)."""
    *rows, on_p = _dual_rows(wall + (p,))
    if lattice.dot(on_p, q) != -1:
        return None
    return sum(lattice.dot(row, q) for row in rows)


def _breaks_fano(wall, p, q) -> bool:
    """The wall rule: cones (wall, p) and (wall, q) make a wall relation of
    anticanonical degree <= 0. When q's coordinate on p is not -1 the pair
    is left to the face check, which rejects it."""
    s = _wall_sum(wall, p, q)
    return s is not None and s >= 2


@lru_cache(maxsize=16384)  # dimension 3 meets 8,804 (wall, p) pairs
def _candidates(wall, p):
    """Pool vectors w with coordinate -1 on p in the basis (wall, p) that
    the wall rule keeps, in pool order."""
    on_p = _dual_rows(wall + (p,))[-1]
    return tuple(
        w
        for w in _primitive_pool(len(p))
        if lattice.dot(on_p, w) == -1 and not _breaks_fano(wall, p, w)
    )


def _fan_from_cones(dim: int, cones) -> Fan:
    vertices = sorted({v for cone in cones for v in cone})
    index = {v: i for i, v in enumerate(vertices)}
    return make_fan(
        dim,
        [(f"e{i}", v) for i, v in enumerate(vertices)],
        [tuple(index[v] for v in cone) for cone in cones],
    )


def _wall_owners(cones) -> dict:
    """Each wall of a complex of sorted vector tuples, with the cones on it."""
    owners: dict = {}
    for cone in cones:
        for wall in combinations(cone, len(cone) - 1):
            owners.setdefault(wall, []).append(cone)
    return owners


def _apex(cone, wall):
    (x,) = [x for x in cone if x not in wall]
    return x


def _fano_by_walls(cones) -> bool:
    """Kleiman's verdict on a complete complex: every wall relation has
    anticanonical degree 2 - sum(a_i) >= 1."""
    return all(
        _wall_sum(wall, _apex(a, wall), _apex(b, wall)) <= 1
        for wall, (a, b) in _wall_owners(cones).items()
    )


def enumerate_fano_fans(dim: int) -> list[Fan]:
    """All smooth toric Fano fans of dimension ``dim`` within the caps, up
    to GL(dim,Z), in canonical-key order."""
    start = tuple(
        sorted(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    )
    found: dict = {}
    visited: set = set()

    def grow(cones: frozenset):
        if cones in visited:
            return
        visited.add(cones)
        counts = _wall_owners(cones)
        if any(len(owners) > 2 for owners in counts.values()):
            raise InternalInconsistencyError("wall covered three times")
        open_walls = sorted(w for w, owners in counts.items() if len(owners) == 1)
        if not open_walls:
            fan = _fan_from_cones(dim, cones)
            if not validate_fan(fan).ok:
                raise InternalInconsistencyError(
                    "closed cone complex failed validation"
                )
            fano = mori.is_fano(fan)[0]
            if fano != _fano_by_walls(cones):
                raise InternalInconsistencyError(
                    "wall and primitive-collection Fano verdicts disagree"
                )
            if fano:
                found.setdefault(canonical_gl_key(fan), fan)
            return
        if len(cones) >= MAX_CONES:
            return
        wall = open_walls[0]
        (owner,) = counts[wall]
        p = _apex(owner, wall)
        vertices = {x for cone in cones for x in cone}
        for w in _candidates(wall, p):
            if w not in vertices and len(vertices) >= MAX_VERTICES:
                continue
            new_cone = tuple(sorted(wall + (w,)))
            if new_cone in cones:
                continue
            facets = [f for f in combinations(new_cone, dim - 1) if f != wall]
            if any(len(counts.get(f, ())) >= 2 for f in facets):
                continue
            if any(
                _breaks_fano(f, _apex(counts[f][0], f), _apex(new_cone, f))
                for f in facets
                if f in counts
            ):
                continue  # closes another wall with degree <= 0
            if all(
                cones_meet_in_common_face(new_cone, cone) for cone in cones
            ):
                grow(cones | {new_cone})

    grow(frozenset([start]))
    return [found[k] for k in sorted(found)]
