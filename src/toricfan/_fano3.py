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

Degree rule: when every a_i >= 0, the sum p + w = sum(a_i * u_i) lies in
the relative interior of a face of the existing cone, so {p, w} can span
no cone of a completed fan and is a primitive collection of degree
2 - sum(a_i). Fano forces degree >= 1, so w is cut when every a_i >= 0 and
sum(a_i) >= 2.

Vertex and cone counts are capped (8 vertices, hence at most
2*8 - 4 = 12 cones for a simplicial 2-sphere) and vertex coordinates lie
in [-2, 2]; the caps are validated by reproducing the known
classification counts 1, 5 and 18.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from math import gcd

from . import mori
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


@lru_cache(maxsize=16384)  # dimension 3 meets 8,804 (wall, p) pairs
def _candidates(wall, p):
    """Pool vectors w with coordinate -1 on p in the basis (wall, p) that
    the degree rule keeps, in pool order."""
    dual = _dual_rows(wall + (p,))
    out = []
    for w in _primitive_pool(len(p)):
        *a, on_p = (sum(r * x for r, x in zip(row, w)) for row in dual)
        if on_p != -1:
            continue  # not unimodular against the wall, or on p's side
        if min(a, default=0) >= 0 and sum(a) >= 2:
            continue  # {p, w} would have degree 2 - sum(a) <= 0
        out.append(w)
    return tuple(out)


def _fan_from_cones(dim: int, cones) -> Fan:
    vertices = sorted({v for cone in cones for v in cone})
    index = {v: i for i, v in enumerate(vertices)}
    return make_fan(
        dim,
        [(f"e{i}", v) for i, v in enumerate(vertices)],
        [tuple(index[v] for v in cone) for cone in cones],
    )


def enumerate_fano_fans(dim: int) -> list[Fan]:
    """All smooth toric Fano fans of dimension ``dim`` within the caps, up
    to GL(dim,Z), in canonical-key order."""
    start = tuple(
        sorted(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    )
    found: dict = {}
    visited: set = set()

    def wall_counts(cones):
        counts: dict = {}
        for cone in cones:
            for wall in combinations(cone, dim - 1):
                counts.setdefault(wall, []).append(cone)
        return counts

    def grow(cones: frozenset):
        if cones in visited:
            return
        visited.add(cones)
        counts = wall_counts(cones)
        if any(len(owners) > 2 for owners in counts.values()):
            raise InternalInconsistencyError("wall covered three times")
        open_walls = sorted(w for w, owners in counts.items() if len(owners) == 1)
        if not open_walls:
            fan = _fan_from_cones(dim, cones)
            if not validate_fan(fan).ok:
                raise InternalInconsistencyError(
                    "closed cone complex failed validation"
                )
            if mori.is_fano(fan)[0]:
                found.setdefault(canonical_gl_key(fan), fan)
            return
        if len(cones) >= MAX_CONES:
            return
        wall = open_walls[0]
        (owner,) = counts[wall]
        (p,) = [x for x in owner if x not in wall]
        vertices = {x for cone in cones for x in cone}
        for w in _candidates(wall, p):
            if w not in vertices and len(vertices) >= MAX_VERTICES:
                continue
            new_cone = tuple(sorted(wall + (w,)))
            if new_cone in cones:
                continue
            if any(
                len(counts.get(w2, ())) >= 2
                for w2 in combinations(new_cone, dim - 1)
            ):
                continue
            if all(
                cones_meet_in_common_face(new_cone, cone) for cone in cones
            ):
                grow(cones | {new_cone})

    grow(frozenset([start]))
    return [found[k] for k in sorted(found)]
