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

Convexity rule: for a cone s let u_s be the sum of its dual rows, 1 on
every ray of s. The search keeps u_s(v) <= 0 for every cone s and every
vertex v off s, checking a new cone against every vertex and a new apex
against every cone. A smooth complete fan is Fano iff it is the face fan
of the convex hull of its rays, each maximal cone spanning a facet
(Batyrev, *J. Math. Sci.* 94 (1999); Casagrande 2006), that is, iff
u_s(v) < 1, or u_s(v) <= 0 as u_s is integral, for all such s and v. So
the rule cuts no complex that extends to a Fano fan, and every closed
complex that keeps it is Fano.

It also implies the face condition. Each simplex conv(s) is the face of
P = conv(vertices) where u_s = 1, as P lies in u_s <= 1, and 0 lies
strictly beneath it, u_s(0) = 0 < 1. For x != 0 in cone(s) and cone(t),
the ray from 0 through x leaves P at one last point, x / u_s(x) in conv(s)
and x / u_t(x) in conv(t). The vertices of s where u_t = 1 are those of
t, as every other vertex has u_t <= 0, so that point lies in conv(s & t)
and x in cone(s & t). Hence no wall gets a third owner: two of three
cones on one wall would lie on one side of it and overlap.

The wall rule is the adjacent-cone case: u_owner(w) = sum(a_i) - 1, so
u_owner(w) <= 0 iff the wall relation p + w = sum(a_i * u_i) has
anticanonical degree 2 - sum(a_i) > 0 (``mori.wall_classes``);
``_candidates`` filters on it. Each closed complex is confirmed by
``validate_fan`` and the wall verdict of ``mori.is_fano``, so the search
locates no primitive relation; the degrees of the relations (Batyrev,
*Tohoku Math. J.* 43 (1991)) are a test oracle.

No visited set is kept, as no complex is reached twice: two paths first
differ where they put different cones on one open wall, both cones hold
it, and no closed wall gets a third owner. Nor is a new cone ever already
in the complex: it holds the open wall, whose only owner has apex p, and
its own apex w has coordinate -1 on p, so it is not that owner.

One bound by argument gives the pool and the one prune (Øbro's special
facet, arXiv:0704.0049). A complete fan has a maximal cone F holding nu,
the sum of its rays; map F to the standard cone, so u_F = (1,...,1) and
u_F(nu) >= 0. A ray v off F has sum(v) <= 0 (Fano), so sum(v) >= -n and
u_F(nu) only falls as vertices come in: a vertex taking it below 0 is cut.
The cone across the wall F - e_i, of apex q with q_i = -1, has functional
u_F + (c - 1)e_i*, c = sum(q) <= 0, at most 1 on every ray, so
v_i >= (sum(v) - 1)/(1 - c) >= sum(v) - 1, and v_i <= n^2 follows.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import gcd

from . import lattice, mori
from .errors import InternalInconsistencyError
from .fan import (
    Fan,
    canonical_gl_key,
    make_fan,
    validate_fan,
    _dual_rows,
    _wall_owners,
)


@lru_cache(maxsize=None)
def _primitive_pool(dim: int):
    """The primitive rays the special-facet bound allows, in lex order."""
    box = product(range(-dim - 1, dim * dim + 1), repeat=dim)  # v_i in [-n - 1, n^2]
    bounded = (v for v in box if -dim <= sum(v) <= 1 and min(v) >= sum(v) - 1)
    return tuple(v for v in bounded if gcd(*v) == 1)


def _functional(cone):
    """u_cone, the sum of the unimodular ``cone``'s dual rows."""
    return tuple(map(sum, zip(*_dual_rows(cone))))


def _convex(cones, vertices: set, new_cone) -> bool:
    """The convexity rule: whether ``cones`` (with vertex set ``vertices``)
    plus ``new_cone`` keep u_s(v) <= 0 for every cone s and vertex v off s,
    given that ``cones`` keep it."""
    u = _functional(new_cone)
    if any(lattice.dot(u, v) > 0 for v in vertices.difference(new_cone)):
        return False
    fresh = [w for w in new_cone if w not in vertices]  # the apex, if new
    return not any(lattice.dot(_functional(c), w) > 0 for w in fresh for c in cones)


@lru_cache(maxsize=2048)  # dimensions 1 to 3 meet 613 (cone, k) pairs
def _candidates(cone, k):
    """Pool vectors w with coordinate -1 on ``cone[k]`` in the basis
    ``cone`` and u_cone(w) <= 0, the convexity rule against the owner of
    the wall (the wall rule), in pool order."""
    on_p, u = _dual_rows(cone)[k], _functional(cone)
    return tuple(
        w
        for w in _primitive_pool(len(cone))
        if lattice.dot(on_p, w) == -1 and lattice.dot(u, w) <= 0
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
    """All smooth toric Fano fans of dimension ``dim``, up to GL(dim,Z),
    in canonical-key order."""
    start = tuple(v for v in _primitive_pool(dim) if sum(v) == 1)  # the e_i alone
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
            if not mori.is_fano(fan)[0]:
                raise InternalInconsistencyError("closed cone complex is not Fano")
            found.setdefault(canonical_gl_key(fan), fan)
            return
        ((owner, k),) = counts[wall]
        vertices = {x for cone in cones for x in cone}
        nu = sum(map(sum, vertices))  # u_F(nu) so far, F the standard cone
        for w in _candidates(owner, k):
            if w not in vertices and nu + sum(w) < 0:
                continue
            new_cone = tuple(sorted(wall + (w,)))
            if _convex(cones, vertices, new_cone):
                grow(cones | {new_cone})

    grow(frozenset([start]))
    return [found[k] for k in sorted(found)]
