"""Enumeration of smooth toric Fano fans in dimensions 1 to 4.

One advancing-front search serves every dimension (the module keeps its
name because ``bench/tracer.py`` lists it). It grows simplicial complexes
of unimodular cones around the standard cone. Every complete smooth fan
can be mapped by GL(n,Z) so that one maximal cone is the standard cone, so
each isomorphism class is reachable; completed fans are deduplicated as
below.

The front is the set of walls ((n-1)-faces) lying in exactly one cone so
far. The expansion step picks the lexicographically smallest open wall
with its unique flanking cone apex p and tries every candidate apex w on
the opposite side: unimodularity and the side condition force the
coordinate of w on p to be -1 in the basis (wall, p), so
w = sum(a_i * u_i) - p over the wall vectors u_i.

Convexity rule: for a cone s let u_s be the sum of its dual rows, 1 on
every ray of s. The search keeps u_s(v) <= 0 for every cone s and every
vertex v off s: a new cone against every vertex (the vertex half) and a
new apex against every cone (the apex half, through the admissible set
below). A smooth complete fan is Fano iff it is the face fan of the
convex hull of its rays, each maximal cone spanning a facet (Batyrev,
*J. Math. Sci.* 94 (1999); Casagrande 2006), that is, iff u_s(v) < 1, or
u_s(v) <= 0 as u_s is integral, for all such s and v. So the rule cuts no
complex that extends to a Fano fan, and every closed complex that keeps
it is Fano.

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
anticanonical degree 2 - sum(a_i) > 0 (``mori.wall_classes``). Each
closed complex is confirmed by ``validate_fan`` and the wall verdict of
``mori.is_fano``, so the search locates no primitive relation; the
degrees of the relations (Batyrev, *Tohoku Math. J.* 43 (1991)) are a
test oracle.

No visited set is kept, as no complex is reached twice: two paths first
differ where they put different cones on one open wall, both cones hold
it, and no closed wall gets a third owner. Nor is a new cone ever already
in the complex: it holds the open wall, whose only owner has apex p, and
its own apex w has coordinate -1 on p, so it is not that owner.

One apex is tried per orbit of the coordinate permutations that fix the
complex. Each complex carries a group of them, without the identity: at
the root every permutation, as they all fix the standard cone, and at a
child those of its parent's that fix its new cone, so the permutations
that fix every cone of the complex (a subgroup of its stabilizer, which
may also swap cones). Such a permutation g leaves the pool, the
convexity rule and u_F(nu) unchanged, u_F being the sum of the
coordinates, and what the search does below a complex K depends on K
alone, so below g(K) it closes the g-images of the complexes it closes
below K. At the chosen wall the search keeps the g that fix the wall,
and so its owner and p; such a g permutes the apexes on p, as it fixes
the dual row on p. An apex w that one of them maps to a smaller vector
is skipped: the least apex of its orbit, g(w) for one such g, is tried
whatever the order, and g carries each complex closed below w to one of
the same class closed below g(w). So, by induction on the depth of the
subtree, the classes closed below each complex do not change, and
neither do the classes found.

One bound by argument gives the pool and the one prune (Øbro's special
facet, arXiv:0704.0049). A complete fan has a maximal cone F holding nu,
the sum of its rays; map F to the standard cone, so u_F = (1,...,1) and
u_F(nu) >= 0. A ray v off F has sum(v) <= 0 (Fano), so sum(v) >= -n and
u_F(nu) only falls as vertices come in: a vertex taking it below 0 is cut.
The cone across the wall F - e_i, of apex q with q_i = -1, has functional
u_F + (c - 1)e_i*, c = sum(q) <= 0, at most 1 on every ray, so
v_i >= (sum(v) - 1)/(1 - c) >= sum(v) - 1, and v_i <= n^2 follows.

The apex half and the bound are applied through the admissible set that
each complex carries: the pool vectors x, in pool (lex) order, that are
no vertex, have u_c(x) <= 0 for every cone c and keep the bound,
u_F(nu) + sum(x) >= 0. Both conditions only tighten along a search path.
Cones only accumulate, and u_F(nu) is non-increasing, as every pool vector
but the e_i of the start cone has sum <= 0. So a child's set is its
parent's cut by u_new(x) <= 0, which also drops the apex (u_new = 1 on
it), and by the child's nu; at the root, u_start = sum and u_F(nu) = n. At
an open wall with owner apex p, the apexes tried are the x of the set and
the vertices with coordinate -1 on p, in pool order: what a scan of the
whole pool would give after the apex half and the bound, as a vertex v
there is off the owner and so already has u_owner(v) <= 0. Each is then
weighed by the vertex half alone (``_convex``).

The complex is the map from each of its cones to the cone's dual rows and
their sum u. The search carries it down beside the owners of each wall,
with the position of each owner's ray off it, the set of open walls, the
vertex set and u_F(nu). The start cone enters like any other: a cone adds
itself to the complex, its n walls and its vertices on entry and takes
them off on return. A wall leaves the open set at its second owner, and a
third owner, which the face condition above rules out, raises
``InternalInconsistencyError`` where it appears. So the smallest open wall
is the least of the open set, with no scan of the map. The complex, the
wall map, the sets and the found classes are local to the call, so
concurrent calls share nothing but the caches of pure functions. Every
vector the search dots (a pool vector, a vertex, a dual row) has n
entries by construction, so it dots with ``sum(map(mul, u, x))``, with no
length check.

Each cone of the complex carries its dual rows and their sum u, and none
is inverted: the start cone's rows are its own vectors, the e_i, and a
tried cone's are read off its owner's, as for the cone across F - e_i
above. Let phi_p be the owner's dual row on p, so w = sum(a_i * u_i) - p
has a_i = phi_i(w). The dual rows of the new cone are phi_i + a_i * phi_p
on the u_i and -phi_p on w, so u_new = u_owner + (u_owner(w) - 1) * phi_p,
which is all the convexity rule weighs. Only a cone the rule admits has
its rows built (``fan._exchange``), as it is entered, and they are
dropped on return. So the search makes no inverse of its own;
``validate_fan`` inverts the first cone of a closed complex and carries
its rows to the others by the same exchange, across each wall
(``fan._walk``).

Deduplication looks a closed complex up among the normal forms of the
classes found so far (``fan._normal_forms``) by vector part alone, the
sorted images (``fan._vector_part``). A GL(n,Z) map between fans without
repeated vectors carries each ordered unimodular cone of one to an ordered
cone of the other with the same generator images, so isomorphic fans have
the same set of vector parts. Conversely, the image of a Fano fan under a
form is a Fano fan, the face fan of the hull of its rays (above), so its
rays determine it: two forms with one vector part, of one fan or of two,
have one image, and both fans are isomorphic to it. So the vector part of
a complex's first form is that of a found class's form exactly when the
complex belongs to that class, and two classes have disjoint sets of
vector parts. The first complex of a new class drains its forms into the
set of found vector parts. Full keys (``fan._key``) compare by vector
part first, so the least of them, the class's canonical key
(``canonical_gl_key``), is the key of a form of least vector part; all
such forms have one image, so the fan of that image, its rays e0, e1, ...
in lex order (``_fan_from_cones``), has the canonical key as its
structural key. That fan, the class's canonical form, is its
representative, stored under the least vector part: it depends on the
class alone, not on the order in which the search meets the class's
complexes. As two classes' least vector parts differ, the classes are
returned in canonical-key order.
Dimensions 1 to 3 close 1, 9 and 95 complexes for 1, 5 and 18 classes
(1, 9 and 158 when every apex is tried) and build no full key; dimension
4 closes 2,095 for its 124.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, permutations, product
from math import gcd
from operator import mul

from . import mori
from .errors import InternalInconsistencyError
from .fan import (
    Fan,
    RayGenerator,
    validate_fan,
    _exchange,
    _normal_forms,
    _vector_part,
)


@lru_cache(maxsize=None)
def _primitive_pool(dim: int):
    """The primitive rays the special-facet bound allows, in lex order."""
    box = product(range(-dim - 1, dim * dim + 1), repeat=dim)  # v_i in [-n - 1, n^2]
    bounded = (v for v in box if -dim <= sum(v) <= 1 and min(v) >= sum(v) - 1)
    return tuple(v for v in bounded if gcd(*v) == 1)


def _coordinate_permutations(dim: int) -> tuple:
    """The stabilizer of the start cone, the root's group: every coordinate
    permutation but the identity, each as the index tuple g that maps x to
    (x[g[0]], ..., x[g[n-1]])."""
    return tuple(permutations(range(dim)))[1:]


def _fixing(group, vectors) -> tuple:
    """The permutations of ``group`` that map the set ``vectors`` onto itself."""
    return tuple(
        g for g in group if all(tuple(map(v.__getitem__, g)) in vectors for v in vectors)
    )


def _convex(duals: dict, vertices: set, new_cone, u, admissible, nu):
    """The convexity rule at ``new_cone``, of functional ``u``, whose apex
    is a vertex or drawn from ``admissible``, the admissible set of the
    complex ``duals`` (its cones mapped to their dual rows and their sum,
    with vertex set ``vertices``): the vertex half, u(v) <= 0 for every
    vertex v off ``new_cone``. Returns None if it fails, else the
    admissible set with ``new_cone`` added, whose vertices have
    u_F(nu) = ``nu``: the x of ``admissible`` with u(x) <= 0, which drops
    the apex, and nu + sum(x) >= 0. ``duals`` is read only by rules that
    stand in for this one, which may ignore ``u``; the search changes it
    after the call, so they copy what they keep of it."""
    if any(sum(map(mul, u, v)) > 0 for v in vertices.difference(new_cone)):
        return None
    return tuple(x for x in admissible if sum(map(mul, u, x)) <= 0 and nu + sum(x) >= 0)


def _fan_from_cones(dim: int, cones) -> Fan:
    """The fan of a closed complex, or of its image under a normal form,
    built directly, as it passes ``make_fan``'s checks by construction: its
    rays e0, e1, ... are the distinct vertices in sorted order, integer
    tuples of length ``dim``, and each cone, a sorted tuple of ``dim``
    distinct vertices, maps to increasing indices."""
    vertices = sorted({v for cone in cones for v in cone})
    index = {v: i for i, v in enumerate(vertices)}
    return Fan(
        dim,
        tuple(RayGenerator(f"e{i}", v) for i, v in enumerate(vertices)),
        [tuple(map(index.__getitem__, cone)) for cone in cones],
    )


def enumerate_fano_fans(dim: int) -> list[Fan]:
    """All smooth toric Fano fans of dimension ``dim``, up to GL(dim,Z),
    each as its canonical form, in canonical-key order."""
    pool = _primitive_pool(dim)
    start = tuple(v for v in pool if sum(v) == 1)  # the e_i alone
    found: dict = {}  # least vector part -> its class's canonical form
    parts: set = set()  # the vector parts of every form of every found class

    owners: dict = {}  # wall -> [(cone, k)], one or two owners
    duals: dict = {}  # the complex: cone -> (its dual rows, their sum u)
    open_walls: set = set()  # the walls with one owner
    vertices: set = set()

    def enter(cone, rows_u):  # adds a cone with its rows, walls and vertices
        duals[cone] = rows_u
        vertices.update(cone)
        k = len(cone)
        for wall in combinations(cone, k - 1):  # as fan._wall_owners orders them
            k -= 1
            sides = owners.setdefault(wall, [])
            sides.append((cone, k))
            if len(sides) == 1:
                open_walls.add(wall)
            elif len(sides) == 2:
                open_walls.discard(wall)
            else:
                raise InternalInconsistencyError("wall covered three times")

    def leave(cone, fresh):  # undoes enter(cone), which added the vertices fresh
        del duals[cone]
        vertices.difference_update(fresh)
        for wall in combinations(cone, len(cone) - 1):
            sides = owners[wall]
            sides.pop()
            if sides:
                open_walls.add(wall)
            else:
                del owners[wall]
                open_walls.discard(wall)

    def grow(admissible: tuple, nu: int, group: tuple):
        if not open_walls:
            fan = _fan_from_cones(dim, duals)
            if not validate_fan(fan).ok:
                raise InternalInconsistencyError(
                    "closed cone complex failed validation"
                )
            if not mori.is_fano(fan)[0]:
                raise InternalInconsistencyError("closed cone complex is not Fano")
            forms = _normal_forms(fan)
            first = next(forms)[0]
            if _vector_part(first) in parts:
                return  # a class found before
            new = {_vector_part(i): i for i in [first, *(i for i, _, _ in forms)]}
            parts.update(new)
            least, images = min(new.items())  # its image is the canonical form
            image_cones = [tuple(sorted(map(images.__getitem__, c))) for c in fan.max_cones]
            found[least] = _fan_from_cones(dim, image_cones)
            return
        wall = min(open_walls)
        ((owner, k),) = owners[wall]
        rows, u = duals[owner]
        on_p = rows[k]
        apexes = (x for x in chain(vertices, admissible) if sum(map(mul, on_p, x)) == -1)
        on_wall = _fixing(group, wall)  # these fix the owner and p too
        for w in sorted(apexes):  # in pool order
            if any(tuple(map(w.__getitem__, g)) < w for g in on_wall):
                continue  # g maps this subtree onto one tried before
            new_cone = tuple(sorted(wall + (w,)))
            fresh = () if w in vertices else (w,)
            child_nu = nu + sum(w) if fresh else nu
            c = sum(map(mul, u, w)) - 1
            u_new = tuple(a + c * b for a, b in zip(u, on_p))
            child = _convex(duals, vertices, new_cone, u_new, admissible, child_nu)
            if child is None:
                continue
            coeffs = [sum(map(mul, row, w)) for row in rows[:k] + rows[k + 1 :]]
            enter(new_cone, (_exchange(rows, k, coeffs, new_cone.index(w)), u_new))
            grow(child, child_nu, _fixing(group, new_cone))
            leave(new_cone, fresh)

    # the start cone enters like any other; u_start = sum and u_F(nu) = dim
    enter(start, (start, (1,) * dim))
    admissible = tuple(v for v in pool if -dim <= sum(v) <= 0)
    grow(admissible, dim, _coordinate_permutations(dim))
    return [found[k] for k in sorted(found)]
