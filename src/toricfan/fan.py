"""Fan data model for smooth complete toric varieties.

A fan is stored combinatorially: named primitive ray generators plus the
maximal cones as index tuples. This module covers parsing/serialization,
geometric validation, relative-interior location, star subdivision
(equivariant blow-up), ray contraction (blow-down), refinement testing and
GL(n,Z) fan isomorphism. Fans are immutable values; every operation is a
pure function.

The records are ``typing.NamedTuple`` classes and ``Fan`` is a hand-written
value class, not dataclasses: importing ``dataclasses`` pulls in
``inspect``, ``ast``, ``dis``, ``tokenize`` and seven more stdlib modules,
about a seventh of a cold ``python -m toricfan`` run, and a dataclass takes
several times as long as a NamedTuple to build at import.
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache
from itertools import combinations, permutations
from operator import lt, mul
from typing import Iterable, NamedTuple, Sequence

from . import lattice
from .errors import (
    CenterNotInFanError,
    CenterTooSmallError,
    DimensionMismatchError,
    DuplicateNameError,
    FanParseError,
    FanSyntaxError,
    InternalInconsistencyError,
    InvalidArgumentError,
    NameCollisionError,
    NoBlowdownRelationError,
    StarConditionViolatedError,
    UnknownRayError,
)

Cone = tuple[int, ...]  # strictly increasing ray indices

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT_RE = re.compile(r"[+-]?[0-9]+\Z")


class RayGenerator(NamedTuple):
    """A 1-dimensional cone: a name plus its primitive lattice vector."""

    name: str
    vector: lattice.IntVector


class ValidationReport(NamedTuple):
    smooth: bool
    complete: bool
    faces_ok: bool
    witnesses: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.smooth and self.complete and self.faces_ok


class Fan:
    """A fan in Z^dim: ray generators and maximal cones of full dimension.

    An immutable value: fans compare by (dim, generators, max_cones) and
    refuse assignment. The constructor stores both containers as tuples,
    each maximal cone as a tuple and the maximal cones sorted: it is the one
    place that order is kept, so two fans listing the same cones in another
    order, or as lists, are one value with one hash. Each builder sorts the
    rays inside each cone; a cone whose indices do not strictly increase
    fails ``validate_fan``.

    It is written by hand, not as a NamedTuple, because a NamedTuple has no
    instance dict to hold the cached ``_hash``, which leaves out the names:
    without it every cache lookup would hash the whole fan again.
    """

    dim: int
    generators: tuple[RayGenerator, ...]
    max_cones: tuple[Cone, ...]

    def __init__(
        self,
        dim: int,
        generators: Iterable[RayGenerator],
        max_cones: Iterable[Cone],
    ) -> None:
        gens, cones = tuple(generators), tuple(sorted(map(tuple, max_cones)))
        self.__dict__.update(dim=dim, generators=gens, max_cones=cones)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a Fan")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a Fan")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Fan:
            return NotImplemented
        return (
            self.dim == other.dim
            and self.generators == other.generators
            and self.max_cones == other.max_cones
        )

    def names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.generators)

    def vectors(self) -> tuple[lattice.IntVector, ...]:
        return tuple(g.vector for g in self.generators)

    def index_of(self, name: str) -> int:
        for i, g in enumerate(self.generators):
            if g.name == name:
                return i
        raise UnknownRayError(f"no ray named {name!r}")

    def cone_names(self, cone: Cone) -> tuple[str, ...]:
        return tuple(self.generators[i].name for i in cone)

    def cone_vectors(self, cone: Cone) -> tuple[lattice.IntVector, ...]:
        gens = self.generators
        return tuple([gens[i].vector for i in cone])

    # computed once, for the caches keyed by fans; without the names, whose
    # str hashes vary by process, a pickled fan's cached hash stays valid
    @cached_property
    def _hash(self) -> int:
        return hash((self.dim, self.vectors(), self.max_cones))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (
            f"Fan(dim={self.dim}, rays={len(self.generators)}, "
            f"maxcones={len(self.max_cones)})"
        )


def make_fan(
    dim: int,
    generators: Iterable[tuple[str, Sequence[int]]],
    max_cones: Iterable[Iterable[int]],
) -> Fan:
    """Construct a Fan after structural checks (geometry is validate_fan's job)."""
    if type(dim) is not int or dim < 1:
        raise DimensionMismatchError("fan dimension must be a positive integer")
    gens: list[RayGenerator] = []
    taken: set[str] = set()
    for gen in generators:
        gens.append(_generator(dim, gen, taken))
        taken.add(gens[-1].name)
    return Fan(dim, gens, [_cone(dim, cone, len(gens)) for cone in max_cones])


def _generator(dim: int, gen, taken) -> RayGenerator:
    """One ray, checked: a (name, vector) pair whose name matches the name
    pattern and is not in ``taken``, with ``dim`` integer coordinates. The
    one rule for a ray of ``make_fan``, ``parse_fan`` and ``star_subdivide``."""
    try:
        name, vec = gen
    except (TypeError, ValueError):
        bad = f"generator {gen!r} is not a (name, vector) pair"
        raise FanSyntaxError(bad) from None
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise FanSyntaxError(f"invalid ray name {name!r}")
    if name in taken:
        raise DuplicateNameError(f"duplicate ray name {name!r}")
    bad = f"ray {name!r}: coordinates must be integers"
    v = lattice._integers(vec, FanSyntaxError, bad)
    if len(v) != dim:
        raise DimensionMismatchError(
            f"ray {name!r}: expected {dim} coordinates, got {len(v)}"
        )
    return RayGenerator(name, v)


def _cone(dim: int, cone, count: int) -> Cone:
    """One maximal cone as a sorted index tuple, checked: ``dim`` distinct
    integer indices into ``count`` rays. The one rule for a maximal cone of
    ``make_fan`` and ``parse_fan``."""
    bad = f"cone {cone!r}: ray index is not an integer"
    idx = tuple(sorted(lattice._integers(cone, UnknownRayError, bad)))
    for i in idx:
        if not 0 <= i < count:
            raise UnknownRayError(f"cone references ray index {i}")
    if len(set(idx)) != len(idx):
        raise FanSyntaxError(f"repeated ray in cone {idx}")
    if len(idx) != dim:
        raise DimensionMismatchError(
            f"maximal cone must have {dim} rays, got {len(idx)}"
        )
    return idx


def resolve_ray(fan: Fan, ray: int | str) -> int:
    """Ray index from a name or an index, with range checking."""
    if isinstance(ray, str):
        return fan.index_of(ray)
    bad = f"ray index {ray!r} is not an integer"
    (i,) = lattice._integers((ray,), UnknownRayError, bad)
    if not 0 <= i < len(fan.generators):
        raise UnknownRayError(f"no ray with index {i}")
    return i


def resolve_cone(fan: Fan, rays: Iterable[int | str]) -> Cone:
    """Sorted index tuple from a mix of ray names and indices."""
    if isinstance(rays, str) or not isinstance(rays, Iterable):  # a str is one name
        raise UnknownRayError(f"{rays!r} is not a collection of rays")
    rays = tuple(rays)  # the message reads them again
    idx = tuple(sorted(resolve_ray(fan, r) for r in rays))
    if len(set(idx)) != len(idx):
        raise UnknownRayError(f"repeated ray in {rays!r}")
    return idx


# ---------------------------------------------------------------------------
# fan file format


def parse_fan(text: str) -> Fan:
    """Parse the line-oriented fan file format.

    Format: a ``dim <n>`` line, then ``ray <name> <n integers>`` lines
    (order defines indices), then ``maxcone <name> ... <name>`` lines with
    exactly n names. Integers are ASCII decimal, ``[+-]?[0-9]+``.
    '#' starts a comment; blank lines are ignored; one leading byte-order
    mark is dropped. Only structural properties are checked here; run
    validate_fan for the geometric ones.

    The directives, the integer tokens and the name lookup are checked
    here; each ray and maximal cone then goes through the rule of
    ``make_fan`` (``_generator``, ``_cone``), and an error gets its line:
    ``line N:`` in front for a ``FanSyntaxError``, `` (line N)`` after
    for the others.
    """
    dim: int | None = None
    gens: list[RayGenerator] = []
    index: dict[str, int] = {}
    cones: list[Cone] = []
    lines = text.removeprefix("\ufeff").splitlines()  # a UTF-8 byte-order mark
    try:
        for lineno, raw in enumerate(lines, start=1):
            tokens = raw.split("#", 1)[0].split()
            if not tokens:
                continue
            kw = tokens[0]
            if kw == "dim":
                if dim is not None:
                    raise FanSyntaxError("duplicate 'dim' line")
                if len(tokens) != 2:
                    raise FanSyntaxError("expected 'dim <n>'")
                if not _INT_RE.match(tokens[1]):
                    raise FanSyntaxError("dimension must be an integer")
                dim = int(tokens[1])
                if dim < 1:
                    raise FanSyntaxError("dimension must be positive")
            elif dim is None and kw in ("ray", "maxcone"):
                raise FanSyntaxError(f"{kw!r} before 'dim'")
            elif kw == "ray":
                if cones:
                    raise FanSyntaxError("'ray' after 'maxcone'")
                name = tokens[1] if len(tokens) > 1 else ""
                # a token that is not ASCII decimal stays a str, which
                # _generator rejects as a non-integer coordinate
                vec = [int(c) if _INT_RE.match(c) else c for c in tokens[2:]]
                gens.append(_generator(dim, (name, vec), index))
                index[name] = len(index)
            elif kw == "maxcone":
                for nm in tokens[1:]:
                    if nm not in index:
                        raise UnknownRayError(f"maxcone references unknown ray {nm!r}")
                idx = [index[nm] for nm in tokens[1:]]
                cones.append(_cone(dim, idx, len(gens)))
            else:
                raise FanSyntaxError(f"unknown directive {kw!r}")
    except (FanParseError, DimensionMismatchError) as err:
        if isinstance(err, FanSyntaxError):
            raise FanSyntaxError(str(err), lineno) from None
        raise type(err)(f"{err} (line {lineno})") from None
    if dim is None:
        raise FanSyntaxError("missing 'dim' line")
    return Fan(dim, gens, cones)


def serialize_fan(fan: Fan) -> str:
    """Canonical text form: rays in input order, cones in ``max_cones``
    order, which ``Fan`` keeps sorted by index tuple."""
    lines = [f"dim {fan.dim}"]
    for g in fan.generators:
        lines.append("ray " + g.name + " " + " ".join(str(c) for c in g.vector))
    for cone in fan.max_cones:
        lines.append("maxcone " + " ".join(fan.cone_names(cone)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# validation


def _dual_rows(vectors: tuple[lattice.IntVector, ...]) -> tuple[lattice.IntVector, ...] | None:
    """Rows phi_i with phi_i(v_j) = delta_ij, or None when not unimodular:
    the inverse of the matrix whose columns are the v_j. A bool entry
    raises ``InvalidArgumentError`` before the cache is read, as True and 1
    are one key there."""
    for row in vectors:
        for x in row:
            if type(x) is bool:
                raise InvalidArgumentError("matrix entries must be integers")
    return _cached_dual_rows(vectors)


@lru_cache(maxsize=4096)
def _cached_dual_rows(vectors: tuple[lattice.IntVector, ...]) -> tuple[lattice.IntVector, ...] | None:
    try:
        return lattice.unimodular_inverse(tuple(zip(*vectors)))
    except ValueError:
        return None


def _cone_label(fan: Fan, cone: Cone) -> str:
    return "<" + ",".join(fan.cone_names(cone)) + ">"


def cones_meet_in_common_face(
    a_vecs: tuple[lattice.IntVector, ...], b_vecs: tuple[lattice.IntVector, ...]
) -> bool:
    """Whether two cones (given by generator vectors) intersect exactly in
    the cone spanned by their shared generators.

    ``validate_fan`` calls it only when its linear check fails, to name
    the offending pairs; the Fano enumerator needs no face check. Unless
    one cone is a face of the other, the exact feasibility solver searches
    for a common point with weight outside the shared generators.
    """
    shared = set(a_vecs) & set(b_vecs)
    if shared >= set(a_vecs) or shared >= set(b_vecs):
        return True  # one cone is a face of the other
    # overlap search: U x - V y = 0 with x, y >= 0 and the coordinates on
    # non-shared generators summing to 1
    n = len(a_vecs[0])
    rows = [[u[i] for u in a_vecs] + [-v[i] for v in b_vecs] for i in range(n)]
    rows.append(
        [1 if v not in shared else 0 for v in a_vecs]
        + [1 if v not in shared else 0 for v in b_vecs]
    )
    rhs = [0] * n + [1]
    return lattice.solve_eq_nonneg(rows, rhs) is None


def validate_fan(fan: Fan) -> ValidationReport:
    """Check smoothness, completeness and the face condition, with witnesses.

    smooth: every maximal cone's generators form a Z-basis.
    complete: every wall (codimension-1 face) lies in exactly two maximal
    cones and the wall-adjacency graph is connected. This alone does not
    force the support to be the whole space: the cycle (1,0) (-2,-1)
    (-1,-1) (-1,-2) (0,-1), cones r_i r_(i+1), passes and folds back over
    part of the plane. Together with faces_ok it does.
    faces_ok: every ray index of a maximal cone names a generator, no
    generator vector repeats, every generator is used, every maximal cone
    has ``dim`` rays and lists their indices strictly increasing (the form
    ``Cone`` promises and every reader of the cones assumes) and any two
    maximal cones intersect in the cone of their shared rays.

    ``_walk`` decides all three in one walk over the walls, which inverts
    the first cone only and carries its dual rows across each wall: the
    cones' indices are exactly those of the generators, which are distinct,
    each cone has n indices, strictly increasing, each wall lies in two
    cones, (a) on opposite sides of it with the cone across unimodular, the
    walk reaches every cone, so every cone is unimodular, and (b) x0, the
    sum of the first cone's generators, lies in no other cone. By (a),
    crossing a wall off the (n-2)-skeleton swaps one cone for one, so every
    generic point lies in the same number d of cones (n >= 2; for n = 1, (a)
    alone forces the rays 1 and -1). As x0 is interior to the first cone,
    (b) makes d = 1, and as each component of the wall-adjacency graph adds
    at least 1 to d, the graph is connected. The same count in the quotient
    by a face F shows that the cones containing F cover a neighbourhood of
    relint F. So if x lies in cones s and s', with x in relint F for a face
    F of s, the generic points of s' near x lie in a cone containing F,
    which can only be s'; F is then the face of s' holding x, and every pair
    meets in the cone of its shared rays.

    Only a fan ``_walk`` rejects is examined further. Its witnesses go into
    three lists, one per condition, and each flag says that its list is
    empty. A cone with a ray index out of range is named by its index
    tuple under faces_ok, and one with other than ``dim`` rays by its rays;
    both are left out of every other check. A cone is
    smooth when its determinant (``lattice.determinant``) is 1 or -1. The
    wall counts and the connectivity walk read the wall map of
    ``_wall_owners``, the one ``_walk`` reads; the walk counts the cones it
    reaches by occurrence, so a repeated maximal cone counts as often as it
    appears. Every pair of cones is tested with
    ``cones_meet_in_common_face``, by the exact LP, and each failure is
    named.
    """
    if _wall_pass(fan) is not None:
        return ValidationReport(True, True, True, ())
    rays, n = len(fan.generators), fan.dim
    faces, kept = [], []
    for cone in fan.max_cones:
        if not all(0 <= i < rays for i in cone):
            faces.append(f"maximal cone {cone} has a ray index out of range")
        elif len(cone) != n:
            faces.append(
                f"maximal cone {_cone_label(fan, cone)} has {len(cone)} rays,"
                f" expected {n}"
            )
        else:
            kept.append(cone)
    cones = tuple(kept)
    smooth = [
        f"maximal cone {_cone_label(fan, cone)} has determinant {det}"
        for cone in cones
        if (det := lattice.determinant(fan.cone_vectors(cone))) not in (1, -1)
    ]
    owners = _wall_owners(cones)
    complete = [
        f"wall {_cone_label(fan, wall)} lies in {len(sides)} maximal"
        " cone(s), expected 2"
        for wall, sides in sorted(owners.items())
        if len(sides) != 2
    ]
    if not cones:
        complete.append("fan has no maximal cones")
    elif not complete:
        reached = {cones[0]}
        frontier = [cones[0]]
        while frontier:
            for wall in combinations(frontier.pop(), fan.dim - 1):
                for cone, _ in owners[wall]:
                    if cone not in reached:
                        reached.add(cone)
                        frontier.append(cone)
        count = sum(cone in reached for cone in cones)
        if count != len(cones):
            complete.append(
                "wall-adjacency graph is disconnected"
                f" ({count} of {len(cones)} cones reached)"
            )

    first: dict[lattice.IntVector, int] = {}
    for i, g in enumerate(fan.generators):
        j = first.setdefault(g.vector, i)
        if j != i:
            faces.append(
                f"generators {fan.generators[j].name} and {g.name} share the"
                f" vector {g.vector}"
            )
    used = {i for cone in cones for i in cone}
    faces += [
        f"generator {g.name} lies in no maximal cone"
        for i, g in enumerate(fan.generators)
        if i not in used
    ]
    faces += [
        f"maximal cone {_cone_label(fan, cone)} does not list its rays in"
        " strictly increasing index order"
        for cone in cones
        if not all(map(lt, cone, cone[1:]))
    ]
    for a, b in combinations(cones, 2):
        if a == b:
            faces.append(f"maximal cone {_cone_label(fan, a)} appears more than once")
        elif not cones_meet_in_common_face(fan.cone_vectors(a), fan.cone_vectors(b)):
            faces.append(
                f"cones {_cone_label(fan, a)} and {_cone_label(fan, b)}"
                " do not intersect in a common face"
            )
    return ValidationReport(
        not smooth, not complete, not faces, tuple(smooth + complete + faces)
    )


def _wall_owners(cones) -> dict:
    """wall -> [(cone, k), ...] over the cones holding it, k the position
    of the cone's ray off the wall; cones are sorted tuples of ray indices
    or of vectors."""
    owners: dict = {}
    for cone in cones:
        k = len(cone)
        for wall in combinations(cone, k - 1):  # drops the last ray first
            k -= 1
            owners.setdefault(wall, []).append((cone, k))
    return owners


def _cone_duals(fan: Fan) -> tuple:
    """The dual rows of every maximal cone of a fan ``wall_classes``
    accepts, in ``max_cones`` order: the one table of the fan's dual rows,
    which ``locate_relint``, ``_coarse_mask`` and ``_normal_forms`` read,
    from the cached pass behind ``wall_classes``."""
    return _wall_pass(fan)[1]


@lru_cache(maxsize=4096)
def _wall_pass(fan: Fan) -> tuple | None:
    """``_walk``, cached per fan (``lru_cache``, 4096 fans)."""
    return _walk(fan)


def _exchange(rows: tuple, k: int, coeffs, j: int) -> tuple:
    """The dual rows of the cone across the wall that drops position ``k``
    of the cone of dual rows ``rows``: phi_i + a_i * phi_p on the rays of
    the wall, in order, and -phi_p on the new apex q, at position ``j``,
    where phi_p = rows[k] and ``coeffs`` lists a_i = phi_i(q) for the
    other rows."""
    p = rows[k]
    new = [
        tuple([x + a * y for x, y in zip(row, p)]) if a else row
        for row, a in zip(rows[:k] + rows[k + 1 :], coeffs)
    ]
    new.insert(j, tuple([-y for y in p]))
    return tuple(new)


def _walk(fan: Fan) -> tuple | None:
    """(the sorted classes of the walls, the dual rows of each cone in
    ``max_cones`` order) when the one-pass test of ``validate_fan`` accepts
    the fan, else None.

    The wall between maximal cones sigma and sigma' with apexes p and q
    gives p + q = sum(a_i * u_i), the class +1 on p and q and -a_i on the
    u_i, of degree 2 - sum(a_i). The a_i are the coordinates of q in the
    dual rows phi of sigma, and its coordinate a_p on p is -1 exactly when
    sigma' is unimodular, as det(u, q) = a_p * det(u, p), and on the other
    side of the wall, test (a). Then sigma' has the dual rows
    phi_i + a_i * phi_p on the u_i and -phi_p on q (``_exchange``, which
    the Fano search also carries its rows by). The walk starts at the first
    cone, whose rows come from ``_dual_rows``, and reads each wall once,
    from the owner it reaches first; a fan whose walls all pass (a) and
    whose walk reaches every cone has every cone unimodular. Each cone
    reached is tested against x0 for (b) as its rows are made. Before the
    walk, a fan is rejected whose cones' indices are not exactly those of
    its generators (no cone, an unused ray or an index out of range), whose
    generator vectors repeat or one of whose cones does not have ``dim``
    indices listed strictly increasing: the first cone's inverse needs a
    square matrix, and the wall map and every reader of the cones assume
    that order.
    """
    cones, vectors = fan.max_cones, fan.vectors()
    if not cones or set().union(*cones) != set(range(len(vectors))):
        return None
    if len(set(vectors)) != len(vectors):
        return None
    n = fan.dim
    if not all([len(cone) == n and all(map(lt, cone, cone[1:])) for cone in cones]):
        return None  # a cone of the wrong length, or not strictly increasing
    queue = [cones[0]]
    duals = {cones[0]: _dual_rows(fan.cone_vectors(cones[0]))}
    if duals[cones[0]] is None:
        return None
    x0 = tuple(map(sum, zip(*fan.cone_vectors(cones[0]))))
    owners = _wall_owners(cones)
    classes = set()
    for cone in queue:
        rows = duals[cone]
        k = len(cone)
        for wall in combinations(cone, k - 1):  # as _wall_owners orders them
            k -= 1
            sides = owners.pop(wall, None)  # None once read from the other side
            if sides is None:
                continue
            if len(sides) != 2:
                return None
            other, j = sides[sides[0][0] is cone]  # the owner that is not cone
            # a dual row has as many entries as the vectors it inverts, so every
            # dot in this module skips lattice.dot's length check
            coeffs = [sum(map(mul, row, vectors[other[j]])) for row in rows]
            if coeffs.pop(k) != -1:
                return None  # (a), or sigma' is not unimodular
            entries = [0] * len(vectors)
            entries[cone[k]] = entries[other[j]] = 1
            for i, a in zip(wall, coeffs):
                entries[i] = -a
            classes.add(tuple(entries))
            if other not in duals:
                new = _exchange(rows, k, coeffs, j)
                if all(sum(map(mul, row, x0)) >= 0 for row in new):
                    return None  # (b): x0, interior to the first cone, lies in another
                duals[other] = new
                queue.append(other)
    if len(queue) != len(cones):
        return None  # a cone the walk does not reach, or one listed twice
    return tuple(sorted(classes)), tuple(map(duals.__getitem__, cones))


def wall_classes(fan: Fan) -> tuple[tuple[int, ...], ...]:
    """The curve class of every wall, without duplicates, sorted, from the
    cached pass ``_wall_pass``. This is the one validity gate of the
    package: contraction, the blow-down tools, the relation table, the Mori
    cone, the wall verdicts, refinement and the isomorphism queries call it
    before any other work, so a fan that ``validate_fan`` rejects raises
    ``InternalInconsistencyError``, with no LP run."""
    walk = _wall_pass(fan)
    if walk is None:
        raise InternalInconsistencyError(f"{fan!r} fails validate_fan")
    return walk[0]


# ---------------------------------------------------------------------------
# geometry queries


def locate_relint(
    fan: Fan, point: Sequence[int]
) -> tuple[Cone, tuple[int, ...]]:
    """The unique cone holding ``point`` in its relative interior.

    Returns the cone as an index tuple together with the strictly positive
    integer coefficients over its generators; the zero vector yields the
    zero cone with no coefficients. ``wall_classes`` checks the fan before
    the point is read. ``mori.primitive_relations`` builds the relation
    table by placing each primitive collection's sum here; the single
    relation, ``mori.primitive_relation``, reads that table and locates
    nothing.

    The answer is the face of the first maximal cone whose dual rows, read
    from the fan's table ``_cone_duals``, are all >= 0 on the point. By the
    argument of ``validate_fan`` a valid fan is complete, so some maximal
    cone holds the point, and any two maximal cones meet in the cone of
    their shared rays, so every cone holding it names the same face.
    """
    wall_classes(fan)  # the check only; the classes are not read
    bad = "point: coordinates must be integers"
    pt = lattice._integers(point, FanSyntaxError, bad)
    if len(pt) != fan.dim:
        raise DimensionMismatchError(
            f"point has {len(pt)} coordinates in a dim-{fan.dim} fan"
        )
    for cone, rows in zip(fan.max_cones, _cone_duals(fan)):
        coords = []
        for row in rows:
            coords.append(sum(map(mul, row, pt)))
            if coords[-1] < 0:  # most cones miss the point at an early row
                break
        else:
            face = tuple(i for i, c in zip(cone, coords) if c > 0)
            return face, tuple(c for c in coords if c > 0)


def cone_in_fan(fan: Fan, cone: Cone) -> bool:
    """Whether the index set spans a cone of the fan (a face of a maximal cone)."""
    s = set(cone)
    return any(s <= set(mc) for mc in fan.max_cones)


# ---------------------------------------------------------------------------
# blow-up / blow-down


def _auto_name(taken: Iterable[str]) -> str:
    names = set(taken)
    k = 0
    while f"e{k}" in names:
        k += 1
    return f"e{k}"


def star_subdivide(
    fan: Fan, center: Iterable[int | str], new_name: str | None = None
) -> Fan:
    """Star subdivision at a cone: the combinatorial equivariant blow-up.

    A new ray is inserted at the sum of the center's generator vectors
    (primitive automatically when the fan is smooth), and every maximal
    cone containing the center is split into |center| cones, each obtained
    by swapping one center ray for the new one. Without an explicit name
    the next unused e<k> is chosen.
    """
    cidx = resolve_cone(fan, center)
    if len(cidx) < 2:
        raise CenterTooSmallError(
            "subdivision center needs at least 2 rays"
            " (a single ray gives the identity)"
        )
    if not cone_in_fan(fan, cidx):
        raise CenterNotInFanError(
            f"{_cone_label(fan, cidx)} is not a cone of the fan"
        )
    names = fan.names()
    name = new_name if new_name is not None else _auto_name(names)
    if name in names:
        raise NameCollisionError(f"ray name {name!r} already in use")
    # the name is checked against the fan's above; _generator checks its form
    new_vec = tuple(map(sum, zip(*fan.cone_vectors(cidx))))
    gen = _generator(fan.dim, (name, new_vec), ())
    new_index = len(fan.generators)
    cset = set(cidx)
    cones = []
    for mc in fan.max_cones:
        if cset <= set(mc):
            # the new index is the largest, so each piece stays sorted
            cones += [tuple(j for j in mc if j != i) + (new_index,) for i in cidx]
        else:
            cones.append(mc)
    return Fan(fan.dim, fan.generators + (gen,), cones)


def contract_ray(
    fan: Fan,
    ray: int | str,
    collection: Iterable[int | str],
) -> Fan:
    """Blow down the divisor of ``ray`` onto the cone of ``collection``: the
    inverse of star subdivision.

    The collection's vectors must sum to the ray's vector; for a primitive
    collection x1..xh that is the relation x1+...+xh = ray. Which relations
    of a fan have that shape, and which one a bare ray contracts by, is
    decided in ``birational``. The contraction is valid when every maximal
    cone containing the ray contains exactly h-1 of the x_i. ``fan`` must be
    valid: ``wall_classes`` checks it before the arguments are read (a
    cached wall pass, made already when the fan came from
    ``birational.blow_down_candidates`` or the CLI). The arguments are then
    resolved and their sum checked, and ``_contract``, the step that
    ``birational._candidates`` calls on indices it has resolved,
    builds the result or names the cones that break the star condition,
    which this function raises as ``StarConditionViolatedError``.

    The result needs no check (Sato, *Tohoku Math. J.* 52 (2000)). Let P be
    the collection and x the ray. A maximal cone on x is {x} + P - x_i + t,
    t a set of rays off P. Its wall that drops x_j lies in exactly one other
    maximal cone, which holds x and so h-1 rays of P: it must be
    {x} + P - x_j + t. So each t comes with all h cones. As x = x1+...+xh,
    they subdivide the cone P + t, which is unimodular as they are
    (replacing x_i by x keeps the determinant). So the merged cones are
    smooth and cover what the cones on x covered, and a merged cone meets
    every other cone of the result in the cone of their shared rays, since
    each of its h pieces does.
    """
    wall_classes(fan)  # the check only; the classes are not read
    ridx = resolve_ray(fan, ray)
    cidx = resolve_cone(fan, collection)
    total = tuple(sum(col) for col in zip(*fan.cone_vectors(cidx)))
    # a collection holding the ray itself would put it back into every cone
    if ridx in cidx or total != fan.generators[ridx].vector:
        raise NoBlowdownRelationError(
            f"no relation of the shape x1+...+xh = {fan.generators[ridx].name}"
            " with the requested collection"
        )
    target = _contract(fan, ridx, cidx)
    if type(target) is Fan:
        return target
    names = ",".join(fan.cone_names(cidx))
    raise StarConditionViolatedError(
        f"cannot contract {fan.generators[ridx].name} via {{{names}}}:"
        f" cone {_cone_label(fan, target[0])} does not contain exactly"
        f" {len(cidx) - 1} collection rays",
        witnesses=target,
    )


def _contract(fan: Fan, x: int, collection: Cone) -> Fan | tuple[Cone, ...]:
    """The step of ``contract_ray`` on a valid fan and resolved indices, the
    collection's vectors summing to ray x's: the target fan, or every
    maximal cone that breaks the star condition. A cone off x only has its
    indices past x shifted down; the h cones on x that share a set t of
    rays off the collection merge into one, built from the one that misses
    the collection's first ray (``contract_ray`` shows that all h exist)."""
    cset, first = set(collection), collection[0]
    kept, bad = [], []
    for mc in fan.max_cones:
        if x not in mc:
            kept.append(mc if mc[-1] < x else tuple([i - (i > x) for i in mc]))
        elif len(cset.intersection(mc)) != len(cset) - 1:
            bad.append(mc)
        elif not bad and first not in mc:
            kept.append(tuple(sorted([i - (i > x) for i in cset.union(mc) if i != x])))
    if bad:
        return tuple(bad)
    return Fan(fan.dim, fan.generators[:x] + fan.generators[x + 1 :], kept)


# ---------------------------------------------------------------------------
# refinement and isomorphism


def refines(fine: Fan, coarse: Fan) -> bool:
    """True iff every maximal cone of ``fine`` lies in some cone of ``coarse``.

    Both fans must be valid: ``wall_classes`` checks each before any other
    work. A cone lies in a convex cone iff its generators do, so a fine cone
    lies in the coarse fan iff the AND of its rays' ``_ray_masks`` is
    non-zero. It shares the mask cache of ``_ray_masks`` with
    ``birational.factor_morphism``.
    """
    for f in (fine, coarse):
        wall_classes(f)  # the check only; the classes are not read
    return _masks_cover(fine, _ray_masks(fine, coarse))


def _ray_masks(fine: Fan, coarse: Fan) -> dict[lattice.IntVector, int]:
    """Each fine generator vector -> bitmask of the coarse maximal cones
    holding it, bit i for ``coarse.max_cones[i]``, for a ``coarse`` that
    ``wall_classes`` accepts. Each vector's mask is read from a cache keyed
    by (coarse, vector), ``_coarse_mask``, so calls onto one coarse fan,
    such as the factorizations of many fine fans onto P^n, test each vector
    against the coarse cones once."""
    if fine.dim != coarse.dim:
        raise DimensionMismatchError(
            f"cannot compare fans of dimension {fine.dim} and {coarse.dim}"
        )
    return {v: _coarse_mask(coarse, v) for v in fine.vectors()}


@lru_cache(maxsize=4096)
def _coarse_mask(coarse: Fan, v: lattice.IntVector) -> int:
    """The bitmask of the maximal cones of ``coarse`` holding ``v``, by the
    signs of their dual rows. Cached (``lru_cache``, 4096 pairs of a fan and
    a vector)."""
    mask = 0
    for bit, dual in enumerate(_cone_duals(coarse)):
        if all(sum(map(mul, row, v)) >= 0 for row in dual):
            mask |= 1 << bit
    return mask


def _masks_cover(fan: Fan, masks: dict[lattice.IntVector, int]) -> bool:
    """Does each maximal cone of ``fan`` (whose rays are among the masked
    vectors) lie in one coarse cone?"""
    ray_masks = [masks[g.vector] for g in fan.generators]
    for mc in fan.max_cones:
        common = -1
        for i in mc:
            common &= ray_masks[i]
        if not common:
            return False
    return True


def _vector_part(vectors: Iterable[lattice.IntVector]) -> tuple:
    """The sorted generator vectors, the entry of ``_key`` after the
    dimension; cheap beside the cone part, as no cone is relabeled."""
    return tuple(sorted(vectors))


def _key(dim: int, vectors: Sequence[lattice.IntVector], cones: Iterable[Cone]):
    """(dim, vector part, cone part): ``_vector_part(vectors)``, then the
    cones relabeled by the sorted positions. Keys compare lexicographically,
    so between keys of one dimension the vector parts decide and the cone
    part only breaks their ties; relabeling every cone is the costly part,
    so callers build the whole key only for a tie."""
    order = sorted(range(len(vectors)), key=lambda i: vectors[i])
    pos = {old: new for new, old in enumerate(order)}
    return (
        dim,
        tuple(vectors[i] for i in order),
        tuple(sorted(tuple(sorted(pos[i] for i in cone)) for cone in cones)),
    )


def _normal_forms(fan: Fan):
    """(images, columns, inverse) for each ordering of each maximal cone's
    rays, cones in max_cones order, of a fan ``wall_classes`` accepts:
    ``columns`` holds the ordered basis, ``inverse`` sends it to the
    standard basis and ``images`` lists the generators moved by ``inverse``,
    in generator order. The form's structural key is
    ``_key(fan.dim, images, fan.max_cones)``; ``fan_isomorphism`` and
    ``canonical_gl_key`` compare ``_vector_part(images)`` first and build
    that key only on a tie.
    """
    for cone, dual in zip(fan.max_cones, _cone_duals(fan)):
        basis = fan.cone_vectors(cone)
        coords = [tuple(sum(map(mul, row, v)) for row in dual) for v in fan.vectors()]
        # reordering the basis reorders the rows of its inverse, and with
        # them the coordinates of every generator
        for order in permutations(range(fan.dim)):
            yield (
                [tuple(c[i] for i in order) for c in coords],
                tuple(zip(*(basis[i] for i in order))),
                tuple(dual[i] for i in order),
            )


def fan_isomorphism(a: Fan, b: Fan):
    """A GL(n,Z) matrix mapping a's generators and cones onto b's, or None.

    Both fans must be valid: ``wall_classes`` checks each before any other
    work. The first normal form of ``a`` (its first maximal cone, rays in
    the given order) is looked up among the normal forms of ``b``: a form
    whose vector part differs is passed over, and the cone part is compared
    only when the vector parts agree. On a match the map is b's basis
    columns times a's inverse, which carries a's generators and maximal
    cones onto b's. The matrix acts on column vectors.
    """
    for f in (a, b):
        wall_classes(f)  # the check only; the classes are not read
    if (
        a.dim != b.dim
        or len(a.generators) != len(b.generators)
        or len(a.max_cones) != len(b.max_cones)
    ):
        return None
    images, _, inverse = next(_normal_forms(a))
    key = _key(a.dim, images, a.max_cones)
    for other, columns, _ in _normal_forms(b):
        if _vector_part(other) == key[1] and _key(b.dim, other, b.max_cones) == key:
            return tuple(
                tuple(sum(map(mul, row, col)) for col in zip(*inverse))
                for row in columns
            )
    return None


def structural_key(fan: Fan):
    """Name-independent canonical key: lexicographically sorted generator
    vectors with cones relabeled accordingly. Equal keys mean equal fans
    as sets of cones in the fixed lattice (names and ray order ignored)."""
    return _key(fan.dim, fan.vectors(), fan.max_cones)


def structurally_equal(a: Fan, b: Fan) -> bool:
    return structural_key(a) == structural_key(b)


def canonical_gl_key(fan: Fan):
    """Canonical form under GL(n,Z): the least structural key over all
    normal forms, i.e. over all maps sending an ordered maximal cone onto
    the standard basis. ``wall_classes`` checks the fan first.
    ``fan_isomorphism`` matches normal forms of the same kind, so two valid
    fans get equal keys iff isomorphic.

    The least key has the least vector part, so the cone parts are built
    only for the forms that tie on it: 4 of the 408 forms of paper-Y.
    """
    wall_classes(fan)  # the check only; the classes are not read
    forms = [(_vector_part(images), images) for images, _, _ in _normal_forms(fan)]
    least = min(vectors for vectors, _ in forms)
    return min(
        _key(fan.dim, images, fan.max_cones)
        for vectors, images in forms
        if vectors == least
    )
