"""Fan data model for smooth complete toric varieties.

A fan is stored combinatorially: named primitive ray generators plus the
maximal cones as index tuples. This module covers parsing/serialization,
geometric validation, relative-interior location, star subdivision
(equivariant blow-up), ray contraction (blow-down), refinement testing and
GL(n,Z) fan isomorphism. Fans are immutable values; every operation is a
pure function.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable, Sequence

from . import lattice
from .errors import (
    CenterNotInFanError,
    CenterTooSmallError,
    DimensionMismatchError,
    DuplicateNameError,
    FanSyntaxError,
    InternalInconsistencyError,
    NameCollisionError,
    NoBlowdownRelationError,
    ResultInvalidError,
    StarConditionViolatedError,
    UnknownRayError,
)

Cone = tuple[int, ...]  # strictly increasing ray indices
ZERO_CONE: Cone = ()

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT_RE = re.compile(r"[+-]?[0-9]+\Z")


@dataclass(frozen=True)
class RayGenerator:
    """A 1-dimensional cone: a name plus its primitive lattice vector."""

    name: str
    vector: lattice.IntVector


@dataclass(frozen=True)
class ValidationReport:
    smooth: bool
    complete: bool
    faces_ok: bool
    witnesses: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.smooth and self.complete and self.faces_ok


@dataclass(frozen=True, repr=False)
class Fan:
    """A fan in Z^dim: ray generators and maximal cones of full dimension."""

    dim: int
    generators: tuple[RayGenerator, ...]
    max_cones: tuple[Cone, ...]

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
        return tuple(self.generators[i].vector for i in cone)

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
    gens = []
    seen = set()
    for gen in generators:
        try:
            name, vec = gen
        except (TypeError, ValueError):
            bad = f"generator {gen!r} is not a (name, vector) pair"
            raise FanSyntaxError(bad) from None
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise FanSyntaxError(f"invalid ray name {name!r}")
        if name in seen:
            raise DuplicateNameError(f"duplicate ray name {name!r}")
        seen.add(name)
        bad = f"ray {name!r}: coordinates must be integers"
        v = lattice._integers(vec, FanSyntaxError, bad)
        if len(v) != dim:
            raise DimensionMismatchError(
                f"ray {name!r}: expected {dim} coordinates, got {len(v)}"
            )
        gens.append(RayGenerator(name, v))
    cones = []
    for cone in max_cones:
        bad = f"cone {cone!r}: ray index is not an integer"
        idx = tuple(sorted(lattice._integers(cone, UnknownRayError, bad)))
        for i in idx:
            if not 0 <= i < len(gens):
                raise UnknownRayError(f"cone references ray index {i}")
        if len(set(idx)) != len(idx):
            raise FanSyntaxError(f"repeated ray in cone {idx}")
        if len(idx) != dim:
            raise DimensionMismatchError(
                f"maximal cone must have {dim} rays, got {len(idx)}"
            )
        cones.append(idx)
    return Fan(dim, tuple(gens), tuple(sorted(cones)))


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
    '#' starts a comment; blank lines are ignored.
    Only structural properties are checked here; run validate_fan for the
    geometric ones.
    """
    dim: int | None = None
    rays: list[tuple[str, tuple[int, ...]]] = []
    index: dict[str, int] = {}
    cones: list[list[int]] = []
    seen_maxcone = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kw = tokens[0]
        if kw == "dim":
            if dim is not None:
                raise FanSyntaxError("duplicate 'dim' line", lineno)
            if len(tokens) != 2:
                raise FanSyntaxError("expected 'dim <n>'", lineno)
            if not _INT_RE.match(tokens[1]):
                raise FanSyntaxError("dimension must be an integer", lineno)
            dim = int(tokens[1])
            if dim < 1:
                raise FanSyntaxError("dimension must be positive", lineno)
        elif kw == "ray":
            if dim is None:
                raise FanSyntaxError("'ray' before 'dim'", lineno)
            if seen_maxcone:
                raise FanSyntaxError("'ray' after 'maxcone'", lineno)
            if len(tokens) < 2 or not _NAME_RE.match(tokens[1]):
                raise FanSyntaxError("expected 'ray <name> <coordinates>'", lineno)
            name = tokens[1]
            if name in index:
                raise DuplicateNameError(
                    f"duplicate ray name {name!r} (line {lineno})"
                )
            coords = tokens[2:]
            if len(coords) != dim:
                raise DimensionMismatchError(
                    f"ray {name!r}: expected {dim} coordinates, got"
                    f" {len(coords)} (line {lineno})"
                )
            if not all(_INT_RE.match(c) for c in coords):
                raise FanSyntaxError(
                    f"ray {name!r}: coordinates must be integers", lineno
                )
            vec = tuple(int(c) for c in coords)
            index[name] = len(rays)
            rays.append((name, vec))
        elif kw == "maxcone":
            if dim is None:
                raise FanSyntaxError("'maxcone' before 'dim'", lineno)
            seen_maxcone = True
            cnames = tokens[1:]
            for nm in cnames:
                if nm not in index:
                    raise UnknownRayError(
                        f"maxcone references unknown ray {nm!r} (line {lineno})"
                    )
            if len(cnames) != dim:
                raise DimensionMismatchError(
                    f"maxcone must list exactly {dim} rays, got"
                    f" {len(cnames)} (line {lineno})"
                )
            if len(set(cnames)) != len(cnames):
                raise FanSyntaxError("repeated ray in maxcone", lineno)
            cones.append([index[nm] for nm in cnames])
        else:
            raise FanSyntaxError(f"unknown directive {kw!r}", lineno)
    if dim is None:
        raise FanSyntaxError("missing 'dim' line")
    return make_fan(dim, rays, cones)


def serialize_fan(fan: Fan) -> str:
    """Canonical text form: rays in input order, cones sorted by index tuple."""
    lines = [f"dim {fan.dim}"]
    for g in fan.generators:
        lines.append("ray " + g.name + " " + " ".join(str(c) for c in g.vector))
    for cone in sorted(fan.max_cones):
        lines.append("maxcone " + " ".join(fan.cone_names(cone)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# validation


@lru_cache(maxsize=65536)
def _dual_rows(vectors: tuple[lattice.IntVector, ...]) -> tuple[lattice.IntVector, ...] | None:
    """Rows phi_i with phi_i(v_j) = delta_ij, or None when not unimodular."""
    try:
        inv = lattice.unimodular_inverse(vectors)
    except ValueError:
        return None
    n = len(vectors)
    return tuple(tuple(inv[r][i] for r in range(n)) for i in range(n))


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
    faces_ok: no generator vector repeats, every generator is used and any
    two maximal cones intersect in the cone of their shared rays.

    ``_walls`` decides all three in one pass over the walls: the cones are
    unimodular, the generators distinct and used, each wall in two cones,
    (a) on opposite sides of it, and (b) x0, the sum of the first cone's
    generators, in no other cone. By (a), crossing a wall off the
    (n-2)-skeleton swaps one cone for one, so every generic point lies in
    the same number d of cones (n >= 2; for n = 1, (a) alone forces the rays
    1 and -1). As x0 is interior to the first cone, (b) makes d = 1, and as
    each component of the wall-adjacency graph adds at least 1 to d, the
    graph is connected. The same count in the quotient by a face F shows
    that the cones containing F cover a neighbourhood of relint F. So if x
    lies in cones s and s', with x in relint F for a face F of s, the
    generic points of s' near x lie in a cone containing F, which can only
    be s'; F is then the face of s' holding x, and every pair meets in the
    cone of its shared rays. Otherwise every pair of cones is tested with
    ``cones_meet_in_common_face``, by the exact LP, and each failure is
    named.
    """
    if _walls(fan) is not None:
        return ValidationReport(True, True, True, ())
    witnesses: list[str] = []

    smooth = True
    for cone in fan.max_cones:
        vectors = fan.cone_vectors(cone)
        if _dual_rows(vectors) is None:
            smooth = False
            witnesses.append(
                f"maximal cone {_cone_label(fan, cone)} has determinant"
                f" {lattice.determinant(vectors)}"
            )

    complete = True
    if not fan.max_cones:
        complete = False
        witnesses.append("fan has no maximal cones")
    else:
        owners: dict[Cone, list[int]] = {}
        for ci, cone in enumerate(fan.max_cones):
            for wall in combinations(cone, fan.dim - 1):
                owners.setdefault(wall, []).append(ci)
        for wall, cones in sorted(owners.items()):
            if len(cones) != 2:
                complete = False
                witnesses.append(
                    f"wall {_cone_label(fan, wall)} lies in {len(cones)} maximal"
                    " cone(s), expected 2"
                )
        if complete and len(fan.max_cones) > 1:
            reached = {0}
            frontier = [0]
            while frontier:
                for wall in combinations(fan.max_cones[frontier.pop()], fan.dim - 1):
                    for j in owners[wall]:
                        if j not in reached:
                            reached.add(j)
                            frontier.append(j)
            if len(reached) != len(fan.max_cones):
                complete = False
                witnesses.append(
                    "wall-adjacency graph is disconnected"
                    f" ({len(reached)} of {len(fan.max_cones)} cones reached)"
                )

    faces_ok = True
    seen_vectors: dict[lattice.IntVector, str] = {}
    for g in fan.generators:
        if g.vector in seen_vectors:
            faces_ok = False
            witnesses.append(
                f"generators {seen_vectors[g.vector]} and {g.name} share the"
                f" vector {g.vector}"
            )
        else:
            seen_vectors[g.vector] = g.name
    used = set()
    for cone in fan.max_cones:
        used.update(cone)
    for i, g in enumerate(fan.generators):
        if i not in used:
            faces_ok = False
            witnesses.append(f"generator {g.name} lies in no maximal cone")
    for ai, bi in combinations(range(len(fan.max_cones)), 2):
        a, b = fan.max_cones[ai], fan.max_cones[bi]
        if a == b:
            faces_ok = False
            witnesses.append(
                f"maximal cone {_cone_label(fan, a)} appears more than once"
            )
            continue
        if not cones_meet_in_common_face(fan.cone_vectors(a), fan.cone_vectors(b)):
            faces_ok = False
            witnesses.append(
                f"cones {_cone_label(fan, a)} and {_cone_label(fan, b)}"
                " do not intersect in a common face"
            )

    return ValidationReport(smooth, complete, faces_ok, tuple(witnesses))


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


@lru_cache(maxsize=16)
def _walls(fan: Fan) -> tuple[tuple[int, ...], ...] | None:
    """The curve class of every wall, without duplicates, sorted, when the
    one-pass test of ``validate_fan`` accepts the fan, else None.

    The wall between maximal cones sigma and sigma' with apexes p and q
    gives p + q = sum(a_i * u_i), the class +1 on p and q and -a_i on the
    u_i, of degree 2 - sum(a_i). The coordinates of q in the dual rows of
    sigma are the a_i, and -1 on p exactly when the two unimodular cones
    lie on opposite sides of the wall, test (a). Cached for 16 fans, so
    that ``contract_ray``'s check of its input reuses the pass of
    ``birational.blow_down_candidates`` on the same fan, and a target the
    search steps into gets one pass for its flags and its candidates."""
    duals = {cone: _dual_rows(fan.cone_vectors(cone)) for cone in fan.max_cones}
    vectors = fan.vectors()
    used = {i for cone in duals for i in cone}
    if None in duals.values() or not 0 < len(used) == len(set(vectors)) == len(vectors):
        return None
    classes = set()
    for wall, sides in _wall_owners(fan.max_cones).items():
        if len(sides) != 2:
            return None
        (cone, k), (other, j) = sides
        coeffs = [lattice.dot(row, vectors[other[j]]) for row in duals[cone]]
        if coeffs.pop(k) >= 0:
            return None  # (a): both cones on one side of the wall
        entries = [0] * len(vectors)
        entries[cone[k]] = entries[other[j]] = 1
        for i, a in zip(wall, coeffs):
            entries[i] = -a
        classes.add(tuple(entries))
    first, *others = fan.max_cones
    x0 = tuple(map(sum, zip(*fan.cone_vectors(first))))
    if any(all(lattice.dot(r, x0) >= 0 for r in duals[c]) for c in others):
        return None  # (b): x0, interior to the first cone, lies in another
    return tuple(sorted(classes))


# ---------------------------------------------------------------------------
# geometry queries


def locate_relint(
    fan: Fan, point: Sequence[int]
) -> tuple[Cone, tuple[int, ...]]:
    """The unique cone holding ``point`` in its relative interior.

    Returns the cone as an index tuple together with the strictly positive
    integer coefficients over its generators; the zero vector yields the
    zero cone with no coefficients. Requires a valid complete fan.
    """
    bad = "point: coordinates must be integers"
    pt = lattice._integers(point, FanSyntaxError, bad)
    if len(pt) != fan.dim:
        raise DimensionMismatchError(
            f"point has {len(pt)} coordinates in a dim-{fan.dim} fan"
        )
    if not any(pt):
        return ZERO_CONE, ()
    answers = set()
    for cone in fan.max_cones:
        dual = _dual_rows(fan.cone_vectors(cone))
        if dual is None:
            raise InternalInconsistencyError(
                f"maximal cone {_cone_label(fan, cone)} is not unimodular"
            )
        coords = []
        for row in dual:  # most cones miss the point at an early row
            coords.append(lattice.dot(row, pt))
            if coords[-1] < 0:
                break
        else:
            face = tuple(i for i, c in zip(cone, coords) if c > 0)
            coeffs = tuple(c for c in coords if c > 0)
            answers.add((face, coeffs))
    if not answers:
        raise InternalInconsistencyError(
            f"point {pt} lies in no maximal cone; the fan is not complete"
        )
    if len(answers) > 1:
        raise InternalInconsistencyError(
            f"point {pt} has ambiguous location {sorted(answers)};"
            " the fan violates the face axioms"
        )
    return next(iter(answers))


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
    vecs = fan.cone_vectors(cidx)
    new_vec = tuple(sum(col) for col in zip(*vecs))
    new_index = len(fan.generators)
    cset = set(cidx)
    cones: list[Iterable[int]] = []
    for mc in fan.max_cones:
        if cset <= set(mc):
            for i in cidx:
                cones.append((set(mc) - {i}) | {new_index})
        else:
            cones.append(mc)
    gens = [(g.name, g.vector) for g in fan.generators] + [(name, new_vec)]
    return make_fan(fan.dim, gens, cones)


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
    valid: ``validate_fan`` checks it (a cached wall pass, made already
    when the fan came from ``birational.blow_down_candidates`` or the CLI),
    and an invalid fan raises ``ResultInvalidError``.

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
    ridx = resolve_ray(fan, ray)
    cidx = resolve_cone(fan, collection)
    total = tuple(sum(col) for col in zip(*fan.cone_vectors(cidx)))
    # a collection holding the ray itself would put it back into every cone
    if ridx in cidx or total != fan.generators[ridx].vector:
        raise NoBlowdownRelationError(
            f"no relation of the shape x1+...+xh = {fan.generators[ridx].name}"
            " with the requested collection"
        )
    cset = set(cidx)
    h = len(cidx)
    bad = tuple(
        mc
        for mc in fan.max_cones
        if ridx in mc and len(cset & set(mc)) != h - 1
    )
    if bad:
        names = ",".join(fan.cone_names(cidx))
        raise StarConditionViolatedError(
            f"cannot contract {fan.generators[ridx].name} via {{{names}}}:"
            f" cone {_cone_label(fan, bad[0])} does not contain exactly"
            f" {h - 1} collection rays",
            witnesses=bad,
        )
    report = validate_fan(fan)
    if not report.ok:
        raise ResultInvalidError(
            "cannot contract a ray of an invalid fan: " + "; ".join(report.witnesses)
        )
    new_cones = set()
    for mc in fan.max_cones:
        merged = (set(mc) - {ridx}) | cset if ridx in mc else mc
        new_cones.add(tuple(sorted(i - (i > ridx) for i in merged)))
    gens = fan.generators[:ridx] + fan.generators[ridx + 1 :]
    return Fan(fan.dim, gens, tuple(sorted(new_cones)))


# ---------------------------------------------------------------------------
# refinement and isomorphism


def refines(fine: Fan, coarse: Fan) -> bool:
    """True iff every maximal cone of ``fine`` lies in some cone of ``coarse``.

    A cone lies in a convex cone iff its generators do, so a fine cone lies
    in the coarse fan iff the AND of its rays' ``_ray_masks`` is non-zero.
    """
    return _masks_cover(fine, _ray_masks(fine, coarse))


def _ray_masks(fine: Fan, coarse: Fan) -> dict[lattice.IntVector, int]:
    """Each fine generator vector -> bitmask of the coarse maximal cones
    holding it, by the signs of the dual rows or, for a non-unimodular
    cone, exactly by ``lattice.nonneg_rational_combination``."""
    if fine.dim != coarse.dim:
        raise DimensionMismatchError(
            f"cannot compare fans of dimension {fine.dim} and {coarse.dim}"
        )
    masks = dict.fromkeys(fine.vectors(), 0)
    for bit, cone in enumerate(coarse.max_cones):
        vecs = coarse.cone_vectors(cone)
        dual = _dual_rows(vecs)
        for v in masks:
            if (
                all(lattice.dot(row, v) >= 0 for row in dual)
                if dual
                else lattice.nonneg_rational_combination(vecs, v) is not None
            ):
                masks[v] |= 1 << bit
    return masks


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


def _key(dim: int, vectors: Sequence[lattice.IntVector], cones: Iterable[Cone]):
    """(dim, sorted vectors, cones relabeled by the sorted positions)."""
    order = sorted(range(len(vectors)), key=lambda i: vectors[i])
    pos = {old: new for new, old in enumerate(order)}
    return (
        dim,
        tuple(vectors[i] for i in order),
        tuple(sorted(tuple(sorted(pos[i] for i in cone)) for cone in cones)),
    )


def _normal_forms(fan: Fan):
    """(key, columns, inverse) for each ordering of each maximal cone's rays
    that is a Z-basis, cones in max_cones order: ``columns`` holds the
    ordered basis, ``inverse`` sends it to the standard basis and ``key`` is
    the structural key of the fan moved by ``inverse``."""
    for cone in fan.max_cones:
        basis = fan.cone_vectors(cone)
        dual = _dual_rows(basis)
        if dual is None:
            continue
        coords = [tuple(lattice.dot(row, v) for row in dual) for v in fan.vectors()]
        # reordering the basis reorders the rows of its inverse, and with
        # them the coordinates of every generator
        for order in permutations(range(fan.dim)):
            images = [tuple(c[i] for i in order) for c in coords]
            yield (
                _key(fan.dim, images, fan.max_cones),
                tuple(zip(*(basis[i] for i in order))),
                tuple(dual[i] for i in order),
            )


def fan_isomorphism(a: Fan, b: Fan):
    """A GL(n,Z) matrix mapping a's generators and cones onto b's, or None.

    The first normal form of ``a`` (its first unimodular maximal cone, rays
    in the given order) is looked up among the normal forms of ``b``; on a match
    the map is b's basis columns times a's inverse, which carries a's
    generators and maximal cones onto b's. The matrix acts on column
    vectors. Fans with repeated generator vectors have no isomorphism.
    """
    if (
        a.dim != b.dim
        or len(a.generators) != len(b.generators)
        or len(a.max_cones) != len(b.max_cones)
    ):
        return None
    if not a.max_cones:
        if sorted(a.vectors()) != sorted(b.vectors()):
            return None
        return tuple(tuple(int(i == j) for j in range(a.dim)) for i in range(a.dim))
    if len(set(b.vectors())) != len(b.generators):
        return None
    # without a unimodular cone in a, the None key matches no form of b
    key, _, inverse = next(_normal_forms(a), (None, None, None))
    for other, columns, _ in _normal_forms(b):
        if other == key:
            return tuple(
                tuple(lattice.dot(row, col) for col in zip(*inverse))
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
    the standard basis; None without a unimodular maximal cone.
    fan_isomorphism matches normal forms of the same kind, so two fans
    without repeated generator vectors get equal keys iff it finds a map
    between them."""
    return min((key for key, _, _ in _normal_forms(fan)), default=None)
