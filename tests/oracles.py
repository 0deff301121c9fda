"""Independent brute-force oracles used only by the test suite.

Each oracle re-decides a question answered by the library through a
different, slower route (Leibniz expansion, Fourier-Motzkin elimination,
exhaustive subset or grid search, a simplex pivoting over Fraction, a
rational solve per pair of adjacent cones, the face-plus-ray scan of
primitive collections from before the neighbour masks, the located
primitive-relation table, the rejection path of ``validate_fan`` with its
own wall map, the Fano enumerator's retired rule, its pool scan and two-half
convexity rule from before the admissible set, the coordinate permutations
fixing a complex tried one by one, a cone functional by
inversion, the full structural key of every normal form, one Mori-cone LP
for every class) so that the two sides check each other.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

from toricfan import birational, lattice, mori
from toricfan._fano3 import _primitive_pool
from toricfan.errors import DimensionMismatchError, StarConditionViolatedError
from toricfan.fan import (
    Cone,
    ValidationReport,
    _cone_label,
    _dual_rows,
    _key,
    _normal_forms,
    _wall_owners,
    cones_meet_in_common_face,
    contract_ray,
    make_fan,
)


def permutation_determinant(rows) -> int:
    """Leibniz expansion; exponential, fine for n <= 6."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def fourier_motzkin_feasible(rows, rhs) -> bool:
    """Does Ax = b admit x >= 0? Decided by Fourier-Motzkin elimination."""
    n = len(rows[0]) if rows else 0
    # constraints as (coeffs, const) meaning sum(c_i x_i) <= const
    cons: set[tuple[tuple[Fraction, ...], Fraction]] = set()
    for row, b in zip(rows, rhs):
        r = tuple(Fraction(x) for x in row)
        bb = Fraction(b)
        cons.add((r, bb))
        cons.add((tuple(-x for x in r), -bb))
    for i in range(n):
        e = tuple(Fraction(-1 if j == i else 0) for j in range(n))
        cons.add((e, Fraction(0)))

    def normalized(coeffs, const):
        nz = [abs(c) for c in coeffs if c != 0]
        if not nz:
            return coeffs, const
        scale = min(nz)
        return tuple(c / scale for c in coeffs), const / scale

    for k in range(n):
        pos, neg, rest = [], [], []
        for coeffs, const in cons:
            if coeffs[k] > 0:
                pos.append((coeffs, const))
            elif coeffs[k] < 0:
                neg.append((coeffs, const))
            else:
                rest.append((coeffs, const))
        new = set(rest)
        for (pc, pb), (nc, nb) in product(pos, neg):
            a, d = pc[k], nc[k]
            coeffs = tuple(a * nx - d * px for px, nx in zip(pc, nc))
            const = a * nb - d * pb
            new.add(normalized(coeffs, const))
        cons = new
    return all(const >= 0 for _, const in cons)


def fraction_phase1_simplex(rows, rhs):
    """Find x >= 0 with (rows) @ x = rhs, exactly; None when infeasible.

    The reference for the integer tableau of ``lattice.solve_eq_nonneg``,
    which must return the same vertex or None.

    Phase-1 simplex over Fraction with Bland's rule (entering: smallest
    eligible structural column; leaving: smallest basic index among the
    minimum ratios), which guarantees termination. Artificial variables
    never re-enter the basis.
    """
    m = len(rows)
    if m != len(rhs):
        raise DimensionMismatchError("row count differs from rhs length")
    if m == 0:
        raise DimensionMismatchError("need at least one equation")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise DimensionMismatchError("ragged constraint matrix")
    if n == 0:
        return [] if all(Fraction(b) == 0 for b in rhs) else None

    tab: list[list[Fraction]] = []
    for i in range(m):
        b = Fraction(rhs[i])
        row = [Fraction(x) for x in rows[i]]
        if b < 0:
            b = -b
            row = [-x for x in row]
        tab.append(row + [Fraction(1 if j == i else 0) for j in range(m)] + [b])
    basis = list(range(n, n + m))
    # objective row: minimize the sum of artificials; for structural columns
    # this equals the reduced cost, artificial columns are never candidates
    obj = [sum(tab[i][j] for i in range(m)) for j in range(n + m + 1)]

    while True:
        enter = next((j for j in range(n) if obj[j] > 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            t = tab[i][enter]
            if t > 0:
                ratio = tab[i][-1] / t
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave is None:  # cannot happen: obj[enter] > 0 forces a positive entry
            return None
        p = tab[leave][enter]
        tab[leave] = [x / p for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, tab[leave])]
        basis[leave] = enter

    if obj[-1] != 0:
        return None
    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = tab[i][-1]
    return x


def fm_nonneg_combination_feasible(generators, target) -> bool:
    """Fourier-Motzkin version of the nonnegative-combination query."""
    if not generators:
        return all(Fraction(t) == 0 for t in target)
    rows = [[g[i] for g in generators] for i in range(len(target))]
    return fourier_motzkin_feasible(rows, list(target))


def fm_positive_functional_exists(vectors) -> bool:
    """Is there a rational phi with phi(v) >= 1 for every vector?

    Fourier-Motzkin on phi = psi - t*(1,...,1), which covers every rational
    phi with psi >= 0 and t >= 0, and one slack s_v >= 0 per vector:
    s_v eliminated first, then psi(v) - t*sum(v) - s_v = 1.
    """
    m = len(vectors)
    rows = []
    for i, v in enumerate(vectors):
        slacks = [-1 if j == i else 0 for j in range(m)]
        rows.append(slacks + list(v) + [-sum(v)])
    return fourier_motzkin_feasible(rows, [1] * m)


def grid_nonneg_combination_exists(
    generators, target, max_numerator=6, max_denominator=3
) -> bool:
    """Exhaustive search over small rational coefficients."""
    values = sorted(
        {
            Fraction(p, q)
            for q in range(1, max_denominator + 1)
            for p in range(0, max_numerator * q + 1)
        }
    )
    n = len(target)
    for lams in product(values, repeat=len(generators)):
        if all(
            sum(l * g[i] for l, g in zip(lams, generators)) == target[i]
            for i in range(n)
        ):
            return True
    return False


def rational_solve(columns, point):
    """Unique rational coords of ``point`` over independent columns, or None."""
    k = len(columns)
    n = len(point)
    aug = [
        [Fraction(columns[j][i]) for j in range(k)] + [Fraction(point[i])]
        for i in range(n)
    ]
    row = 0
    for col in range(k):
        piv = next((r for r in range(row, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[row], aug[piv] = aug[piv], aug[row]
        p = aug[row][col]
        aug[row] = [x / p for x in aug[row]]
        for r in range(n):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        row += 1
    if any(aug[r][k] != 0 for r in range(row, n)):
        return None
    return [aug[i][k] for i in range(k)]


def brute_wall_classes(fan):
    """The curve class of every wall, sorted, by linear algebra alone: for
    each pair of maximal cones sharing n-1 rays, p + q = sum(a_i * u_i) is
    solved over the shared rays u_i, p and q the rays off the wall, and the
    class is +1 on p and q and -a_i on the u_i."""
    classes = set()
    for a, b in combinations(fan.max_cones, 2):
        shared = tuple(sorted(set(a) & set(b)))
        if len(shared) != fan.dim - 1:
            continue
        (p,) = set(a) - set(b)
        (q,) = set(b) - set(a)
        point = [x + y for x, y in zip(*fan.cone_vectors((p, q)))]
        coeffs = rational_solve(fan.cone_vectors(shared), point)
        assert coeffs is not None, f"p + q leaves the wall {shared}"
        entries = [0] * len(fan.generators)
        entries[p] = entries[q] = 1
        for i, c in zip(shared, coeffs):
            entries[i] = -c
        classes.add(tuple(entries))
    return tuple(sorted(classes))


def all_faces(fan):
    """Every face of every maximal cone, including the zero cone."""
    faces = set()
    for mc in fan.max_cones:
        for r in range(fan.dim + 1):
            faces.update(combinations(mc, r))
    return faces


def relint_claims(fan, point):
    """All faces claiming ``point`` in their relative interior (brute force)."""
    claims = []
    for face in sorted(all_faces(fan)):
        if not face:
            if not any(point):
                claims.append(face)
            continue
        coords = rational_solve(fan.cone_vectors(face), point)
        if coords is not None and all(c > 0 for c in coords):
            claims.append(face)
    return claims


def face_ray_collections(fan):
    """Minimal non-faces as ``mori.primitive_collections`` found them
    before it read neighbour masks: every face F of at most n rays plus
    every ray r > max(F), kept when it is no face and each deletion of a
    ray of F is one."""
    faces = set()
    for mc in fan.max_cones:
        for r in range(1, fan.dim + 1):
            faces.update(combinations(mc, r))
    out = []
    for face in faces:
        for r in range(face[-1] + 1, len(fan.generators)):
            cand = face + (r,)
            if cand not in faces and all(
                cand[:i] + cand[i + 1 :] in faces for i in range(len(face))
            ):
                out.append(cand)
    return sorted(out)


def brute_primitive_collections(fan):
    """Direct definition: minimal non-faces, checked over every subset size."""
    cone_sets = [set(mc) for mc in fan.max_cones]

    def is_face(s):
        return any(s <= mc for mc in cone_sets)

    out = []
    n = len(fan.generators)
    for h in range(2, n + 1):
        for cand in combinations(range(n), h):
            s = set(cand)
            if is_face(s):
                continue
            if all(is_face(s - {i}) for i in cand):
                out.append(cand)
    return sorted(out)


def brute_refines(fine, coarse) -> bool:
    """Does every maximal cone of ``fine`` lie in one maximal cone of
    ``coarse``? Each generator is tested by an exact Fraction solve over the
    coarse cone's generators, or by Fourier-Motzkin when that solve has no
    unique answer (dependent generators)."""

    def inside(vecs, v):
        coords = rational_solve(vecs, v)
        if coords is None:
            return fm_nonneg_combination_feasible(vecs, v)
        return all(c >= 0 for c in coords)

    return all(
        any(
            all(inside(coarse.cone_vectors(cc), v) for v in fine.cone_vectors(fc))
            for cc in coarse.max_cones
        )
        for fc in fine.max_cones
    )


def pairwise_faces_ok(fan) -> bool:
    """The face condition by its definition: distinct generator vectors,
    each used, distinct maximal cones, and no two maximal cones sharing a
    point with weight outside their shared generators."""
    vectors = fan.vectors()
    if len(set(vectors)) != len(vectors):
        return False
    if {i for mc in fan.max_cones for i in mc} != set(range(len(vectors))):
        return False
    if len(set(fan.max_cones)) != len(fan.max_cones):
        return False
    return not any(
        _cones_overlap(fan.cone_vectors(a), fan.cone_vectors(b))
        for a, b in combinations(fan.max_cones, 2)
    )


def own_wall_map_rejection(fan):
    """The report of ``validate_fan`` by its former rejection path: its own
    wall -> cone-index map, a walk over cone indices and three flags set
    beside the witnesses."""
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


@lru_cache(maxsize=None)
def _cones_overlap(a_vecs, b_vecs) -> bool:
    """Is U x - V y = 0 solvable with x, y >= 0 and weight 1 on the
    generators the cones do not share? Decided by
    ``fraction_phase1_simplex``; cached, since mutants of one fan repeat
    most of its pairs."""
    n = len(a_vecs[0])
    rows = [[u[k] for u in a_vecs] + [-v[k] for v in b_vecs] for k in range(n)]
    off = [int(u not in b_vecs) for u in a_vecs]
    off += [int(v not in a_vecs) for v in b_vecs]
    return fraction_phase1_simplex(rows + [off], [0] * n + [1]) is not None


def table_blow_down_candidates(fan):
    """Blow-down candidates read off the located relation table: every
    relation of ``mori.primitive_relations`` with the single coefficient 1,
    x1+...+xh = x, contracted, ordered by the name of x, then by
    collection."""
    rels = [r for r in mori.primitive_relations(fan) if r.coefficients == (1,)]
    out = []
    for rel in sorted(
        rels, key=lambda r: (fan.generators[r.target[0]].name, r.collection)
    ):
        try:
            target = contract_ray(fan, rel.target[0], rel.collection)
        except StarConditionViolatedError as exc:
            out.append(birational.BlowdownCandidate(rel, False, exc.witnesses, None))
        else:
            out.append(birational.BlowdownCandidate(rel, True, None, target))
    return tuple(out)


def all_others_mori_cone(fan):
    """``mori.mori_cone`` with one LP for every class against all the others
    and no coordinate certificate; ``strictly_convex`` by Gordan's LP over
    the primitive classes, not the wall classes."""
    rels = mori.primitive_relations(fan)
    classes = [mori.curve_class(fan, r) for r in rels]
    infos = []
    for k, rel in enumerate(rels):
        others = classes[:k] + classes[k + 1 :]
        sol = lattice.nonneg_rational_combination(others, classes[k])
        dec = None
        if sol is not None:
            other_rels = rels[:k] + rels[k + 1 :]
            dec = tuple(
                (other_rels[j].collection, lam) for j, lam in enumerate(sol) if lam
            )
        infos.append(mori.MoriClassInfo(rel, classes[k], sol is None, dec))
    gordan = lattice.nonneg_rational_combination(
        [c + (1,) for c in classes], (0,) * len(fan.generators) + (1,)
    )
    return mori.MoriConeSummary(
        tuple(infos), len(fan.generators) - fan.dim, gordan is None
    )


def coordinate_separated(classes):
    """Indices k of the classes that one coordinate separates from all the
    others: some ray i with classes[k][i] > 0 >= c[i] for every other class
    c, or with classes[k][i] < 0 <= c[i] for every other class c."""
    out = []
    for k, ck in enumerate(classes):
        others = classes[:k] + classes[k + 1 :]
        if any(
            (x > 0 and all(c[i] <= 0 for c in others))
            or (x < 0 and all(c[i] >= 0 for c in others))
            for i, x in enumerate(ck)
        ):
            out.append(k)
    return out


def functional(cone):
    """u_cone, the sum of the dual rows of the unimodular ``cone``: its rows
    inverted, where the Fano search reads it off the cone it grows from."""
    return tuple(map(sum, zip(*_dual_rows(cone))))


def convex_rule(cones, vertices: set, new_cone) -> bool:
    """The convexity rule in both halves, as the Fano search applied it
    before it carried an admissible set: ``cones`` (with vertex set
    ``vertices``) plus ``new_cone`` keep u_s(v) <= 0 for every cone s and
    vertex v off s, given that ``cones`` keep it; ``new_cone`` is checked
    against every vertex and its apex, if new, against every cone."""
    u = functional(new_cone)
    if any(lattice.dot(u, v) > 0 for v in vertices.difference(new_cone)):
        return False
    fresh = [w for w in new_cone if w not in vertices]
    return not any(lattice.dot(functional(c), w) > 0 for w in fresh for c in cones)


def scanned_cones(cones, pool):
    """The new cones the Fano search tries on the complex ``cones``, in
    order, by a scan of the whole ``pool`` at the smallest open wall with
    owner c and apex p: every w with coordinate -1 on p in the basis c and
    u_c(w) <= 0, less a w that is no vertex yet and breaks the
    special-facet bound or the apex half of ``convex_rule``."""
    owners = _wall_owners(cones)
    wall = min(w for w, o in owners.items() if len(o) == 1)
    ((owner, k),) = owners[wall]
    on_p, u = _dual_rows(owner)[k], functional(owner)
    vertices = {x for cone in cones for x in cone}
    nu = sum(map(sum, vertices))
    return [
        tuple(sorted(wall + (w,)))
        for w in pool
        if lattice.dot(on_p, w) == -1
        and lattice.dot(u, w) <= 0
        and (
            w in vertices
            or nu + sum(w) >= 0
            and all(lattice.dot(functional(c), w) <= 0 for c in cones)
        )
    ]


def _permuted(g, cone):
    """The sorted images of the vectors of ``cone`` under the coordinate
    permutation ``g``, x -> (x[g[0]], ..., x[g[n-1]])."""
    return tuple(sorted(tuple(x[i] for i in g) for x in cone))


def cone_stabilizer(cones):
    """The permutations the Fano search carries on the complex ``cones``,
    from all n! of them: every coordinate permutation but the identity that
    maps each cone onto itself. They fix the complex, whose whole
    stabilizer may be larger: it may also swap cones."""
    dim = len(next(iter(cones)))
    others = list(permutations(range(dim)))[1:]
    return {g for g in others if all(_permuted(g, c) == c for c in cones)}


def mirrored_cones(cones, pool):
    """The cones of ``scanned_cones`` that the Fano search skips by symmetry:
    those wall + (w,) whose apex w some permutation of ``cone_stabilizer``
    that fixes the wall maps to a smaller vector, the apex of a cone tried
    before."""
    owners = _wall_owners(cones)
    wall = min(w for w, o in owners.items() if len(o) == 1)
    fixing = [g for g in cone_stabilizer(cones) if _permuted(g, wall) == wall]
    if not fixing:
        return []
    return [
        cone
        for cone in scanned_cones(cones, pool)
        for (w,) in [set(cone).difference(wall)]
        if any(tuple(w[i] for i in g) < w for g in fixing)
    ]


def admissible_set(cones, pool):
    """The admissible set of the complex ``cones``, from scratch: the
    vectors of ``pool``, in order, that are no vertex, have u_c(x) <= 0 for
    every cone c and keep the special-facet bound, nu + sum(x) >= 0."""
    vertices = {x for cone in cones for x in cone}
    nu = sum(map(sum, vertices))
    functionals = [functional(c) for c in cones]
    return tuple(
        x
        for x in pool
        if x not in vertices
        and nu + sum(x) >= 0
        and all(lattice.dot(u, x) <= 0 for u in functionals)
    )


def retired_fano_rule(cones, vertices, new_cone, u, admissible, nu):
    """The Fano enumerator's rule before the convexity rule, in the place of
    ``_fano3._convex``: no facet of ``new_cone`` may have two owners
    already; at each facet with one owner (c, k), the wall relation
    c[k] + x = sum(a_i * u_i), x the ray of ``new_cone`` off it, must have
    sum(a_i) <= 1, the wall rule; and ``new_cone`` must meet every cone in a
    common face. Returns None where it rejects ``new_cone``, else the whole
    special-facet pool less the vertices, cut by the bound ``nu`` alone, so
    the search draws its apexes from the full pool, as the retired search
    did (``u`` and ``admissible`` are unused)."""
    owners = _complex_walls(cones)
    for wall, [(_, j)] in _wall_owners([new_cone]).items():
        sides = owners.get(wall, ())
        if len(sides) >= 2:
            return None
        for cone, k in sides:
            dual = _dual_rows(cone)
            if dual is None:
                continue
            coeffs = [sum(r * x for r, x in zip(row, new_cone[j])) for row in dual]
            if coeffs.pop(k) == -1 and sum(coeffs) >= 2:
                return None
    if not all(_faces_meet(new_cone, cone) for cone in cones):
        return None
    taken = vertices.union(new_cone)
    pool = _primitive_pool(len(new_cone))
    return tuple(x for x in pool if x not in taken and nu + sum(x) >= 0)


# the search weighs all candidates of one complex in a row; the face checks
# of the dimension-3 search repeat 102,683 queries of 32,725 pairs
_complex_walls = lru_cache(maxsize=1)(_wall_owners)
_faces_meet = lru_cache(maxsize=None)(cones_meet_in_common_face)


def brute_canonical_gl_key(fan):
    """The least full structural key over every normal form of ``fan``, each
    with its cones relabeled, or None without a unimodular maximal cone;
    ``canonical_gl_key`` relabels cones only for the forms that tie on the
    least vector part."""
    return min(
        (_key(fan.dim, images, fan.max_cones) for images, _, _ in _normal_forms(fan)),
        default=None,
    )


def fan_of_key(key):
    """The fan a structural key describes: rays e0, e1, ... the key's
    vector part in order, maximal cones its cone part."""
    dim, vectors, cones = key
    return make_fan(dim, [(f"e{i}", v) for i, v in enumerate(vectors)], cones)


def brute_fano_classes(closed):
    """The canonical form of each class of ``brute_canonical_gl_key`` among
    the fans of ``closed``, built from the key, in key order: the
    enumerator's output, deduplicated with no index of normal forms."""
    return [fan_of_key(key) for key in sorted(set(map(brute_canonical_gl_key, closed)))]
