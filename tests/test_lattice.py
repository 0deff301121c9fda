import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricfan import catalog, fan, lattice, mori
from toricfan.errors import DimensionMismatchError, InvalidArgumentError

from conftest import NON_SMOOTH_OVERLAP, clear_package_caches, verdict_fans
from oracles import (
    all_others_mori_cone,
    coordinate_separated,
    fm_nonneg_combination_feasible,
    fm_positive_functional_exists,
    fraction_phase1_simplex,
    grid_nonneg_combination_exists,
    permutation_determinant,
)

E1, E2, E3, E4 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
E0 = (-1, -1, -1, -1)

small_int = st.integers(min_value=-7, max_value=7)


def vectors(dim, n=None):
    vec = st.tuples(*([small_int] * dim))
    if n is None:
        return vec
    return st.lists(vec, min_size=n, max_size=n)


# ---------------------------------------------------------------------------
# determinants and unimodularity


def test_unimodular_standard_basis():
    basis = [E1, E2, E3, E4]
    assert lattice.unimodular_inverse(basis) == tuple(basis)


def test_unimodular_rejects_index_two_pair():
    basis = [(1, 0), (1, 2)]
    assert lattice.determinant(basis) == permutation_determinant(basis) == 2
    with pytest.raises(ValueError, match="not unimodular"):
        lattice.unimodular_inverse(basis)


def test_unimodular_simplex_cone():
    basis = [E0, E1, E2, E3]
    assert abs(permutation_determinant(basis)) == 1
    assert lattice.unimodular_inverse(basis) == (E2, E3, E4, E0)


@pytest.mark.parametrize(
    "rows",
    [
        [[1.5]],
        [[Fraction(1, 2), 0], [0, 2]],
        [[1.9, 0], [0, 1]],
        [[None, 0], [0, 1]],
        [[True, 0], [0, 1]],
    ],
)
def test_elimination_rejects_non_integer_entries(rows):
    # int() alone truncated: det [[1.5]] read 1, det diag(1/2, 2) read 0,
    # and diag(1.9, 1) was inverted as the identity
    with pytest.raises(InvalidArgumentError, match="must be integers"):
        lattice.determinant(rows)
    with pytest.raises(InvalidArgumentError, match="must be integers"):
        lattice.unimodular_inverse(rows)
    # not a ValueError, which _dual_rows reads as "not unimodular"
    with pytest.raises(InvalidArgumentError):
        fan._dual_rows(tuple(map(tuple, rows)))


def test_dual_rows_reject_a_bool_matrix_after_the_equal_ints():
    # True == 1 with one hash, so a cache keyed by the vectors alone gave
    # the bool matrix the rows it holds for the identity
    assert fan._dual_rows(((1, 0), (0, 1))) == ((1, 0), (0, 1))
    with pytest.raises(InvalidArgumentError, match="must be integers"):
        fan._dual_rows(((True, 0), (0, 1)))


def test_lp_rejects_entries_without_a_denominator():
    # the scaling pass read x.denominator, which raised AttributeError
    with pytest.raises(InvalidArgumentError, match="ints or Fractions"):
        lattice.solve_eq_nonneg([[1.0]], [1])
    with pytest.raises(InvalidArgumentError, match="ints or Fractions"):
        lattice.solve_eq_nonneg([[1]], [None])
    with pytest.raises(InvalidArgumentError, match="ints or Fractions"):
        lattice.nonneg_rational_combination([(1,)], (0.5,))
    # with no columns too: the tableau scales the rhs before it decides
    with pytest.raises(InvalidArgumentError, match="ints or Fractions"):
        lattice.solve_eq_nonneg([[]], [None])
    with pytest.raises(InvalidArgumentError, match="ints or Fractions"):
        lattice.nonneg_rational_combination([], ("x",))
    with pytest.raises(InvalidArgumentError, match="ints or Fractions"):
        lattice.nonneg_rational_combination([], (0.0,))
    # a bool is no int here, although True.denominator == 1
    with pytest.raises(InvalidArgumentError, match="ints or Fractions"):
        lattice.solve_eq_nonneg([[True]], [1])
    with pytest.raises(InvalidArgumentError, match="ints or Fractions"):
        lattice.solve_eq_nonneg([[1]], [False])
    with pytest.raises(InvalidArgumentError, match="ints or Fractions"):
        lattice.nonneg_rational_combination([(1,), (True,)], (1,))
    # integral values of other types are still integers
    assert lattice.determinant([[Fraction(2), 0], [0, 1.0]]) == 2
    assert lattice.solve_eq_nonneg([[Fraction(1, 2)]], [1]) == [2]


def test_unimodular_wrong_count():
    with pytest.raises(DimensionMismatchError):
        lattice.unimodular_inverse([E1, E2, E3])
    with pytest.raises(DimensionMismatchError):
        lattice.determinant([E1, E2, E3])


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: lattice.solve_eq_nonneg([[1, 0], [0, 1]], [1]), "rhs length"),
        (lambda: lattice.solve_eq_nonneg([], []), "at least one equation"),
        (lambda: lattice.nonneg_rational_combination([], ()), "at least one equation"),
        (lambda: lattice.solve_eq_nonneg([[1, 0], [1]], [1, 1]), "ragged"),
        (lambda: lattice.dot((1, 2), (1, 2, 3)), "unequal lengths"),
    ],
    ids=["rhs-length", "no-rows", "no-target", "ragged-rows", "dot-lengths"],
)
def test_shape_errors(call, match):
    with pytest.raises(DimensionMismatchError, match=match):
        call()


@given(st.integers(min_value=1, max_value=4).flatmap(lambda n: vectors(n, n)))
def test_determinant_matches_leibniz(rows):
    assert lattice.determinant(rows) == permutation_determinant(rows)


@given(st.integers(min_value=1, max_value=4).flatmap(lambda n: vectors(n, n)))
def test_unimodular_inverse_roundtrip(rows):
    d = lattice.determinant(rows)
    if d not in (1, -1):
        with pytest.raises(ValueError):
            lattice.unimodular_inverse(rows)
        return
    inv = lattice.unimodular_inverse(rows)
    n = len(rows)
    prod = [
        [sum(rows[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    assert prod == [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def random_unimodular(rng, n):
    """A seeded element of GL(n,Z): the identity under random row additions
    and swaps with a sign."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.25:
            m[i], m[j] = m[j], [-x for x in m[i]]
        else:
            k = rng.choice((-2, -1, 1, 2))
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    return m


@pytest.mark.slow  # reads the dimension-3 enumeration
def test_pivot_cases_match_the_general_update(
    monkeypatch, catalog_fans, seeded_chains
):
    # every row _pivot writes equals the plain Bareiss update
    # (p * x - f * y) // d, with no remainder, whichever case it takes
    real = lattice._pivot
    cases = Counter()

    def checked(rows, r, c, d):
        before = [list(row) for row in rows]
        p = real(rows, r, c, d)
        assert p == before[r][c]
        for i, row in enumerate(before):
            if i == r:
                assert rows[i] == row
                continue
            f = row[c]
            full = [p * x - f * y for x, y in zip(row, before[r])]
            assert all(v % d == 0 for v in full)
            assert rows[i] == [v // d for v in full]
            # the rows with f = 0 and p != d take the general update
            if f == 0:
                cases["skipped" if p == d else "general, f = 0"] += 1
            elif p == d == 1:
                cases[f"unit, f = {f}" if f in (1, -1) else "unit"] += 1
            else:
                cases["general"] += 1
        return p

    monkeypatch.setattr(lattice, "_pivot", checked)
    every_case = {
        "skipped",
        "general, f = 0",
        "unit, f = 1",
        "unit, f = -1",
        "unit",
        "general",
    }
    for f in verdict_fans(catalog_fans, seeded_chains):
        all_others_mori_cone(f)  # solve_eq_nonneg for every class
    assert set(cases) == every_case
    cases.clear()
    rng = random.Random(1)
    for n in (2, 3, 4, 5) * 10:
        m = random_unimodular(rng, n)
        inv = lattice.unimodular_inverse(m)
        prod = [[lattice.dot(row, col) for col in zip(*inv)] for row in m]
        assert prod == [[int(i == j) for j in range(n)] for i in range(n)]
    assert set(cases) == every_case


# ---------------------------------------------------------------------------
# nonnegative combinations


def test_nonneg_combination_orthant():
    sol = lattice.nonneg_rational_combination([(1, 0), (0, 1)], (2, 3))
    assert sol == [Fraction(2), Fraction(3)]


def test_nonneg_combination_infeasible():
    assert lattice.nonneg_rational_combination([(1, 0), (0, 1)], (-1, 0)) is None
    assert not grid_nonneg_combination_exists([(1, 0), (0, 1)], (-1, 0))


def test_nonneg_combination_empty_generators():
    assert lattice.nonneg_rational_combination([], (0, 0)) == []
    assert lattice.nonneg_rational_combination([], (1, 0)) is None


def test_nonneg_combination_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        lattice.nonneg_rational_combination([(1, 0, 0)], (1, 0))


def test_nonneg_combination_curve_class_decomposition(tower):
    # decomposition of a blow-up tower curve class in the class lattice of W
    from toricfan import mori

    _, _, w, _ = tower
    def cls(names):
        return mori.curve_class(
            w, mori.primitive_relation(w, names)
        )

    target = cls(("e1", "e2", "e3"))
    gens = [cls(("e1", "e6")), cls(("e2", "e3", "e4")), cls(("e0", "e5", "e6"))]
    sol = lattice.nonneg_rational_combination(gens, target)
    assert sol == [Fraction(1), Fraction(1), Fraction(0)]


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.tuples(
            st.lists(vectors(n), min_size=1, max_size=4), vectors(n)
        )
    )
)
def test_nonneg_combination_agrees_with_fourier_motzkin(data):
    gens, target = data
    sol = lattice.nonneg_rational_combination(gens, target)
    assert (sol is not None) == fm_nonneg_combination_feasible(gens, target)
    if sol is not None:
        assert all(l >= 0 for l in sol)
        n = len(target)
        assert all(
            sum(l * g[i] for l, g in zip(sol, gens)) == target[i]
            for i in range(n)
        )


# ---------------------------------------------------------------------------
# the integer tableau returns the vertex of the Fraction simplex oracle

small_fraction = st.fractions(min_value=-7, max_value=7, max_denominator=6)


def lp_systems(entry, feasible=False):
    """(rows, rhs) with 1-5 equations in 0-8 unknowns. When ``feasible``,
    rhs = rows @ x0 for an x0 >= 0 with many zeros, which makes degenerate
    vertices common."""

    def build(shape):
        m, n = shape
        row = st.lists(entry, min_size=n, max_size=n)
        rows = st.lists(row, min_size=m, max_size=m)
        if not feasible:
            return st.tuples(rows, st.lists(entry, min_size=m, max_size=m))
        x0 = st.lists(st.sampled_from((0, 0, 1, 2)), min_size=n, max_size=n)
        return st.tuples(rows, x0).map(
            lambda t: (t[0], [sum(a * x for a, x in zip(r, t[1])) for r in t[0]])
        )

    return st.tuples(st.integers(1, 5), st.integers(0, 8)).flatmap(build)


@settings(max_examples=300)
@given(
    st.one_of(
        lp_systems(small_int),
        lp_systems(st.one_of(small_int, small_fraction)),
        lp_systems(small_int, feasible=True),
        lp_systems(small_fraction, feasible=True),
    )
)
@example(([[3, 1, -2], [1, 2, 4]], [5, 4]))  # integer
# Fraction; scaling each row by its own lcm would give another vertex
@example(([[-2, -2, -1], [Fraction(-3, 2), -1, 2]], [-3, 1]))
@example(([[1, -1, 2], [2, 3, -1]], [0, 0]))  # zero rhs
@example(([[1, -2, 0], [-1, 0, 3]], [-4, -1]))  # negative rhs
@example(([[2, 0], [0, 1]], [2, 0]))  # degenerate: the Fraction loop pivots on at 0
@example(([[], []], [0, 1]))  # no columns
def test_integer_tableau_matches_fraction_simplex(system):
    rows, rhs = system
    got = lattice.solve_eq_nonneg(rows, rhs)
    assert got == fraction_phase1_simplex(rows, rhs)
    if got is not None:
        assert all(type(x) is Fraction for x in got)
    # an int system is its own tableau; its copy with every entry a Fraction
    # takes the scaling path, and both must give the same vertex
    as_fractions = [list(map(Fraction, row)) for row in rows]
    assert lattice.solve_eq_nonneg(as_fractions, list(map(Fraction, rhs))) == got


def test_replayed_package_lps_match_fraction_simplex(
    monkeypatch, catalog_fans, seeded_chains
):
    # every LP that mori_cone and validate_fan issue, replayed on the oracle
    real = lattice.solve_eq_nonneg
    issued = []

    def record(rows, rhs):
        out = real(rows, rhs)
        issued.append((rows, rhs, out))
        return out

    monkeypatch.setattr(lattice, "solve_eq_nonneg", record)
    clear_package_caches()
    fans = list(catalog_fans.values()) + catalog.enumerate_fano(2) + seeded_chains
    # valid fans pass the linear face check and need no pairwise LP, so the
    # LPs are mori_cone's: one per class no coordinate separates, and the
    # Gordan LP of is_projective on each fan where -K is not ample
    expected = 0
    for f in dict.fromkeys(fans):
        fan.validate_fan(f)
        classes = [info.curve_class for info in mori.mori_cone(f).relations]
        expected += len(classes) - len(coordinate_separated(classes))
        expected += not mori.is_fano_by_walls(f)
    assert len(issued) == expected
    # this invalid fan reaches the overlap LPs
    fan.validate_fan(NON_SMOOTH_OVERLAP)
    assert len(issued) > expected
    assert sum(out is None for _, _, out in issued) > 0
    assert sum(out is not None for _, _, out in issued) > 0
    for rows, rhs, out in issued:
        assert out == fraction_phase1_simplex(rows, rhs), (rows, rhs)


# ---------------------------------------------------------------------------
# strictly positive functionals, decided by Gordan's alternative


def vanishing_convex_combination(vs):
    """The LP behind mori.mori_cone's projectivity decision, on raw vectors:
    lam >= 0 with sum(lam) = 1 and sum(lam * v) = 0, or None."""
    n = len(vs[0])
    return lattice.nonneg_rational_combination(
        [tuple(v) + (1,) for v in vs], (0,) * n + (1,)
    )


def gordan_convex(vs):
    return vanishing_convex_combination(vs) is None


def test_positive_functional_first_orthant():
    vs = [(1, 0), (0, 1)]
    assert gordan_convex(vs)
    assert fm_positive_functional_exists(vs)


def test_positive_functional_absent_on_a_line():
    vs = [(1, 0), (-1, 0)]
    assert not gordan_convex(vs)
    assert not fm_positive_functional_exists(vs)


def test_positive_functional_rejects_zero_vector():
    # no functional is positive on the zero vector
    vs = [(1, 0), (0, 0)]
    assert not gordan_convex(vs)
    assert not fm_positive_functional_exists(vs)


def test_positive_functional_on_fano_4fold_classes(tower):
    # the classes of a projective variety span a strictly convex cone
    from toricfan import mori

    for fan in tower:
        classes = [info.curve_class for info in mori.mori_cone(fan).relations]
        assert gordan_convex(classes)
        assert fm_positive_functional_exists(classes)
        assert mori.is_projective(fan)


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.lists(vectors(n), min_size=1, max_size=4)
    )
)
@example([(1, 0, 1), (0, 1, 1), (-1, -1, 1)])  # strictly convex
@example([(1, 1, 0), (0, -1, 1), (-1, 0, -1)])  # the three sum to zero
def test_gordan_duality(vs):
    # a functional with phi(v) >= 1 on all vectors exists iff no convex
    # combination of them vanishes
    lam = vanishing_convex_combination(vs)
    assert (lam is None) == fm_positive_functional_exists(vs)
    if lam is not None:
        n = len(vs[0])
        assert all(l >= 0 for l in lam) and sum(lam) == 1
        assert all(sum(l * v[i] for l, v in zip(lam, vs)) == 0 for i in range(n))


# ---------------------------------------------------------------------------
# determinism


def test_operations_are_deterministic():
    gens = [(3, 1), (1, 2), (-1, -1)]
    target = (5, 4)
    first = lattice.nonneg_rational_combination(gens, target)
    for _ in range(5):
        assert lattice.nonneg_rational_combination(gens, target) == first
