from fractions import Fraction
from itertools import combinations

import pytest

from toricfan import (
    InternalInconsistencyError,
    InvalidArgumentError,
    birational,
    canonical_gl_key,
    catalog,
    contract_ray,
    fan_isomorphism,
    lattice,
    locate_relint,
    make_fan,
    mori,
    refines,
    validate_fan,
)
from toricfan.fan import resolve_cone

from conftest import (
    DOUBLE_P2,
    FOLDED_CYCLE,
    TWICE_WINDING,
    ZIGZAG_CYCLE,
    blowup_chain,
    chain_prefixes,
    factorization_fans,
    rejected_complexes,
    twisted_threefold,
    verdict_fans,
)
from oracles import (
    all_others_mori_cone,
    brute_primitive_collections,
    brute_wall_classes,
    coordinate_separated,
    face_ray_collections,
    fm_nonneg_combination_feasible,
    fm_positive_functional_exists,
    rational_solve,
    relint_claims,
)


def names_of(fan, cones):
    return {fan.cone_names(c) for c in cones}


def collection_names(fan):
    return names_of(fan, mori.primitive_collections(fan))


def rel(fan, names):
    return mori.primitive_relation(fan, names)


# ---------------------------------------------------------------------------
# primitive collections


def test_collections_p4(tower):
    p4 = tower[0]
    assert collection_names(p4) == {("e0", "e1", "e2", "e3", "e4")}


def test_collections_x(tower):
    _, x, _, _ = tower
    assert collection_names(x) == {("e1", "e2", "e3"), ("e0", "e4", "e5")}


def test_collections_w(tower):
    _, _, w, _ = tower
    assert collection_names(w) == {
        ("e2", "e3", "e4"),
        ("e1", "e2", "e3"),
        ("e1", "e6"),
        ("e0", "e4", "e5"),
        ("e0", "e5", "e6"),
    }


def test_collections_y(tower):
    # {e0,e5,e6} is easy to overlook: it survives the last blow-up since
    # the center {e4,e5} is not contained in it; it spans no cone while
    # all its pairs do (for instance {e5,e6} inside <e2,e3,e5,e6>)
    _, _, _, y = tower
    assert collection_names(y) == {
        ("e4", "e5"),
        ("e1", "e6"),
        ("e2", "e3", "e7"),
        ("e0", "e7"),
        ("e1", "e2", "e3"),
        ("e2", "e3", "e4"),
        ("e0", "e5", "e6"),
    }


def test_collections_match_brute_force(catalog_fans):
    """The collections read off the neighbour masks against the scan over
    every ray past the face that the masks replaced and against the direct
    definition, on every fan of the seeded chains and on complexes that
    validate_fan rejects, with unused rays and repeated cones, and on every
    intermediate of the exhaustive tower and chain factorizations; the
    relation table of the catalog, Fano and chain fans holds one relation
    per collection, its sum placed by the brute-force face search and
    solved over that face."""
    fans = list(catalog_fans.values()) + catalog.enumerate_fano(2) + chain_prefixes()
    rejected = [DOUBLE_P2, FOLDED_CYCLE, TWICE_WINDING, ZIGZAG_CYCLE]
    others = factorization_fans() + rejected + rejected_complexes(20261020, 40)
    for fan in fans + others:
        brute = brute_primitive_collections(fan)
        assert list(mori.primitive_collections(fan)) == face_ray_collections(fan) == brute
    for fan in fans:
        table = mori.primitive_relations(fan)
        assert [r.collection for r in table] == brute_primitive_collections(fan)
        for r in table:
            point = tuple(map(sum, zip(*fan.cone_vectors(r.collection))))
            (face,) = relint_claims(fan, point)
            coeffs = tuple(rational_solve(fan.cone_vectors(face), point))
            assert (r.target, r.coefficients) == (face, coeffs)
            assert r.degree == len(r.collection) - sum(coeffs)


def test_collections_are_sorted(catalog_fans):
    for fan in catalog_fans.values():
        cols = list(mori.primitive_collections(fan))
        assert cols == sorted(cols)


# ---------------------------------------------------------------------------
# primitive relations


def test_relation_exceptional_divisor(tower):
    _, x, _, _ = tower
    r = rel(x, ("e1", "e2", "e3"))
    assert x.cone_names(r.target) == ("e5",)
    assert r.coefficients == (1,)
    assert r.degree == 2


def test_relation_degree_zero(tower):
    _, _, w, _ = tower
    r = rel(w, ("e1", "e6"))
    assert w.cone_names(r.target) == ("e4", "e5")
    assert r.coefficients == (1, 1)
    assert r.degree == 0


def test_relation_zero_target(tower):
    p4 = tower[0]
    r = rel(p4, ("e0", "e1", "e2", "e3", "e4"))
    assert r.target == ()
    assert r.coefficients == ()
    assert r.degree == 5


def test_relation_lattice_identity(catalog_fans):
    for fan in catalog_fans.values():
        for coll in mori.primitive_collections(fan):
            r = mori.primitive_relation(fan, coll)
            lhs = [0] * fan.dim
            for i in r.collection:
                for j in range(fan.dim):
                    lhs[j] += fan.generators[i].vector[j]
            for i, a in zip(r.target, r.coefficients):
                assert a >= 1
                for j in range(fan.dim):
                    lhs[j] -= a * fan.generators[i].vector[j]
            assert not any(lhs)
            assert not set(r.collection) & set(r.target)
            assert r.degree == len(r.collection) - sum(r.coefficients)


# ---------------------------------------------------------------------------
# curve classes


def test_curve_class_entries(tower):
    _, x, _, _ = tower
    cls = mori.curve_class(x, rel(x, ("e1", "e2", "e3")))
    assert cls == (0, 1, 1, 1, 0, -1)
    # intersection with the divisor of the target ray reads off the entry
    assert cls[x.index_of("e5")] == -1


def test_curve_class_p4_all_ones(tower):
    p4 = tower[0]
    cls = mori.curve_class(p4, rel(p4, ("e0", "e1", "e2", "e3", "e4")))
    assert cls == (1, 1, 1, 1, 1)
    total = [0] * 4
    for entry, g in zip(cls, p4.generators):
        for j in range(4):
            total[j] += entry * g.vector[j]
    assert not any(total)


def test_curve_class_is_a_relation(catalog_fans):
    for fan in catalog_fans.values():
        for coll in mori.primitive_collections(fan):
            cls = mori.curve_class(fan, mori.primitive_relation(fan, coll))
            total = [0] * fan.dim
            for entry, g in zip(cls, fan.generators):
                for j in range(fan.dim):
                    total[j] += entry * g.vector[j]
            assert not any(total)


# ---------------------------------------------------------------------------
# anticanonical degree


def test_anticanonical_degree_examples(tower):
    _, _, w, y = tower
    assert mori.anticanonical_degree(
        mori.curve_class(w, rel(w, ("e1", "e6")))
    ) == 0
    assert mori.anticanonical_degree(
        mori.curve_class(y, rel(y, ("e0", "e7")))
    ) == 2
    assert mori.anticanonical_degree((0,) * 8) == 0


def test_degree_identity_over_catalog(catalog_fans):
    for fan in catalog_fans.values():
        for coll in mori.primitive_collections(fan):
            r = mori.primitive_relation(fan, coll)
            assert mori.anticanonical_degree(mori.curve_class(fan, r)) == r.degree


# ---------------------------------------------------------------------------
# Mori cone


def extremal_names(fan):
    return {
        fan.cone_names(info.relation.collection)
        for info in mori.mori_cone(fan).relations
        if info.extremal
    }


def test_mori_cone_x(tower):
    _, x, _, _ = tower
    summary = mori.mori_cone(x)
    assert summary.picard_number == 2
    assert all(info.extremal for info in summary.relations)
    assert len(summary.relations) == 2


def test_mori_cone_w(tower):
    _, _, w, _ = tower
    summary = mori.mori_cone(w)
    assert summary.picard_number == 3
    assert extremal_names(w) == {
        ("e2", "e3", "e4"),
        ("e1", "e6"),
        ("e0", "e5", "e6"),
    }
    decs = {
        w.cone_names(info.relation.collection): info.decomposition
        for info in summary.relations
        if not info.extremal
    }
    assert set(decs) == {("e1", "e2", "e3"), ("e0", "e4", "e5")}
    assert {
        (w.cone_names(c), lam) for c, lam in decs[("e1", "e2", "e3")]
    } == {(("e1", "e6"), Fraction(1)), (("e2", "e3", "e4"), Fraction(1))}
    assert {
        (w.cone_names(c), lam) for c, lam in decs[("e0", "e4", "e5")]
    } == {(("e0", "e5", "e6"), Fraction(1)), (("e2", "e3", "e4"), Fraction(1))}


def test_mori_cone_y(tower):
    _, _, _, y = tower
    summary = mori.mori_cone(y)
    assert summary.picard_number == 4
    assert sum(1 for info in summary.relations if info.extremal) == 4
    assert extremal_names(y) == {
        ("e4", "e5"),
        ("e1", "e6"),
        ("e2", "e3", "e7"),
        ("e0", "e5", "e6"),
    }


def test_decomposition_replays_exactly(catalog_fans):
    for fan in catalog_fans.values():
        summary = mori.mori_cone(fan)
        by_coll = {
            info.relation.collection: info.curve_class
            for info in summary.relations
        }
        for info in summary.relations:
            if info.extremal:
                assert info.decomposition is None
                continue
            total = [Fraction(0)] * len(fan.generators)
            for coll, lam in info.decomposition:
                assert lam > 0
                for j, entry in enumerate(by_coll[coll]):
                    total[j] += lam * entry
            assert tuple(total) == tuple(map(Fraction, info.curve_class))


@pytest.mark.slow  # reads the dimension-3 enumeration
def test_mori_cone_matches_one_lp_per_class(catalog_fans, seeded_chains):
    # the coordinate certificate changes no field of the summary, and every
    # class it decides is one that the all-others LP finds infeasible
    separated = 0
    for fan in verdict_fans(catalog_fans, seeded_chains):
        summary = mori.mori_cone(fan)
        assert summary == all_others_mori_cone(fan)
        classes = [info.curve_class for info in summary.relations]
        for k in coordinate_separated(classes):
            assert summary.relations[k].extremal
            others = classes[:k] + classes[k + 1 :]
            assert lattice.nonneg_rational_combination(others, classes[k]) is None
            separated += 1
    assert separated > 0


def test_extremality_agrees_with_fourier_motzkin(catalog_fans):
    for fan in catalog_fans.values():
        summary = mori.mori_cone(fan)
        classes = [info.curve_class for info in summary.relations]
        for k, info in enumerate(summary.relations):
            others = classes[:k] + classes[k + 1 :]
            feasible = fm_nonneg_combination_feasible(others, classes[k])
            assert info.extremal == (not feasible)


def test_no_two_primitive_classes_are_proportional(catalog_fans):
    # so "extremal" is a property of one class, not of a ray shared by two;
    # the seeded chains enter with every prefix, not only their last fan
    chains = [blowup_chain(1, 3, k) for k in range(1, 7)]
    chains += [blowup_chain(2, 4, k) for k in range(1, 5)]
    fans = list(catalog_fans.values()) + catalog.enumerate_fano(2) + chains
    for fan in fans:
        classes = [info.curve_class for info in mori.mori_cone(fan).relations]
        for a, b in combinations(classes, 2):
            # proportional iff every 2x2 minor of the pair vanishes
            assert any(
                a[i] * b[j] != a[j] * b[i]
                for i, j in combinations(range(len(a)), 2)
            ), (a, b)


def test_picard_number(catalog_fans):
    for fan in catalog_fans.values():
        assert (
            mori.mori_cone(fan).picard_number
            == len(fan.generators) - fan.dim
        )


# ---------------------------------------------------------------------------
# projectivity and Fano


def test_is_projective(tower, catalog_fans):
    _, x, w, _ = tower
    assert mori.is_projective(x)
    assert mori.is_projective(w)
    assert mori.is_projective(catalog_fans["p1"])


def test_is_projective_agrees_with_fourier_motzkin(catalog_fans):
    twisted = twisted_threefold()
    assert validate_fan(twisted).ok
    assert not mori.is_projective(twisted)
    fans = list(catalog_fans.values()) + catalog.enumerate_fano(2) + [twisted]
    for fan in fans:
        classes = [info.curve_class for info in mori.mori_cone(fan).relations]
        assert mori.is_projective(fan) == fm_positive_functional_exists(classes)


def is_relation(fan, cls):
    return not any(
        sum(c * v[j] for c, v in zip(cls, fan.vectors())) for j in range(fan.dim)
    )


@pytest.mark.slow  # reads the dimension-3 enumeration
def test_wall_verdicts_match_table_and_oracle(catalog_fans, seeded_chains):
    verdicts = []
    for fan in verdict_fans(catalog_fans, seeded_chains):
        walls = mori.wall_classes(fan)
        assert list(walls) == sorted(set(walls))
        assert all(is_relation(fan, c) for c in walls)
        table = [mori.curve_class(fan, r) for r in mori.primitive_relations(fan)]
        by_table = (
            lattice.nonneg_rational_combination(
                [c + (1,) for c in table], (0,) * len(fan.generators) + (1,)
            )
            is None
        )
        assert mori.is_projective(fan) == by_table
        assert by_table == fm_positive_functional_exists(walls)
        fano = all(r.degree > 0 for r in mori.primitive_relations(fan))
        assert mori.is_fano_by_walls(fan) == mori.is_fano(fan)[0] == fano
        verdicts.append((by_table, fano))
    assert verdicts[-1] == (False, False)  # the threefold
    assert 0 < sum(f for _, f in verdicts) < len(verdicts)


def test_wall_and_primitive_classes_span_one_cone(catalog_fans):
    # each side is a nonnegative combination of the other
    fans = list(catalog_fans.values()) + chain_prefixes() + [twisted_threefold()]
    for fan in fans:
        walls = list(mori.wall_classes(fan))
        table = [mori.curve_class(fan, r) for r in mori.primitive_relations(fan)]
        for cls in table:
            assert lattice.nonneg_rational_combination(walls, cls) is not None
        for cls in walls:
            assert lattice.nonneg_rational_combination(table, cls) is not None


def test_wall_classes_match_brute_oracle(catalog_fans):
    fans = (
        list(catalog_fans.values())
        + chain_prefixes()
        + catalog.enumerate_fano(1)
        + catalog.enumerate_fano(2)
        + [twisted_threefold()]
    )
    for fan in fans:
        assert mori.wall_classes(fan) == brute_wall_classes(fan), fan.names()


def test_wall_classes_y(tower):
    # Y's 34 walls give 11 distinct classes; the extremal primitive classes
    # are among them
    _, _, _, y = tower
    walls = mori.wall_classes(y)
    assert len(walls) == 11
    for info in mori.mori_cone(y).relations:
        if info.extremal:
            assert info.curve_class in walls


# a=(1,0), b=(0,1), c=(-1,-1) with cones ab and bc: the rays a and c lie in
# one maximal cone each
INCOMPLETE = make_fan(
    2, [("a", (1, 0)), ("b", (0, 1)), ("c", (-1, -1))], [(0, 1), (1, 2)]
)
# complete, but <a,b> = <(1,0),(1,2)> has determinant 2
NON_UNIMODULAR = make_fan(
    2, [("a", (1, 0)), ("b", (1, 2)), ("c", (-1, -1))], [(0, 1), (1, 2), (0, 2)]
)


# P^2 with one more generator, (1,1), that lies in no maximal cone
UNUSED_RAY = make_fan(
    2,
    [("a", (1, 0)), ("b", (0, 1)), ("c", (-1, -1)), ("d", (1, 1))],
    [(0, 1), (1, 2), (0, 2)],
)


@pytest.mark.parametrize(
    "fans",
    [
        [INCOMPLETE],
        [NON_UNIMODULAR],
        [TWICE_WINDING],
        [FOLDED_CYCLE],
        [ZIGZAG_CYCLE],
        [DOUBLE_P2],
        [UNUSED_RAY],
        rejected_complexes(21, 300),
    ],
    ids=[
        "incomplete",
        "non-unimodular",
        "twice-winding",
        "folded",
        "zigzag",
        "double-p2",
        "unused-ray",
        "random",
    ],
)
def test_verdicts_reject_bad_fans_with_typed_errors(monkeypatch, fans):
    # every reader of a fan's geometry stops at the one gate,
    # fan.wall_classes, before it runs an LP or reads its arguments; a query
    # of two fans stops there with the bad fan on either side
    real = lattice.solve_eq_nonneg
    lp_calls = []

    def counting(rows, rhs):
        lp_calls.append(rows)
        return real(rows, rhs)

    monkeypatch.setattr(lattice, "solve_eq_nonneg", counting)
    for fan in fans:
        p = catalog.projective_space(fan.dim)
        for verdict in (
            mori.wall_classes,
            mori.is_fano_by_walls,
            mori.is_projective,
            mori.is_fano,
            mori.primitive_relations,
            mori.mori_cone,
            birational.blow_down_candidates,
            lambda f: birational.blow_down(f, 0),  # a bare ray
            lambda f: birational.blow_down(f, 0, via=(1, 2)),
            lambda f: contract_ray(f, 0, (1, 2)),
            lambda f: birational.factor_morphism(f, f),
            lambda f: birational.factor_morphism(f, p),
            lambda f: birational.factor_morphism(p, f),
            lambda f: locate_relint(f, (1,) * f.dim),
            lambda f: mori.primitive_relation(f, (0, 1)),
            lambda f: refines(f, p),
            lambda f: refines(p, f),
            lambda f: fan_isomorphism(f, p),
            lambda f: fan_isomorphism(p, f),
            canonical_gl_key,
        ):
            with pytest.raises(InternalInconsistencyError, match="fails validate_fan"):
                verdict(fan)
    assert len(lp_calls) == 0


def test_relation_of_an_incomplete_fan_raises():
    # {a, c} is a primitive collection of the two cones <a,b> and <b,c>,
    # but a + c = (0, -1) lies in neither
    assert ("a", "c") in collection_names(INCOMPLETE)
    with pytest.raises(InternalInconsistencyError, match="fails validate_fan"):
        mori.primitive_relation(INCOMPLETE, ("a", "c"))


def test_relation_of_a_fan_with_an_unused_ray_raises():
    # {a, b, c} is a primitive collection of P^2 and its sum, the zero
    # vector, lies in the zero cone; the unused ray d makes the fan invalid,
    # and the single relation raises as the table does
    assert (0, 1, 2) in mori.primitive_collections(UNUSED_RAY)
    for query in (mori.primitive_relations, lambda f: rel(f, (0, 1, 2))):
        with pytest.raises(InternalInconsistencyError, match="fails validate_fan"):
            query(UNUSED_RAY)


def test_is_fano_y(tower):
    _, _, _, y = tower
    fano, witnesses = mori.is_fano(y)
    assert fano and witnesses == ()


def test_is_fano_w(tower):
    _, _, w, _ = tower
    fano, witnesses = mori.is_fano(w)
    assert not fano
    assert names_of(w, witnesses) == {("e1", "e6")}
    assert rel(w, ("e1", "e6")).degree == 0


def test_is_fano_p4(tower):
    assert mori.is_fano(tower[0]) == (True, ())


def test_golden_counts(catalog_fans):
    golden = {
        # key: (rays, maxcones, collections, extremal classes)
        "p1": (2, 2, 1, 1),
        "p2": (3, 3, 1, 1),
        "p3": (4, 4, 1, 1),
        "p4": (5, 5, 1, 1),
        "paper-X": (6, 9, 2, 2),
        "paper-W": (7, 13, 5, 3),
        "paper-Y": (8, 17, 7, 4),
    }
    for key, (n_rays, n_cones, n_colls, n_ext) in golden.items():
        fan = catalog_fans[key]
        assert len(fan.generators) == n_rays
        assert len(fan.max_cones) == n_cones
        assert len(mori.primitive_collections(fan)) == n_colls
        summary = mori.mori_cone(fan)
        assert sum(1 for i in summary.relations if i.extremal) == n_ext


def test_relation_accepts_indices_and_names(tower):
    _, x, _, _ = tower
    by_names = rel(x, ("e1", "e2", "e3"))
    by_idx = mori.primitive_relation(x, resolve_cone(x, (1, 2, 3)))
    assert by_names == by_idx


def test_relation_only_for_primitive_collections(tower):
    # {e1,e2} is a cone of P^2, not a primitive collection; its sum lies in
    # its own relative interior, which read as e1 + e2 = e1 + e2, degree 0
    p2 = catalog.projective_space(2)
    with pytest.raises(InvalidArgumentError, match="not a primitive collection"):
        mori.primitive_relation(p2, ("e1", "e2"))
    # every ray set of the tower: a relation exactly on the minimal non-faces
    for fan in tower:
        brute = set(brute_primitive_collections(fan))
        n = len(fan.generators)
        for h in range(1, n + 1):
            for subset in combinations(range(n), h):
                if subset in brute:
                    assert mori.primitive_relation(fan, subset).collection == subset
                else:
                    with pytest.raises(InvalidArgumentError):
                        mori.primitive_relation(fan, subset)
