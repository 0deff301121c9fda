from collections import Counter
from itertools import product
from math import gcd

import pytest

from toricfan import _fano3, catalog, lattice, mori
from toricfan import canonical_gl_key, fan_isomorphism
from toricfan import validate_fan
from toricfan.errors import InvalidDimensionError, UnsupportedDimensionError
from toricfan.fan import _dual_rows

import oracles
from conftest import chain_prefixes, twisted_threefold


# ---------------------------------------------------------------------------
# projective spaces


def test_p1():
    fan = catalog.projective_space(1)
    assert fan.vectors() == ((-1,), (1,))
    assert len(fan.max_cones) == 2
    assert validate_fan(fan).ok


def test_p4_shape():
    fan = catalog.projective_space(4)
    assert len(fan.generators) == 5
    assert len(fan.max_cones) == 5
    rels = [
        mori.primitive_relation(fan, c)
        for c in mori.primitive_collections(fan)
    ]
    assert len(rels) == 1
    assert rels[0].degree == 5


def test_p2_fano_picard():
    fan = catalog.projective_space(2)
    assert mori.is_fano(fan)[0]
    assert mori.mori_cone(fan).picard_number == 1


def test_projective_space_rejects_nonpositive():
    with pytest.raises(InvalidDimensionError):
        catalog.projective_space(0)
    with pytest.raises(InvalidDimensionError):
        catalog.projective_space(-2)


# ---------------------------------------------------------------------------
# the blow-up tower


def test_tower_generators(tower):
    p4, x, w, y = tower
    assert p4.names() == ("e0", "e1", "e2", "e3", "e4")
    assert x.names() == ("e0", "e1", "e2", "e3", "e4", "e5")
    assert w.names() == ("e0", "e1", "e2", "e3", "e4", "e5", "e6")
    assert y.names() == ("e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7")


def test_tower_maxcone_counts(tower):
    assert [len(f.max_cones) for f in tower] == [5, 9, 13, 17]


def test_tower_validates(tower):
    for fan in tower:
        assert validate_fan(fan).ok


def test_catalog_keys_and_lookup(tower):
    assert catalog.catalog_keys() == (
        "p1",
        "p2",
        "p3",
        "p4",
        "paper-X",
        "paper-W",
        "paper-Y",
    )
    tower_keys = ("p4", "paper-X", "paper-W", "paper-Y")
    assert tuple(map(catalog.catalog_fan, tower_keys)) == tower
    with pytest.raises(
        KeyError, match="unknown catalog key 'nope'; available: p1, p2, p3,"
    ):
        catalog.catalog_fan("nope")


def test_catalog_fans_validate(catalog_fans):
    for fan in catalog_fans.values():
        assert validate_fan(fan).ok


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_dim1():
    fans = catalog.enumerate_fano(1)
    assert len(fans) == 1
    assert fan_isomorphism(fans[0], catalog.projective_space(1)) is not None


def picard_counts(fans):
    return dict(Counter(mori.mori_cone(f).picard_number for f in fans))


def test_enumerate_dim2_count():
    fans = catalog.enumerate_fano(2)
    assert len(fans) == 5
    # P^2; P^1 x P^1 and F_1; the blow-ups of P^2 in two and three points
    assert picard_counts(fans) == {1: 1, 2: 2, 3: 1, 4: 1}


def test_enumerate_dim2_shapes():
    fans = catalog.enumerate_fano(2)
    assert sorted(len(f.generators) for f in fans) == [3, 4, 4, 5, 6]
    p2 = catalog.projective_space(2)
    assert any(fan_isomorphism(f, p2) is not None for f in fans)


def test_enumerate_dim2_entries_valid_and_fano():
    for fan in catalog.enumerate_fano(2):
        assert validate_fan(fan).ok
        assert mori.is_fano(fan)[0]


def test_enumerate_dim2_pairwise_nonisomorphic():
    fans = catalog.enumerate_fano(2)
    for i in range(len(fans)):
        for j in range(i + 1, len(fans)):
            assert fan_isomorphism(fans[i], fans[j]) is None


def test_enumerate_dim2_coordinates_within_bound():
    # the search draws every ray from the special-facet pool, so the
    # representatives' coordinates lie in [-n - 1, n^2] = [-3, 4]
    pool = set(_fano3._primitive_pool(2))
    for fan in catalog.enumerate_fano(2):
        for g in fan.generators:
            assert g.vector in pool
            assert all(abs(c) <= 4 for c in g.vector)


def test_enumerate_dim2_deterministic():
    first = catalog.enumerate_fano(2)
    second = catalog.enumerate_fano(2)
    assert first == second


def closed_complexes(monkeypatch, dims):
    """Every complex the search closes and every complex it enters, per
    dimension, with the classes it returns, in the order the search meets
    them. Every complex the search enters is checked against the two
    facts that let it keep no visited set and no cone cap: none is entered
    twice, and an open one has at most V - 1 cones in dimension 2 and
    2V - 5 in dimension 3, V its number of vertices. Every closed complex
    is checked to be Fano by Batyrev's criterion, a positive degree on
    every primitive relation, beside the wall verdict the search reads."""
    closed = []
    entered = []
    real_fan, real_owners = _fano3._fan_from_cones, _fano3._wall_owners

    def record(dim, cones):
        fan = real_fan(dim, cones)
        closed[-1].append(fan)
        return fan

    def enter(cones):  # grow calls it once per complex it enters
        entered[-1].append(cones)
        return real_owners(cones)

    keys = []
    with monkeypatch.context() as m:  # undone on return, so calls may repeat
        m.setattr(_fano3, "_fan_from_cones", record)
        m.setattr(_fano3, "_wall_owners", enter)
        for d in dims:
            closed.append([])
            entered.append([])
            fans = _fano3.enumerate_fano_fans(d)
            keys.append([canonical_gl_key(f) for f in fans])
    for d, entered_d, closed_d in zip(dims, entered, closed):
        assert len(set(entered_d)) == len(entered_d) > len(closed_d)
        for fan in closed_d:
            assert all(r.degree > 0 for r in mori.primitive_relations(fan))
        for cones in entered_d:
            v = len({x for cone in cones for x in cone})
            if all(len(o) == 2 for o in real_owners(cones).values()):
                continue  # closed
            assert len(cones) <= {1: 1, 2: v - 1, 3: 2 * v - 5}[d]
    return keys, closed, entered


def max_rays(dim):
    """Casagrande's bound on the vertices of a simplicial reflexive
    polytope, so on the rays of a smooth Fano fan: 3n - (n mod 2)."""
    return 3 * dim - dim % 2


def test_fano_classes_respect_the_vertex_bound():
    # the bound is sharp in dimension 2: the hexagon, six rays
    for d in (1, 2):
        rays = [len(f.generators) for f in catalog.enumerate_fano(d)]
        assert max(rays) == max_rays(d)


def against_retired_rule(monkeypatch, dims):
    """The search under the convexity rule and under the retired rule
    (``oracles.retired_fano_rule`` in place of ``_fano3._convex``): both
    close the same complexes in the same order and return the same
    classes, all Fano, and the complexes the convexity rule enters are a
    subsequence of those the retired rule enters. Returns the numbers
    entered under each rule and the numbers closed, per dimension."""
    keys, closed, entered = closed_complexes(monkeypatch, dims)
    monkeypatch.setattr(_fano3, "_convex", oracles.retired_fano_rule)
    try:
        old_keys, old_closed, old_entered = closed_complexes(monkeypatch, dims)
    finally:
        oracles._faces_meet.cache_clear()
    assert keys == old_keys and closed == old_closed
    assert all(mori.is_fano(f)[0] for c in closed for f in c)
    for new, old in zip(entered, old_entered):
        rest = iter(old)
        assert all(cones in rest for cones in new)
    return (
        [len(e) for e in entered],
        [len(e) for e in old_entered],
        [len(c) for c in closed],
    )


def test_degree_prune_keeps_every_class(monkeypatch):
    """The convexity rule cuts only branches that cannot close Fano: against
    the retired rule, the wall rule at every wall a new cone closes plus the
    pairwise face check, dimensions 1 and 2 close the same 1 and 9
    complexes, while dimension 2 enters 24 complexes where the retired
    rule enters 26."""
    assert against_retired_rule(monkeypatch, (1, 2)) == ([2, 24], [2, 26], [1, 9])


@pytest.mark.slow
def test_convexity_rule_matches_retired_rule_dim3(monkeypatch):
    assert against_retired_rule(monkeypatch, (3,)) == ([2129], [8012], [158])


def test_wall_rule_matches_primitive_fano_verdict(catalog_fans):
    """The face-fan criterion, "u_s(v) <= 0 for every maximal cone s and
    every ray v off s", read through the enumerator's convexity rule on
    vector cones, against the degrees of the primitive relations and
    ``mori.is_fano``, on every fan of the seeded chains too, not only their
    last ones, W and the non-projective threefold among them. The rule
    adds the cones one at a time, as the search does: each (s, v) is
    weighed when the later of s and the first cone holding v comes in."""
    fans = (
        list(catalog_fans.values())
        + catalog.enumerate_fano(2)
        + chain_prefixes()
        + [twisted_threefold()]
    )
    verdicts = []
    for fan in fans:
        cones = [tuple(sorted(fan.cone_vectors(c))) for c in fan.max_cones]
        by_rule = all(
            _fano3._convex(cones[:i], {v for c in cones[:i] for v in c}, cone)
            for i, cone in enumerate(cones)
        )
        by_degrees = all(r.degree > 0 for r in mori.primitive_relations(fan))
        assert by_rule == by_degrees == mori.is_fano(fan)[0]
        verdicts.append(by_rule)
    assert (verdicts.count(True), verdicts.count(False)) == (15, 10)
    assert verdicts[5] is False and verdicts[-1] is False  # W, the threefold


def test_enumerate_rejects_other_dims():
    with pytest.raises(UnsupportedDimensionError):
        catalog.enumerate_fano(0)
    with pytest.raises(UnsupportedDimensionError):
        catalog.enumerate_fano(4)


@pytest.mark.parametrize("dim", [2.5, "2", 2.0, True, None, [2]])
def test_enumerate_rejects_non_integer_dims(dim):
    with pytest.raises(UnsupportedDimensionError):
        catalog.enumerate_fano(dim)


@pytest.mark.parametrize("n", [2.5, 2.0, True, "2"])
def test_projective_space_rejects_non_integer(n):
    with pytest.raises(InvalidDimensionError):
        catalog.projective_space(n)


@pytest.mark.slow
def test_enumerate_dim3_count():
    fans = catalog.enumerate_fano(3)
    assert len(fans) == 18
    assert picard_counts(fans) == {1: 1, 2: 4, 3: 7, 4: 4, 5: 2}
    for fan in fans:
        assert validate_fan(fan).ok
        assert mori.is_fano(fan)[0]
    keys = {tuple(map(tuple, f.vectors())) for f in fans}
    assert len(keys) == 18


@pytest.mark.slow
def test_enumerate_dim3_closes_only_fano(monkeypatch):
    """The convexity rule leaves dimension 3 to enter 2,129 complexes and
    close 158, all of them Fano; the retired wall rule and face check
    entered 8,012 (``test_convexity_rule_matches_retired_rule_dim3``)."""
    keys, closed, entered = closed_complexes(monkeypatch, (3,))
    assert (len(entered[0]), len(closed[0])) == (2129, 158)
    # and every class has at most 8 rays, 8 attained
    assert max(len(f.generators) for f in closed[0]) == max_rays(3) == 8
    assert all(mori.is_fano(f)[0] for f in closed[0])
    assert keys[0] == [canonical_gl_key(f) for f in catalog.enumerate_fano(3)]


def test_primitive_pool_sizes():
    assert [len(_fano3._primitive_pool(n)) for n in (1, 2, 3, 4)] == [2, 11, 112, 1849]
    # the search starts from the pool's vectors of sum 1, the unit vectors
    for n in (1, 2, 3, 4):
        units = [v for v in _fano3._primitive_pool(n) if sum(v) == 1]
        assert units == sorted(tuple(int(i == j) for j in range(n)) for i in range(n))


@pytest.mark.slow
def test_fano_rays_lie_in_the_special_facet_pool(catalog_fans):
    """The bound ``_fano3`` derives from the special facet, on every Fano
    fan at hand: each maximal cone holding the sum of the rays, mapped to
    the standard cone by its dual rows, takes every ray into the pool."""
    fans = [f for d in (1, 2, 3) for f in catalog.enumerate_fano(d)] + [
        catalog_fans[k] for k in ("p1", "p2", "p3", "p4", "paper-X", "paper-Y")
    ]
    cones = rays = 0
    for fan in fans:
        assert mori.is_fano(fan)[0]
        pool = set(_fano3._primitive_pool(fan.dim))
        nu = tuple(map(sum, zip(*fan.vectors())))
        for cone in fan.max_cones:
            dual = _dual_rows(fan.cone_vectors(cone))
            if any(lattice.dot(row, nu) < 0 for row in dual):
                continue
            cones += 1
            for v in fan.vectors():
                assert tuple(lattice.dot(row, v) for row in dual) in pool
                rays += 1
    assert (cones, rays) == (123, 703)


def wider_pool(dim):
    """The unit vectors, rays of the standard cone, and every primitive v
    with coordinates in [-n - 2, n^2 + 1] and -n - 1 <= sum(v) <= 0, in lex
    order: a strict superset of the special-facet pool, without its
    per-coordinate bound v_i >= sum(v) - 1."""
    units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    box = product(range(-dim - 2, dim * dim + 2), repeat=dim)
    rest = [v for v in box if -dim - 1 <= sum(v) <= 0 and gcd(*v) == 1]
    return tuple(sorted(units + rest))


@pytest.mark.slow
def test_wider_coordinate_bound_closes_the_same_complexes(monkeypatch):
    """A differential check of the special-facet pool: drawn from a wider
    pool, dimensions 2 and 3 enter 27 and 17,599 complexes, not 24 and
    2,129, but close the same 9 and 158 and return the same classes, as
    every ray of a closed complex obeys the bound."""
    keys, closed, _ = closed_complexes(monkeypatch, (2, 3))
    for d in (2, 3):
        assert set(_fano3._primitive_pool(d)) < set(wider_pool(d))
    monkeypatch.setattr(_fano3, "_primitive_pool", wider_pool)
    _fano3._candidates.cache_clear()
    try:
        wide_keys, wide_closed, entered = closed_complexes(monkeypatch, (2, 3))
    finally:
        _fano3._candidates.cache_clear()
    assert wide_keys == keys
    assert [len(c) for c in wide_closed] == [len(c) for c in closed] == [9, 158]
    assert [set(c) for c in wide_closed] == [set(c) for c in closed]
    assert [len(e) for e in entered] == [27, 17599]
