from collections import Counter

import pytest

from toricfan import _fano3, catalog, fan as fan_module, mori
from toricfan import canonical_gl_key, fan_isomorphism
from toricfan import validate_fan
from toricfan.errors import InvalidDimensionError, UnsupportedDimensionError

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
    for fan in catalog.enumerate_fano(2):
        for g in fan.generators:
            assert all(abs(c) <= 4 for c in g.vector)


def test_enumerate_dim2_deterministic():
    first = catalog.enumerate_fano(2)
    second = catalog.enumerate_fano(2)
    assert first == second


def closed_complexes(monkeypatch, dims):
    """Every complex the search closes, per dimension, with the classes it
    returns. Every complex the search enters is checked against the two
    facts that let it keep no visited set and no cone cap: none is entered
    twice, and an open one has at most V - 1 cones in dimension 2 and
    2V - 5 in dimension 3, V its number of vertices."""
    closed = []
    entered = []
    real_fan, real_owners = _fano3._fan_from_cones, _fano3._wall_owners

    def record(dim, cones):
        fan = real_fan(dim, cones)
        closed[-1].append(fan)
        return fan

    def enter(cones):  # grow calls it once per complex it enters
        entered.append(cones)
        return real_owners(cones)

    monkeypatch.setattr(_fano3, "_fan_from_cones", record)
    monkeypatch.setattr(_fano3, "_wall_owners", enter)
    keys = []
    for d in dims:
        closed.append([])
        entered.clear()
        keys.append([canonical_gl_key(f) for f in _fano3.enumerate_fano_fans(d)])
        assert len(set(entered)) == len(entered) > len(closed[-1])
        for cones in entered:
            v = len({x for cone in cones for x in cone})
            assert v <= max_rays(d)
            if all(len(o) == 2 for o in real_owners(cones).values()):
                continue  # closed
            assert len(cones) <= {1: 1, 2: v - 1, 3: 2 * v - 5}[d]
    return keys, closed


def max_rays(dim):
    """Casagrande's bound on the vertices of a simplicial reflexive
    polytope, so on the rays of a smooth Fano fan: 3n - (n mod 2)."""
    return 3 * dim - dim % 2


def test_fano_classes_respect_the_vertex_bound():
    # the bound is sharp in dimension 2: the hexagon, six rays
    for d in (1, 2):
        rays = [len(f.generators) for f in catalog.enumerate_fano(d)]
        assert max(rays) == max_rays(d)


def test_degree_prune_keeps_every_class(monkeypatch):
    """The wall rule cuts only branches that cannot close Fano: with it off
    at both of its sites, the expanded wall and the other walls a new cone
    closes, dimensions 1 and 2 give the same classes."""
    _fano3._candidates.cache_clear()  # it holds the rule's cuts
    try:
        pruned, closed = closed_complexes(monkeypatch, (1, 2))
        assert [len(c) for c in closed] == [1, 12]
        assert all(mori.is_fano(f)[0] for c in closed for f in c)

        monkeypatch.setattr(_fano3, "_breaks_fano", lambda wall, p, q: False)
        _fano3._candidates.cache_clear()
        unpruned, closed = closed_complexes(monkeypatch, (1, 2))
        assert not all(mori.is_fano(f)[0] for f in closed[1])
        assert unpruned == pruned
    finally:
        monkeypatch.undo()
        _fano3._candidates.cache_clear()


def test_wall_rule_matches_primitive_fano_verdict(catalog_fans):
    """Kleiman's criterion, "every wall relation has sum(a_i) <= 1", read
    through the enumerator's rule helper on vector cones, against the
    degrees of the primitive relations and ``mori.is_fano``, on every fan of
    the seeded chains too, not only their last ones, W and the
    non-projective threefold among them."""
    fans = (
        list(catalog_fans.values())
        + catalog.enumerate_fano(2)
        + chain_prefixes()
        + [twisted_threefold()]
    )
    verdicts = []
    for fan in fans:
        cones = [tuple(sorted(fan.cone_vectors(c))) for c in fan.max_cones]
        by_rule = not any(
            _fano3._breaks_fano(cone, k, other[j])
            for (cone, k), (other, j) in fan_module._wall_owners(cones).values()
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
    """In dimension 3 the wall rule at the other walls a new cone closes
    does most of the cutting: with the rule on the expanded wall alone the
    search closes 2,721 complexes, with both sites 233, all of them Fano."""
    keys, closed = closed_complexes(monkeypatch, (3,))
    assert len(closed[0]) == 233
    # and every class has at most 8 rays, 8 attained
    assert max(len(f.generators) for f in closed[0]) == max_rays(3) == 8
    assert all(mori.is_fano(f)[0] for f in closed[0])
    assert keys[0] == [canonical_gl_key(f) for f in catalog.enumerate_fano(3)]
