from collections import Counter

import pytest

from toricfan import _fano3, catalog, lattice, mori
from toricfan import canonical_gl_key, fan_isomorphism, structurally_equal
from toricfan import validate_fan
from toricfan.fan import _dual_rows
from toricfan.errors import InvalidDimensionError, UnsupportedDimensionError


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
    assert catalog.catalog_fan("paper-Y") == tower[3]
    with pytest.raises(KeyError):
        catalog.catalog_fan("nope")


def test_catalog_provenance(tower):
    entry = catalog.catalog_entry("paper-W")
    assert entry.base == "P^4"
    assert entry.centers == (("e1", "e2", "e3"), ("e2", "e3", "e4"))
    assert "blow up" in entry.describe()
    # replaying the recipe reproduces the stored fan
    from toricfan import star_subdivide

    fan = catalog.catalog_fan(entry.base.replace("P^", "p"))
    for i, center in enumerate(entry.centers):
        fan = star_subdivide(fan, center, f"e{5 + i}")
    assert structurally_equal(fan, entry.fan)


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


def test_degree_prune_keeps_every_class(monkeypatch):
    """The degree rule cuts only branches that cannot close Fano: with the
    side condition alone, dimensions 1 and 2 give the same classes."""
    real = _fano3._candidates
    cut = []

    def side_condition_only(wall, p):
        phi = _dual_rows(wall + (p,))[-1]
        out = tuple(
            w for w in _fano3._primitive_pool(len(p)) if lattice.dot(phi, w) == -1
        )
        cut.extend(set(out) - set(real(wall, p)))
        return out

    def keys():
        return [
            [canonical_gl_key(f) for f in _fano3.enumerate_fano_fans(d)]
            for d in (1, 2)
        ]

    pruned = keys()
    monkeypatch.setattr(_fano3, "_candidates", side_condition_only)
    unpruned = keys()
    assert cut  # the rule does cut something in dimension 2
    assert unpruned == pruned


def test_enumerate_rejects_other_dims():
    with pytest.raises(UnsupportedDimensionError):
        catalog.enumerate_fano(0)
    with pytest.raises(UnsupportedDimensionError):
        catalog.enumerate_fano(4)


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
