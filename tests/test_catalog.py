import builtins
import time
from collections import Counter
from itertools import product
from math import gcd, inf

import pytest

from toricfan import _fano3, catalog, lattice, mori
from toricfan import canonical_gl_key, fan_isomorphism, structural_key
from toricfan import make_fan, validate_fan
from toricfan.errors import (
    InternalInconsistencyError,
    InvalidDimensionError,
    UnsupportedDimensionError,
)
from toricfan.fan import ValidationReport, _dual_rows, _wall_owners

import oracles
from conftest import chain_prefixes, search_root, twisted_threefold


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
    for key in (["p1"], 5):
        with pytest.raises(KeyError, match="unknown catalog key"):
            catalog.catalog_fan(key)


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
    # two uncached searches: each carries its found classes from one
    # closed complex to the next, and none may leak into the other
    first = _fano3.enumerate_fano_fans(2)
    second = _fano3.enumerate_fano_fans(2)
    assert first == second == catalog.enumerate_fano(2)
    assert len(first) == 5


def unpruned(monkeypatch):
    """Runs the search with no coordinate permutation to prune by, so it
    tries every apex at every open wall, not one per orbit of the
    permutations fixing the complex."""
    monkeypatch.setattr(_fano3, "_coordinate_permutations", lambda dim: ())


def closed_complexes(monkeypatch, dims):
    """Every complex the search closes and every complex it enters, per
    dimension, in the order the search meets them, with the classes it
    returns. Every complex the search enters is checked against the two
    facts that let it keep no visited set and no cone cap: none is entered
    twice, and an open one has at most V - 1 cones in dimension 2 and
    2V - 5 in dimension 3, V its number of vertices. Every closed complex
    is checked to be Fano by Batyrev's criterion, a positive degree on
    every primitive relation, beside the wall verdict the search reads, and
    to equal ``make_fan`` of its own rays and cones, as the search builds
    it with no structural check. A closed complex is recorded as the search
    validates it, once, so the representative the search builds for a new
    class is not counted."""
    closed = []
    entered = []
    real_validate, real_rule = _fano3.validate_fan, _fano3._convex

    def record(fan):
        closed[-1].append(fan)
        return real_validate(fan)

    def rule(cones, vertices, new_cone, u, admissible, nu):
        cones = frozenset(cones)  # the search's complex, which it changes later
        child = real_rule(cones, vertices, new_cone, u, admissible, nu)
        if child is not None:  # grow enters the complex with new_cone added
            entered[-1].append(cones | {new_cone})
        return child

    classes = []
    with monkeypatch.context() as m:  # undone on return, so calls may repeat
        m.setattr(_fano3, "validate_fan", record)
        m.setattr(_fano3, "_convex", rule)
        for d in dims:
            closed.append([])
            entered.append([search_root(d)])
            classes.append(_fano3.enumerate_fano_fans(d))
    for d, entered_d, closed_d in zip(dims, entered, closed):
        assert len(set(entered_d)) == len(entered_d) > len(closed_d)
        for fan in closed_d:
            assert fan == make_fan(d, fan.generators, fan.max_cones)
            assert all(r.degree > 0 for r in mori.primitive_relations(fan))
        for cones in entered_d:
            v = len({x for cone in cones for x in cone})
            if all(len(o) == 2 for o in _wall_owners(cones).values()):
                continue  # closed
            assert len(cones) <= {1: 1, 2: v - 1, 3: 2 * v - 5}[d]
    return classes, closed, entered


def class_keys(classes):
    return [[canonical_gl_key(f) for f in fans] for fans in classes]


def test_one_apex_per_orbit_keeps_every_class(monkeypatch):
    """Trying one apex per orbit of the permutations fixing the complex
    returns the same classes, representatives and canonical keys in
    dimensions 1 to 3 as trying every apex, and closes a subsequence of the
    complexes the unpruned search closes: 95 of 158 in dimension 3, which
    enters 1,160 complexes instead of 2,129."""
    classes, closed, entered = closed_complexes(monkeypatch, (1, 2, 3))
    with monkeypatch.context() as m:
        unpruned(m)
        all_classes, all_closed, all_entered = closed_complexes(m, (1, 2, 3))
    assert classes == all_classes
    assert class_keys(classes) == class_keys(all_classes)
    for some, every in zip(closed, all_closed):
        rest = iter(every)
        assert all(fan in rest for fan in some)
    assert [len(c) for c in closed] == [1, 9, 95]
    assert [len(c) for c in all_closed] == [1, 9, 158]
    assert [len(e) for e in entered] == [2, 24, 1160]
    assert [len(e) for e in all_entered] == [2, 24, 2129]


def test_enumeration_matches_brute_deduplication(monkeypatch):
    """The classes the search returns, each as its canonical form, equal
    every complex it closes deduplicated by the brute-force canonical key,
    each class built from its key: the same representatives in the same
    order. Dimension 3 closes 95 complexes for 18 classes, most of them
    looked up by a vector part that some found class has."""
    classes, closed, _ = closed_complexes(monkeypatch, (1, 2, 3))
    assert classes == [oracles.brute_fano_classes(c) for c in closed]
    assert [len(c) for c in classes] == [1, 5, 18]


def assert_canonical_forms(fans):
    """Each representative is its class's canonical form, the fan built
    from its brute-force canonical key (rays e0, e1, ... in lex order), so
    it depends on the class alone and not on the order in which the search
    closes the complexes of that class."""
    for fan in fans:
        assert fan == oracles.fan_of_key(oracles.brute_canonical_gl_key(fan))
        assert structural_key(fan) == canonical_gl_key(fan)


def test_representatives_are_canonical_forms():
    for d in (1, 2, 3):
        assert_canonical_forms(catalog.enumerate_fano(d))


def test_representatives_do_not_depend_on_the_wall_order(monkeypatch):
    """Expanding the greatest open wall in place of the least closes the
    complexes of each class in another order, the first of a class being
    another complex in dimensions 2 and 3, yet the search returns the same
    fans: every Fano completion of a complex puts one cone on each of its
    open walls, whichever is expanded first."""
    least = [_fano3.enumerate_fano_fans(d) for d in (1, 2, 3)]

    def greatest_wall(items):  # the search's min over its set of open walls
        return builtins.max(items) if isinstance(items, set) else builtins.min(items)

    monkeypatch.setattr(_fano3, "min", greatest_wall, raising=False)
    assert [_fano3.enumerate_fano_fans(d) for d in (1, 2, 3)] == least


def test_a_third_owner_of_a_wall_raises(monkeypatch):
    """Without the convexity rule nothing keeps a new cone off a closed
    wall: the search raises as the wall takes its third owner, in
    dimension 2 at the fourth cone tried."""
    tried = []

    def lax(cones, vertices, new_cone, u, admissible, nu):
        tried.append(new_cone)
        return admissible

    monkeypatch.setattr(_fano3, "_convex", lax)
    with pytest.raises(InternalInconsistencyError, match="covered three times"):
        _fano3.enumerate_fano_fans(2)
    assert len(tried) == 4


def failed_validation(fan):
    return ValidationReport(True, False, True, ("stub",))


@pytest.mark.parametrize(
    "module, name, stub, message",
    [
        (_fano3, "validate_fan", failed_validation, "failed validation"),
        (mori, "is_fano", lambda fan: (False, ()), "is not Fano"),
    ],
    ids=["validation", "fano"],
)
def test_a_closed_complex_failing_a_self_check_raises(
    monkeypatch, module, name, stub, message
):
    """Each closed complex is checked by ``validate_fan`` and by the wall
    verdict of ``mori.is_fano``; a stub failing either check makes the
    search raise at the first complex it closes."""
    monkeypatch.setattr(module, name, stub)
    expected = f"^closed cone complex {message}$"
    with pytest.raises(InternalInconsistencyError, match=expected):
        _fano3.enumerate_fano_fans(2)


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
    classes, closed, entered = closed_complexes(monkeypatch, dims)
    monkeypatch.setattr(_fano3, "_convex", oracles.retired_fano_rule)
    try:
        old_classes, old_closed, old_entered = closed_complexes(monkeypatch, dims)
    finally:
        oracles._faces_meet.cache_clear()
    assert classes == old_classes and closed == old_closed
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
    unpruned(monkeypatch)
    assert against_retired_rule(monkeypatch, (3,)) == ([2129], [8012], [158])


class Enough(Exception):
    """Stops a search after the complexes a test reads."""


def against_pool_scan(monkeypatch, dim, limit=None, pruned=False):
    """The search in dimension ``dim``, or its first ``limit`` complexes,
    against itself before it carried an admissible set. On every complex it
    enters, the new cones it tries are those of a scan of the whole pool
    (``oracles.scanned_cones``), in the same order; those it enters are
    those the two-half rule admits (``oracles.convex_rule``); the
    functional it weighs each by, read off the cone's owner by the wall
    formula, is the inverse-based one (``oracles.functional``); the
    admissible set it carries is its recomputation from scratch
    (``oracles.admissible_set``); and the dual rows it carries for each cone
    it enters, exchanged from rows it carried before (``fan._exchange``),
    are that cone's inverse (``fan._dual_rows``). A complex still on the
    search path when the search stops has tried a prefix of its cones.

    Without ``pruned`` the search runs ``unpruned``. With it, the group the
    search carries on every complex it enters is the brute-force one
    (``oracles.cone_stabilizer``), and the cones it tries are the scan's
    less those the group mirrors onto a cone tried before
    (``oracles.mirrored_cones``). Returns the numbers of complexes
    entered, cones tried and cones skipped by symmetry."""
    entered, tried, admitted, sets, groups = [search_root(dim)], {}, {}, {}, {}
    real_rule, real_fixing = _fano3._convex, _fano3._fixing
    real_exchange = _fano3._exchange
    (start,) = entered[0]
    carried = {_dual_rows(start)}  # the start cone's rows: its own vectors
    entering = []  # the cone admitted last, until its rows are exchanged

    def exchange(rows, k, coeffs, j):
        new = real_exchange(rows, k, coeffs, j)
        assert rows in carried  # the owner's, checked when it was entered
        cone = entering.pop()
        assert new == _dual_rows(cone), cone
        carried.add(new)
        return new

    def fixing(group, vectors):
        kept = real_fixing(group, vectors)
        if len(vectors) == dim:  # the group of the complex the rule entered
            groups[entered[-1]] = kept
        return kept

    def rule(cones, vertices, new_cone, u, admissible, nu):
        cones = frozenset(cones)  # the search's complex, which it changes later
        assert u == oracles.functional(new_cone), new_cone
        tried.setdefault(cones, []).append(new_cone)
        sets[cones] = admissible
        child = real_rule(cones, vertices, new_cone, u, admissible, nu)
        if child is not None:  # grow enters the complex with new_cone added
            admitted.setdefault(cones, []).append(new_cone)
            sets[cones | {new_cone}] = child
            if len(entered) == limit:
                raise Enough(cones | {new_cone})
            entered.append(cones | {new_cone})
            entering.append(new_cone)
        return child

    stopped = frozenset()
    with monkeypatch.context() as m:
        m.setattr(_fano3, "_convex", rule)
        m.setattr(_fano3, "_fixing", fixing)
        m.setattr(_fano3, "_exchange", exchange)
        if not pruned:
            unpruned(m)
        groups[entered[0]] = _fano3._coordinate_permutations(dim)
        try:
            _fano3.enumerate_fano_fans(dim)
        except Enough as stop:
            (stopped,) = stop.args
    assert not entering  # every cone entered had its rows exchanged
    pool = _fano3._primitive_pool(dim)
    skipped = 0
    for cones in entered:
        assert sets[cones] == oracles.admissible_set(cones, pool)
        if pruned:
            assert set(groups[cones]) == oracles.cone_stabilizer(cones)
        if all(len(o) == 2 for o in _wall_owners(cones).values()):
            assert cones not in tried  # closed
            continue
        vertices = {x for cone in cones for x in cone}
        scanned = oracles.scanned_cones(cones, pool)
        if pruned:
            mirrored = oracles.mirrored_cones(cones, pool)
            scanned = [c for c in scanned if c not in mirrored]
        admits = [c for c in scanned if oracles.convex_rule(cones, vertices, c)]
        if cones <= stopped:
            n = len(tried.get(cones, ()))
            scanned = scanned[:n]
            admits = [c for c in admits if c in scanned]
        assert tried.get(cones, []) == scanned
        assert admitted.get(cones, []) == admits
        if pruned and not cones <= stopped:
            skipped += len(mirrored)
    return len(entered), sum(map(len, tried.values())), skipped


def test_admissible_sets_match_the_pool_scan(monkeypatch):
    assert [against_pool_scan(monkeypatch, d) for d in (1, 2, 3)] == [
        (2, 1, 0),
        (24, 32, 0),
        (2129, 4912, 0),
    ]


def test_one_apex_per_orbit_matches_the_brute_force_group(monkeypatch):
    """The search tries one apex per orbit of the permutations it carries:
    dimensions 1 and 2 skip none, as no permutation fixes their first open
    wall, and dimension 3 skips 10 apexes, tries 2,581 cones, not 4,912,
    and enters 1,160 complexes, not 2,129."""
    assert [against_pool_scan(monkeypatch, d, pruned=True) for d in (1, 2, 3)] == [
        (2, 1, 0),
        (24, 32, 0),
        (1160, 2581, 10),
    ]


@pytest.mark.slow
def test_admissible_sets_match_the_pool_scan_dim4(monkeypatch):
    assert against_pool_scan(monkeypatch, 4, limit=2000) == (2000, 7016, 0)
    pruned = against_pool_scan(monkeypatch, 4, limit=2000, pruned=True)
    assert pruned == (2000, 5044, 47)


def by_admissible_sets(cones):
    """The convexity rule as the search applies it to ``cones`` in order,
    with no special-facet bound: each fresh apex must lie in the admissible
    set, which starts as the rays x off the first cone with u(x) <= 0 on
    it, and ``_fano3._convex`` weighs the vertex half and shrinks the set.
    Each cone's functional is the oracle's, as these cones need not grow
    from one another."""
    rays = sorted({v for cone in cones for v in cone})
    vertices = set(cones[0])
    u = oracles.functional(cones[0])
    admissible = tuple(x for x in rays if x not in vertices and lattice.dot(u, x) <= 0)
    for i, cone in enumerate(cones[1:], 1):
        if any(v not in vertices and v not in admissible for v in cone):
            return False
        u = oracles.functional(cone)
        admissible = _fano3._convex(cones[:i], vertices, cone, u, admissible, inf)
        if admissible is None:
            return False
        vertices.update(cone)
    return True


def test_wall_rule_matches_primitive_fano_verdict(catalog_fans):
    """The face-fan criterion, "u_s(v) <= 0 for every maximal cone s and
    every ray v off s", read through the enumerator's convexity rule on
    vector cones, against the degrees of the primitive relations and
    ``mori.is_fano``, on every fan of the seeded chains too, not only their
    last ones, W and the non-projective threefold among them. The rule
    adds the cones one at a time, as the search does: each (s, v) is
    weighed when the later of s and the first cone holding v comes in,
    by both halves of the rule at once and by the admissible sets."""
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
            oracles.convex_rule(cones[:i], {v for c in cones[:i] for v in c}, cone)
            for i, cone in enumerate(cones)
        )
        assert by_rule == by_admissible_sets(cones)
        by_degrees = all(r.degree > 0 for r in mori.primitive_relations(fan))
        assert by_rule == by_degrees == mori.is_fano(fan)[0]
        verdicts.append(by_rule)
    assert (verdicts.count(True), verdicts.count(False)) == (15, 10)
    assert verdicts[5] is False and verdicts[-1] is False  # W, the threefold


def test_enumerate_rejects_other_dims():
    with pytest.raises(UnsupportedDimensionError):
        catalog.enumerate_fano(0)
    with pytest.raises(UnsupportedDimensionError):
        catalog.enumerate_fano(5)


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
    """Unpruned, the convexity rule leaves dimension 3 to enter 2,129
    complexes and close 158, all of them Fano; the retired wall rule and
    face check entered 8,012 (``test_convexity_rule_matches_retired_rule_dim3``)."""
    unpruned(monkeypatch)
    classes, closed, entered = closed_complexes(monkeypatch, (3,))
    assert (len(entered[0]), len(closed[0])) == (2129, 158)
    # and every class has at most 8 rays, 8 attained
    assert max(len(f.generators) for f in closed[0]) == max_rays(3) == 8
    assert all(mori.is_fano(f)[0] for f in closed[0])
    for f in closed[0]:
        assert canonical_gl_key(f) == oracles.brute_canonical_gl_key(f)
    assert classes[0] == oracles.brute_fano_classes(closed[0])
    assert classes[0] == catalog.enumerate_fano(3)


@pytest.mark.slow
def test_enumerate_dim4_classes():
    """The search finds the 124 classes of smooth toric Fano 4-folds, by
    Picard number 1 to 8 the published 1, 9, 28, 47, 27, 10, 1 and 1
    (Batyrev, J. Math. Sci. 94 (1999); Sato, Tohoku Math. J. 52 (2000)),
    with distinct canonical keys in canonical-key order, each class as its
    canonical form, in under a minute of CPU. The catalog serves dimensions
    1 to 4 and refuses 5."""
    start = time.process_time()
    fans = catalog.enumerate_fano(4)
    cpu = time.process_time() - start
    assert len(fans) == 124
    picard = Counter(len(f.generators) - 4 for f in fans)
    assert picard == {1: 1, 2: 9, 3: 28, 4: 47, 5: 27, 6: 10, 7: 1, 8: 1}
    keys = [canonical_gl_key(f) for f in fans]
    assert len(set(keys)) == 124
    assert keys == sorted(keys)
    assert cpu < 60
    assert_canonical_forms(fans)
    with pytest.raises(UnsupportedDimensionError):
        catalog.enumerate_fano(5)


def test_threefolds_are_isomorphic_iff_their_keys_are_equal():
    fans = catalog.enumerate_fano(3)
    keys = [canonical_gl_key(f) for f in fans]
    assert len(set(keys)) == 18
    for a, key_a in zip(fans, keys):
        for b, key_b in zip(fans, keys):
            assert (fan_isomorphism(a, b) is not None) == (key_a == key_b)


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
    every ray of a closed complex obeys the bound (both runs unpruned)."""
    unpruned(monkeypatch)
    classes, closed, _ = closed_complexes(monkeypatch, (2, 3))
    for d in (2, 3):
        assert set(_fano3._primitive_pool(d)) < set(wider_pool(d))
    monkeypatch.setattr(_fano3, "_primitive_pool", wider_pool)
    wide_classes, wide_closed, entered = closed_complexes(monkeypatch, (2, 3))
    assert class_keys(wide_classes) == class_keys(classes)
    assert [len(c) for c in wide_closed] == [len(c) for c in closed] == [9, 158]
    assert [set(c) for c in wide_closed] == [set(c) for c in closed]
    assert [len(e) for e in entered] == [27, 17599]
