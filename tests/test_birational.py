import sys
import threading

import pytest

from conftest import (
    DOUBLE_P2,
    FOLDED_CYCLE,
    NON_SMOOTH_OVERLAP,
    OVERLAPPING_TEXT,
    TWICE_WINDING,
    ZIGZAG_CYCLE,
    blowup_chain,
    carried_row_fans,
    chain_prefixes,
    clear_package_caches,
    factorization_pairs,
    twisted_threefold,
)
from oracles import table_blow_down_candidates
from toricfan import (
    InternalInconsistencyError,
    NoBlowdownRelationError,
    NotARefinementError,
    StarConditionViolatedError,
    contract_ray,
    fan_isomorphism,
    make_fan,
    parse_fan,
    refines,
    star_subdivide,
    structurally_equal,
    validate_fan,
)
from toricfan import birational, catalog, lattice, mori
from toricfan import fan as fan_module


def candidate_summary(fan):
    return [
        (c.ray_name(fan), fan.cone_names(c.relation.collection), c.valid)
        for c in birational.blow_down_candidates(fan)
    ]


# ---------------------------------------------------------------------------
# blow-down candidates


def test_candidates_y(tower):
    _, _, w, y = tower
    cands = birational.blow_down_candidates(y)
    assert candidate_summary(y) == [
        ("e5", ("e1", "e2", "e3"), False),
        ("e6", ("e2", "e3", "e4"), False),
        ("e7", ("e1", "e6"), True),
        ("e7", ("e4", "e5"), True),
    ]
    for cand in cands:
        assert cand.valid == (cand.target is not None)
        assert cand.valid == (cand.obstruction is None)
    by_coll = {y.cone_names(c.relation.collection): c for c in cands}
    # <e3,e5,e6,e7> witnesses both failures: it contains e5 resp. e6 but
    # only one ray of either collection
    for coll in (("e1", "e2", "e3"), ("e2", "e3", "e4")):
        witnesses = {
            y.cone_names(c) for c in by_coll[coll].obstruction
        }
        assert ("e3", "e5", "e6", "e7") in witnesses
    assert structurally_equal(by_coll[("e4", "e5")].target, w)


def test_candidates_x(tower):
    p4, x, _, _ = tower
    cands = birational.blow_down_candidates(x)
    assert candidate_summary(x) == [("e5", ("e1", "e2", "e3"), True)]
    assert structurally_equal(cands[0].target, p4)


def test_candidates_p4(tower):
    assert birational.blow_down_candidates(tower[0]) == ()


def test_candidates_w(tower):
    _, x, w, _ = tower
    cands = birational.blow_down_candidates(w)
    assert candidate_summary(w) == [
        ("e5", ("e1", "e2", "e3"), False),
        ("e6", ("e2", "e3", "e4"), True),
    ]
    obstruction = {w.cone_names(c) for c in cands[0].obstruction}
    assert ("e3", "e4", "e5", "e6") in obstruction
    assert structurally_equal(cands[1].target, x)


def test_candidate_reproduces_source_by_subdivision(tower):
    for fan in tower:
        for cand in birational.blow_down_candidates(fan):
            if not cand.valid:
                continue
            ray = cand.ray_name(fan)
            center = fan.cone_names(cand.relation.collection)
            redone = star_subdivide(cand.target, center, ray)
            assert structurally_equal(redone, fan)


def test_candidate_validity_matches_contract(catalog_fans):
    # contract_ray reads no relation table: on every pair of a ray and a
    # primitive collection, its sum and star checks agree with the
    # candidates
    fans = list(catalog_fans.values()) + catalog.enumerate_fano(2) + chain_prefixes()
    for fan in fans:
        cands = {
            (c.relation.target[0], c.relation.collection): c
            for c in birational.blow_down_candidates(fan)
        }
        for ray in range(len(fan.generators)):
            for coll in mori.primitive_collections(fan):
                cand = cands.get((ray, coll))
                if cand is None:
                    with pytest.raises(NoBlowdownRelationError):
                        contract_ray(fan, ray, coll)
                elif cand.valid:
                    assert contract_ray(fan, ray, coll) == cand.target
                else:
                    with pytest.raises(StarConditionViolatedError) as exc:
                        contract_ray(fan, ray, coll)
                    assert exc.value.witnesses == cand.obstruction


def test_contraction_step_matches_contract_ray(catalog_fans):
    # blow_down_candidates contracts through contract_ray's step on the
    # indices it has resolved; for every candidate of the valid fans and the
    # factorization intermediates the step, the candidate and contract_ray,
    # given names, agree on the target or on the obstruction
    counts = [0, 0]
    for fan in carried_row_fans(catalog_fans):
        for cand in birational.blow_down_candidates(fan):
            x, coll = cand.relation.target[0], cand.relation.collection
            step = fan_module._contract(fan, x, coll)
            names = (fan.generators[x].name, fan.cone_names(coll))
            if cand.valid:
                assert step == cand.target == contract_ray(fan, *names)
            else:
                with pytest.raises(StarConditionViolatedError) as exc:
                    contract_ray(fan, *names)
                assert step == cand.obstruction == exc.value.witnesses
            counts[cand.valid] += 1
    assert counts == [159, 168]  # obstructed, valid


def test_candidates_match_the_relation_table(catalog_fans):
    # the collections whose vectors sum to a generator are the relations of
    # the located table with the single coefficient 1: same rays,
    # collections, order, obstruction witnesses and targets
    fans = (
        list(catalog_fans.values())
        + [f for d in (1, 2) for f in catalog.enumerate_fano(d)]
        + chain_prefixes()
        + [twisted_threefold()]
    )
    for fan in fans:
        assert birational.blow_down_candidates(fan) == table_blow_down_candidates(fan)
    cands = [c for fan in fans for c in birational.blow_down_candidates(fan)]
    assert any(c.valid for c in cands) and not all(c.valid for c in cands)


@pytest.mark.slow  # reads the dimension-3 enumeration
def test_dim3_candidates_match_the_relation_table():
    for fan in catalog.enumerate_fano(3):
        assert birational.blow_down_candidates(fan) == table_blow_down_candidates(fan)


# ---------------------------------------------------------------------------
# valid blow-downs with the verdicts on their targets


def valid_blow_downs(fan):
    """(ray name, target, target fano, target projective) per valid candidate."""
    return [
        (
            c.ray_name(fan),
            c.target,
            mori.is_fano(c.target)[0],
            mori.is_projective(c.target),
        )
        for c in birational.blow_down_candidates(fan)
        if c.valid
    ]


def test_blow_downs_y(tower):
    _, _, w, y = tower
    downs = valid_blow_downs(y)
    assert [(ray, fano) for ray, _, fano, _ in downs] == [
        ("e7", False),
        ("e7", False),
    ]
    wbar, w2 = downs[0][1], downs[1][1]
    assert structurally_equal(w2, w)
    assert not structurally_equal(wbar, w)
    assert fan_isomorphism(w, wbar) is not None
    assert all(projective for _, _, _, projective in downs)


def test_blow_downs_x(tower):
    p4, x, _, _ = tower
    downs = valid_blow_downs(x)
    assert len(downs) == 1
    ray, target, fano, projective = downs[0]
    assert ray == "e5" and fano and projective
    assert structurally_equal(target, p4)


def test_blow_downs_w(tower):
    _, x, w, _ = tower
    downs = valid_blow_downs(w)
    assert len(downs) == 1
    ray, target, fano, _ = downs[0]
    assert ray == "e6" and fano
    assert structurally_equal(target, x)


# ---------------------------------------------------------------------------
# factorization


def test_factor_y_to_x_unique_path_through_w(tower):
    _, x, w, y = tower
    paths = birational.factor_morphism(y, x, exhaustive=True)
    assert len(paths) == 1
    (path,) = paths
    assert [s.ray for s in path.steps] == ["e7", "e6"]
    assert structurally_equal(path.steps[0].fan, w)
    assert not path.steps[0].fano
    assert structurally_equal(path.steps[1].fan, x)
    assert path.steps[1].fano


def test_factor_y_to_x_no_fano_chain(tower):
    _, x, _, y = tower
    assert birational.factor_morphism(y, x, require_fano=True, exhaustive=True) == ()
    assert birational.factor_morphism(y, x, require_fano=True) == ()


@pytest.mark.parametrize("center, paths", [(("e0", "e1"), 3), (("e0", "e4"), 2)])
def test_fano_search_backs_out_below_the_first_level(monkeypatch, tower, center, paths):
    # Z, Y blown up at the center, is Fano and refines X; its Fano
    # candidate Y has no Fano chain to X, so the search steps into Y, finds
    # no suffix there and backs out
    _, x, _, y = tower
    z = star_subdivide(y, center)
    assert mori.is_fano(z)[0] and refines(z, x)
    real = birational.blow_down_candidates
    listed = []

    def listing(f):
        listed.append(f)
        return real(f)

    monkeypatch.setattr(birational, "blow_down_candidates", listing)
    assert birational.factor_morphism(z, x, require_fano=True) == ()
    assert [structurally_equal(f, y) for f in listed] == [False, True]
    assert len(birational.factor_morphism(z, x, exhaustive=True)) == paths


def test_factor_x_to_p4(tower):
    p4, x, _, _ = tower
    paths = birational.factor_morphism(x, p4, exhaustive=True)
    assert len(paths) == 1
    assert [(s.ray, s.center) for s in paths[0].steps] == [
        ("e5", ("e1", "e2", "e3"))
    ]


def test_factor_identity(tower):
    _, x, _, _ = tower
    paths = birational.factor_morphism(x, x)
    assert len(paths) == 1
    assert paths[0].steps == ()


def _renamed_reversed(f):
    """``f`` on the same vectors, its rays renamed c0, c1, ... in reverse
    order."""
    k = len(f.generators)
    gens = [(f"c{i}", f.generators[k - 1 - i].vector) for i in range(k)]
    return make_fan(f.dim, gens, [[k - 1 - i for i in c] for c in f.max_cones])


def test_factor_onto_renamed_reordered_rays(tower):
    # every intermediate has fine's rays, and a path ends when the fan has
    # as many rays as coarse, so coarse's names and ray order do not matter
    p4, x, w, y = tower
    for fine, coarse in ((y, x), (y, p4), (x, x)):
        renamed = _renamed_reversed(coarse)
        assert renamed != coarse and structurally_equal(renamed, coarse)
        for exhaustive in (False, True):
            paths = birational.factor_morphism(fine, renamed, exhaustive=exhaustive)
            assert paths
            assert paths == birational.factor_morphism(
                fine, coarse, exhaustive=exhaustive
            )
            for step in (s for path in paths for s in path.steps):
                assert step.ray in fine.names()
                assert set(step.center) <= set(step.fan.names()) < set(fine.names())
    (path,) = birational.factor_morphism(y, _renamed_reversed(x))
    assert [s.ray for s in path.steps] == ["e7", "e6"]
    assert birational.factor_morphism(x, _renamed_reversed(x)) == (
        birational.FactorizationPath(()),
    )
    assert birational.factor_morphism(y, _renamed_reversed(x), require_fano=True) == ()
    # W is not Fano, and the end of a path is exempt from require_fano
    (path,) = birational.factor_morphism(y, _renamed_reversed(w), require_fano=True)
    assert [s.ray for s in path.steps] == ["e7"] and not path.steps[0].fano


def test_factor_y_to_p4_exists(tower):
    p4, _, _, y = tower
    paths = birational.factor_morphism(y, p4, exhaustive=True)
    assert paths
    for path in paths:
        assert len(path.steps) == 3


def test_factor_rejects_non_refinement(tower):
    p4, x, _, _ = tower
    with pytest.raises(NotARefinementError):
        birational.factor_morphism(p4, x)


def test_factor_rejects_invalid_fan():
    # <a,b> and <b,c> overlap <a,c>; the fan's rays refine P^2, and
    # contracting b via {a,c} would read as a one-step factorization
    overlapping = parse_fan(OVERLAPPING_TEXT)
    assert not validate_fan(overlapping).ok
    p2 = catalog.projective_space(2)
    # the smooth fan on the same rays a, b, c, d refines the overlapping
    # one, whose search found no blow-down and returned ()
    rays = list(zip(overlapping.names(), overlapping.vectors()))
    smooth = make_fan(2, rays, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert validate_fan(smooth).ok
    # and each invalid fan onto itself read as the empty factorization
    cases = [(overlapping, p2), (smooth, overlapping), (overlapping, overlapping)]
    for f in (DOUBLE_P2, FOLDED_CYCLE, NON_SMOOTH_OVERLAP, TWICE_WINDING, ZIGZAG_CYCLE):
        assert not validate_fan(f).ok
        cases.append((f, f))
    for fine, coarse in cases:
        for exhaustive in (False, True):
            with pytest.raises(InternalInconsistencyError):
                birational.factor_morphism(fine, coarse, exhaustive=exhaustive)


def test_factor_first_path_is_prefix_of_exhaustive(tower):
    p4, _, _, y = tower
    first = birational.factor_morphism(y, p4)
    every = birational.factor_morphism(y, p4, exhaustive=True)
    assert len(first) == 1
    assert first[0] == every[0]


def test_path_replay_and_intermediate_properties():
    # each step's projective flag is taken from the fan below it when that
    # one is projective; the LP of is_projective must agree on every step
    for fine, coarse in factorization_pairs():
        for path in birational.factor_morphism(fine, coarse, exhaustive=True):
            assert len(path.steps) <= len(fine.generators) - len(
                coarse.generators
            )
            for step in path.steps:
                assert validate_fan(step.fan).ok
                assert refines(step.fan, coarse)
                assert step.fano == mori.is_fano(step.fan)[0]
                assert step.projective == mori.is_projective(step.fan)
            # replay the contractions as subdivisions from the coarse end
            current = coarse
            for step in reversed(path.steps):
                current = star_subdivide(current, step.center, step.ray)
            assert structurally_equal(current, fine)


def test_step_projectivity_onto_a_non_projective_fan(monkeypatch):
    # the twisted threefold is not projective; its blow-up at (b, a1) is,
    # its blow-up at (a, b) is not. Onto it the search runs the LP until a
    # step is projective, and a step above a projective one takes its flag
    # with no LP
    real = lattice.solve_eq_nonneg
    calls = []

    def counting(rows, rhs):
        calls.append(rows)
        return real(rows, rhs)

    monkeypatch.setattr(lattice, "solve_eq_nonneg", counting)
    twisted = twisted_threefold()
    fine2 = star_subdivide(
        star_subdivide(twisted, ("b", "a1"), "p"), ("a", "b"), "q"
    )
    fine3 = star_subdivide(fine2, ("c", "d"), "r")
    for fine, count in ((fine2, 1), (fine3, 3)):
        clear_package_caches()
        calls.clear()
        paths = birational.factor_morphism(fine, twisted, exhaustive=True)
        assert len(paths) == count and calls
        steps = [step for path in paths for step in path.steps]
        assert {step.projective for step in steps} == {True, False}
        for step in steps:
            assert step.projective == mori.is_projective(step.fan)


def test_extremality_iff_projective_target(tower):
    # for every valid blow-down discovered on the tower: the relation class
    # is extremal in the source iff the target is projective
    for fan in tower:
        summary = mori.mori_cone(fan)
        extremal_by_coll = {
            info.relation.collection: info.extremal
            for info in summary.relations
        }
        for cand in birational.blow_down_candidates(fan):
            if not cand.valid:
                continue
            assert extremal_by_coll[cand.relation.collection] == mori.is_projective(
                cand.target
            )


def test_factor_same_on_cold_and_warm_caches(tower):
    p4, x, w, y = tower
    runs = [
        (y, x, {"exhaustive": True}),
        (y, x, {"require_fano": True}),
        (y, p4, {"exhaustive": True}),
        (w, x, {}),
        (blowup_chain(2, 4, 6), p4, {}),
        (blowup_chain(1, 3, 5), catalog.projective_space(3), {"exhaustive": True}),
    ]
    cold = []
    for fine, coarse, options in runs:
        clear_package_caches()
        cold.append(birational.factor_morphism(fine, coarse, **options))
    warm = [
        birational.factor_morphism(fine, coarse, **options)
        for fine, coarse, options in runs
    ]
    assert warm == cold
    assert all(cold[i] for i in (0, 2, 3, 4, 5)) and cold[1] == ()


def test_factor_under_concurrent_calls_matches_sequential(tower):
    # the per-fan caches are shared by every thread of the process
    p4, x, _, y = tower
    runs = [(y, x), (y, p4), (blowup_chain(2, 4, 5), p4)]
    clear_package_caches()
    expected = [birational.factor_morphism(f, c, exhaustive=True) for f, c in runs]
    results = {}

    def worker(t):
        for k in range(len(runs)):
            fine, coarse = runs[(t + k) % len(runs)]
            results[t, k] = birational.factor_morphism(fine, coarse, exhaustive=True)

    clear_package_caches()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert results == {
        (t, k): expected[(t + k) % len(runs)] for t in range(4) for k in range(len(runs))
    }
