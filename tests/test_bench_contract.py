"""The traced benchmark run wraps functions by module and name.

``bench/tracer.py`` lists them in ``TRACED`` and the modules whose bindings
it patches in ``MODULES``; a rename or deletion in the package would break
the traced run without failing any other test. Both tables are read with
``ast`` so that no benchmark code runs here. The wrappers
replace module attributes, so a call sees them only when it goes through
the module global, which the LP case below checks. The work counts at the
end count calls the same way.
"""

import ast
import importlib
from pathlib import Path

from toricfan import birational, catalog, cli, fan, lattice, mori

from conftest import (
    NON_SMOOTH_OVERLAP,
    TWICE_WINDING,
    blowup_chain,
    chain_prefixes,
    clear_package_caches,
)
from oracles import table_blow_down_candidates

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def tracer_table(name):
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} table in {TRACER}")


def test_traced_modules_import():
    modules = tracer_table("MODULES")
    assert modules
    for module in modules:
        importlib.import_module(f"toricfan.{module}")


def test_traced_functions_exist():
    traced = tracer_table("TRACED")
    assert traced
    for module, names in traced.items():
        mod = importlib.import_module(f"toricfan.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"


def test_package_lps_go_through_the_module_global(monkeypatch):
    real = lattice.solve_eq_nonneg
    calls = []

    def counting(rows, rhs):
        calls.append(rows)
        return real(rows, rhs)

    monkeypatch.setattr(lattice, "solve_eq_nonneg", counting)
    mori.mori_cone.cache_clear()
    w = catalog.catalog_fan("paper-W")
    mori.mori_cone(w)  # through nonneg_rational_combination
    assert len(calls) > 0
    before = len(calls)
    # a valid fan needs no pairwise test; an invalid one, such as this,
    # reaches the overlap LP in cones_meet_in_common_face
    fan.validate_fan(NON_SMOOTH_OVERLAP)
    assert len(calls) > before


def no_relation_table(
    monkeypatch,
    names=("primitive_collections", "primitive_relation", "primitive_relations"),
):
    """Make every entry into the primitive-relation table raise: by default
    the collections too, with ``names`` only the located relations."""

    def refuse(*args):
        raise AssertionError("built the primitive-relation table")

    for name in names:
        monkeypatch.setattr(mori, name, refuse)


def test_is_projective_is_one_gordan_lp(monkeypatch):
    real = lattice.solve_eq_nonneg
    calls = []

    def counting(rows, rhs):
        calls.append(rows)
        return real(rows, rhs)

    def no_mori_cone(f):
        raise AssertionError("is_projective built the Mori cone")

    monkeypatch.setattr(lattice, "solve_eq_nonneg", counting)
    monkeypatch.setattr(mori, "mori_cone", no_mori_cone)
    no_relation_table(monkeypatch)
    mori.is_projective.cache_clear()
    fan._walls.cache_clear()
    w = catalog.catalog_fan("paper-W")
    assert mori.is_projective(w) is True
    assert len(calls) == 1
    # one column per wall class, plus the row sum lam = 1
    walls = mori.wall_classes(w)
    assert len(calls[0]) == len(w.generators) + 1
    assert sorted(zip(*calls[0])) == [c + (1,) for c in walls]
    # -K certifies a Fano fan with no LP
    assert mori.is_projective(catalog.catalog_fan("paper-Y")) is True
    assert len(calls) == 1


def test_factor_search_contracts_each_candidate_once(monkeypatch, tower):
    real = birational.contract_ray
    calls = []
    valid = []

    def counting(f, ray, collection):
        calls.append((f, ray, collection))
        target = real(f, ray, collection)
        valid.append((f, ray, collection))
        return target

    monkeypatch.setattr(birational, "contract_ray", counting)
    birational.blow_down_candidates.cache_clear()
    _, x, _, y = tower
    assert birational.factor_morphism(y, x, exhaustive=True)
    assert len(calls) == len(set(calls))
    visited = list(dict.fromkeys(f for f, _, _ in calls))
    assert visited[0] == y and len(visited) > 1
    # each visited fan contracts exactly the table's candidates, in order
    for f in visited:
        table = table_blow_down_candidates(f)
        assert [(r, k) for c, r, k in calls if c == f] == [
            (cand.relation.target[0], cand.relation.collection) for cand in table
        ]
        assert [(r, k) for c, r, k in valid if c == f] == [
            (cand.relation.target[0], cand.relation.collection)
            for cand in table
            if cand.valid
        ]


def test_factor_search_lists_candidates_once_per_intermediate(monkeypatch):
    # the exhaustive search reaches most intermediates by several paths
    real = birational.blow_down_candidates
    calls = []

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(birational, "blow_down_candidates", counting)
    paths = birational.factor_morphism(
        blowup_chain(2, 4, 8), catalog.projective_space(4), exhaustive=True
    )
    assert len(paths) == 84
    assert len(calls) == len({fan.structural_key(f) for f in calls}) == 27


def test_factor_search_builds_no_relation_table(monkeypatch, tower):
    # W, the intermediate of Y -> X, is not Fano: its flag and the
    # require_fano test read wall classes, not the table's witnesses; the
    # candidates read the primitive collections, never the located
    # relations
    p4, x, _, y = tower
    clear_package_caches()
    no_relation_table(monkeypatch, ("primitive_relation", "primitive_relations"))
    (path,) = birational.factor_morphism(y, x, exhaustive=True)
    assert [s.fano for s in path.steps] == [False, True]
    assert birational.factor_morphism(y, x, require_fano=True) == ()
    assert birational.factor_morphism(blowup_chain(2, 4, 6), p4)


def test_blow_down_reports_locate_no_relation(monkeypatch, tower, tmp_path, capsys):
    # the candidates read the primitive collections, never the located
    # relations: not for the list, a bare blow-down or the CLI report
    _, _, w, y = tower
    path = tmp_path / "y.fan"
    path.write_text(fan.serialize_fan(y), encoding="utf-8")
    clear_package_caches()
    no_relation_table(monkeypatch, ("primitive_relation", "primitive_relations"))
    assert len(birational.blow_down_candidates(y)) == 4
    # cleared so that each entry builds the list itself
    birational.blow_down_candidates.cache_clear()
    assert fan.fan_isomorphism(birational.blow_down(y, "e7"), w) is not None
    birational.blow_down_candidates.cache_clear()
    assert cli.main(["blowdowns", str(path)]) == 0
    assert capsys.readouterr().out.startswith("blow-down candidates (4):\n")


def test_valid_fans_skip_the_pairwise_face_check(monkeypatch, catalog_fans):
    real = fan.cones_meet_in_common_face
    calls = []

    def counting(a_vecs, b_vecs):
        calls.append((a_vecs, b_vecs))
        return real(a_vecs, b_vecs)

    real_owners = fan._wall_owners
    wall_passes = []

    def counting_owners(cones):
        wall_passes.append(cones)
        return real_owners(cones)

    # built first: a cold enumeration validates its closed complexes too
    fans = list(catalog_fans.values()) + chain_prefixes() + catalog.enumerate_fano(2)
    monkeypatch.setattr(fan, "cones_meet_in_common_face", counting)
    monkeypatch.setattr(fan, "_wall_owners", counting_owners)
    fan._walls.cache_clear()
    for f in fans:
        assert fan.validate_fan(f).ok
    assert calls == []
    # one pass over the walls per distinct valid fan: a repeat hits the
    # cache of _walls
    distinct = list(dict.fromkeys(fans))
    assert len(fans) == 24 and len(distinct) == 22
    assert wall_passes == [f.max_cones for f in distinct]
    assert not fan.validate_fan(TWICE_WINDING).ok
    assert len(calls) > 0


def test_factor_search_shares_the_wall_pass(monkeypatch, tower):
    # contract_ray checks the fan it contracts, which blow_down_candidates
    # has checked, and not the fan it returns; a target that refines X is
    # checked by its step flags and its own candidates, one cached wall
    # pass for both, and W-bar, which does not refine X, by nothing
    real_owners = fan._wall_owners
    wall_passes = []

    def counting_owners(cones):
        wall_passes.append(cones)
        return real_owners(cones)

    real_contract = birational.contract_ray
    targets = []

    def contracting(f, ray, collection):
        targets.append(real_contract(f, ray, collection))
        return targets[-1]

    _, x, w, y = tower
    clear_package_caches()
    monkeypatch.setattr(fan, "_wall_owners", counting_owners)
    monkeypatch.setattr(birational, "contract_ray", contracting)
    assert birational.factor_morphism(y, x, exhaustive=True)
    fans = list(dict.fromkeys([y] + targets))
    refining = [f for f in fans if fan.refines(f, x)]
    assert len(fans) == 4 and refining == [y, w, x]
    assert sorted(wall_passes) == sorted(f.max_cones for f in refining)


def test_fano_enumeration_builds_no_relation_table(monkeypatch):
    # each closed complex is confirmed by validate_fan and the wall verdict
    # of mori.is_fano; the degrees of its primitive relations are a test
    # oracle (closed_complexes in test_catalog.py)
    no_relation_table(monkeypatch)
    enumerate_fano = catalog._enumerate_cached.__wrapped__
    assert len(enumerate_fano(1)) == 1
    assert len(enumerate_fano(2)) == 5


def test_enumerations_issue_no_lp(monkeypatch):
    # the search makes no face check, and the closed complexes it validates
    # pass the linear one-pass check
    real = lattice.solve_eq_nonneg
    calls = []

    def counting(rows, rhs):
        calls.append(rows)
        return real(rows, rhs)

    monkeypatch.setattr(lattice, "solve_eq_nonneg", counting)
    mori.primitive_relations.cache_clear()
    mori.primitive_collections.cache_clear()
    mori.is_projective.cache_clear()
    mori.mori_cone.cache_clear()
    # the uncached enumeration: clearing catalog's cache would drop a
    # dimension-3 result that later tests read
    enumerate_fano = catalog._enumerate_cached.__wrapped__
    assert len(enumerate_fano(1)) == 1
    assert len(enumerate_fano(2)) == 5
    assert calls == []
