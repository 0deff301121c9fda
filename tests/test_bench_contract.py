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
from collections import Counter
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

from toricfan import _fano3, birational, catalog, cli, fan, lattice, mori
from toricfan.errors import StarConditionViolatedError

from conftest import (
    DOUBLE_P2,
    FOLDED_CYCLE,
    NON_SMOOTH_OVERLAP,
    OVERLAPPING_TEXT,
    TWICE_WINDING,
    ZIGZAG_CYCLE,
    blowup_chain,
    chain_prefixes,
    clear_package_caches,
)
from oracles import coordinate_separated, table_blow_down_candidates

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
    mori.mori_cone(w)
    assert len(calls) > 0
    before = len(calls)
    # a valid fan needs no pairwise test; an invalid one, such as this,
    # reaches the overlap LP in cones_meet_in_common_face
    fan.validate_fan(NON_SMOOTH_OVERLAP)
    assert len(calls) > before


def test_mori_cone_runs_no_lp_for_a_separated_class(monkeypatch, tower):
    # a class that a coordinate separates from the others is extremal by a
    # Farkas certificate, so mori_cone runs one LP per other class only
    real = lattice.solve_eq_nonneg
    calls = []

    def counting(rows, rhs):
        calls.append(rows)
        return real(rows, rhs)

    monkeypatch.setattr(lattice, "solve_eq_nonneg", counting)
    for f in (tower[3], blowup_chain(1, 3, 6)):
        clear_package_caches()
        mori.is_projective(f)  # its Gordan LP, if any, is not counted
        classes = [mori.curve_class(f, r) for r in mori.primitive_relations(f)]
        separated = coordinate_separated(classes)
        calls.clear()
        mori.mori_cone(f)
        assert 0 < len(separated) < len(classes)
        assert len(calls) == len(classes) - len(separated)


def test_mori_cone_lps_take_the_int_path(monkeypatch):
    # mori_cone hands solve_eq_nonneg its int class matrix, column k
    # deleted, and an int system is its own tableau: no lcm of denominators,
    # and no nonneg_rational_combination transposing the classes per class
    real_lcm = lattice.lcm
    lcms = []

    def counting(*args):
        lcms.append(args)
        return real_lcm(*args)

    def refuse(*args):
        raise AssertionError("mori_cone called nonneg_rational_combination")

    monkeypatch.setattr(lattice, "lcm", counting)
    f = blowup_chain(2, 4, 4)
    clear_package_caches()
    summary = mori.mori_cone(f)  # its Gordan LP included: -K is not ample
    assert not mori.is_fano_by_walls(f)
    assert any(not info.extremal for info in summary.relations)  # LPs ran
    assert lcms == []
    # a Fraction system is scaled by one lcm
    assert lattice.solve_eq_nonneg([[Fraction(1, 2), 1]], [1]) == [2, 0]
    assert len(lcms) == 1
    mori.mori_cone.cache_clear()  # is_projective's Gordan LP stays cached
    monkeypatch.setattr(lattice, "nonneg_rational_combination", refuse)
    assert mori.mori_cone(f) == summary


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
    fan._wall_pass.cache_clear()
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
    # the candidates go through the contraction step of contract_ray, which
    # returns the target or the cones breaking the star condition
    real = birational._contract
    calls = []
    valid = []

    def counting(f, ray, collection):
        calls.append((f, ray, collection))
        target = real(f, ray, collection)
        if isinstance(target, fan.Fan):
            valid.append((f, ray, collection))
        return target

    monkeypatch.setattr(birational, "_contract", counting)
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


def test_factor_search_inverts_one_first_cone_per_fan(monkeypatch):
    # the wall pass inverts a fan's first cone, through the cache of
    # _dual_rows, and carries its rows across the walls to every other cone:
    # a cold exhaustive search makes one pass per distinct fan and one
    # inverse per distinct first cone among them, 3 for its 28 fans, where
    # inverting each distinct cone of each fan made 59
    real_inverse = lattice.unimodular_inverse
    inverted = []

    def inverting(rows):
        inverted.append(tuple(zip(*rows)))  # the cone's vectors
        return real_inverse(rows)

    real_walk = fan._walk
    walked = []

    def walking(f):
        walked.append(f)
        return real_walk(f)

    chain = blowup_chain(2, 4, 8)
    clear_package_caches()
    monkeypatch.setattr(lattice, "unimodular_inverse", inverting)
    monkeypatch.setattr(fan, "_walk", walking)
    p4 = catalog.projective_space(4)
    assert len(birational.factor_morphism(chain, p4, exhaustive=True)) == 84
    assert len(walked) == len(set(walked))
    firsts = {f.cone_vectors(f.max_cones[0]) for f in walked}
    assert sorted(inverted) == sorted(firsts)
    assert (len(inverted), len(walked)) == (3, 28)


def test_factor_search_onto_a_projective_fan_runs_no_lp(monkeypatch):
    # each step is a blow-up of the fan below it, so onto P^4, where -K is
    # ample, every projective flag comes with no Gordan LP, and the coarse
    # cones are unimodular, so the refinement masks need none either; one
    # Gordan LP per non-Fano step made 24
    real = lattice.solve_eq_nonneg
    calls = []

    def counting(rows, rhs):
        calls.append(rows)
        return real(rows, rhs)

    chain = blowup_chain(2, 4, 8)
    clear_package_caches()
    monkeypatch.setattr(lattice, "solve_eq_nonneg", counting)
    p4 = catalog.projective_space(4)
    assert len(birational.factor_morphism(chain, p4, exhaustive=True)) == 84
    assert calls == []


def test_factorizations_onto_one_fan_test_each_vector_once(monkeypatch):
    # the coarse-cone mask of each vector is cached per (coarse, vector):
    # a cold miss reads the coarse fan's dual rows once, and a second
    # factorization onto the same fan, or a refinement test, tests only the
    # vectors not seen before
    real = fan._cone_duals
    read = []

    def reading(f):
        read.append(f)
        return real(f)

    short, long = blowup_chain(2, 4, 4), blowup_chain(2, 4, 8)
    p4 = catalog.projective_space(4)
    clear_package_caches()
    monkeypatch.setattr(fan, "_cone_duals", reading)
    assert birational.factor_morphism(short, p4)
    assert read == [p4] * len(short.generators)
    assert birational.factor_morphism(long, p4)
    assert fan.refines(short, p4) and fan.refines(long, p4)
    assert read == [p4] * len(long.generators)
    assert set(short.vectors()) < set(long.vectors())


def test_blow_down_candidates_raise_no_star_error(monkeypatch, tower):
    # the candidates read the obstruction off the contraction step, which
    # raises nothing; contract_ray still raises the error, with the text
    # and the witnesses it had
    y = tower[3]
    real_init = StarConditionViolatedError.__init__
    made = []

    def making(self, message, witnesses):
        made.append(message)
        real_init(self, message, witnesses)

    monkeypatch.setattr(StarConditionViolatedError, "__init__", making)
    clear_package_caches()
    invalid = [c for c in birational.blow_down_candidates(y) if not c.valid]
    assert made == []
    witnesses = ((2, 5, 6, 7), (3, 5, 6, 7))
    assert [c.obstruction for c in invalid] == [witnesses, witnesses]
    texts = []
    for cand in invalid:
        with pytest.raises(StarConditionViolatedError) as exc:
            fan.contract_ray(y, cand.relation.target[0], cand.relation.collection)
        assert exc.value.witnesses == witnesses
        texts.append(str(exc.value))
    assert made == texts == [
        "cannot contract e5 via {e1,e2,e3}: cone <e2,e5,e6,e7> does not"
        " contain exactly 2 collection rays",
        "cannot contract e6 via {e2,e3,e4}: cone <e2,e5,e6,e7> does not"
        " contain exactly 2 collection rays",
    ]


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
    fan._wall_pass.cache_clear()
    for f in fans:
        assert fan.validate_fan(f).ok
    assert calls == []
    # one pass over the walls per distinct valid fan: a repeat hits the
    # cache of _wall_pass
    distinct = list(dict.fromkeys(fans))
    assert len(fans) == 24 and len(distinct) == 22
    assert wall_passes == [f.max_cones for f in distinct]
    assert not fan.validate_fan(TWICE_WINDING).ok
    assert len(calls) > 0


def test_rejection_path_builds_one_wall_map(monkeypatch):
    # the wall pass of _walls is cached first, so the maps counted are the
    # rejection path's: it reads the one map of _wall_owners
    named = [
        TWICE_WINDING, FOLDED_CYCLE, DOUBLE_P2, fan.parse_fan(OVERLAPPING_TEXT),
        ZIGZAG_CYCLE, NON_SMOOTH_OVERLAP,
    ]
    for f in named:
        assert fan._walls(f) is None
    real = fan._wall_owners
    calls = []

    def counting(cones):
        calls.append(cones)
        return real(cones)

    monkeypatch.setattr(fan, "_wall_owners", counting)
    for f in named:
        assert not fan.validate_fan(f).ok
    assert calls == [f.max_cones for f in named]


def test_factor_search_builds_no_structural_key(monkeypatch, tower):
    # the memo holds the fans themselves, and a path ends when the fan has
    # as many rays as the coarse one
    real = fan._key
    calls = []

    def counting(dim, vectors, cones):
        calls.append(vectors)
        return real(dim, vectors, cones)

    p4, x, _, y = tower
    chain = blowup_chain(2, 4, 8)
    clear_package_caches()
    monkeypatch.setattr(fan, "_key", counting)
    assert len(birational.factor_morphism(y, x, exhaustive=True)) == 1
    assert birational.factor_morphism(y, x, require_fano=True) == ()
    assert len(birational.factor_morphism(x, x)) == 1
    assert len(birational.factor_morphism(chain, p4, exhaustive=True)) == 84
    assert calls == []


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

    real_contract = birational._contract
    targets = []

    def contracting(f, ray, collection):
        targets.append(real_contract(f, ray, collection))
        return targets[-1]

    _, x, w, y = tower
    clear_package_caches()
    monkeypatch.setattr(fan, "_wall_owners", counting_owners)
    monkeypatch.setattr(birational, "_contract", contracting)
    assert birational.factor_morphism(y, x, exhaustive=True)
    fans = list(dict.fromkeys([y] + [t for t in targets if isinstance(t, fan.Fan)]))
    refining = [f for f in fans if fan.refines(f, x)]
    assert len(fans) == 4 and refining == [y, w, x]
    assert sorted(wall_passes) == sorted(f.max_cones for f in refining)


def test_factor_path_passes_the_walls_of_each_fan_once(monkeypatch):
    # _walls caches as many fans as its readers do, so a factor path through
    # more fans than the 16 it once held still makes one wall pass per
    # distinct fan
    y = blowup_chain(2, 4, 20)
    real = fan._wall_pass
    passed = []

    def recording(f):
        passed.append(f)
        return real(f)

    clear_package_caches()
    monkeypatch.setattr(fan, "_wall_pass", recording)
    assert birational.factor_morphism(y, catalog.projective_space(4))
    distinct = set(passed)
    assert len(distinct) == 21
    assert real.cache_info().misses == len(distinct)


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


def test_fano_enumeration_sweeps_normal_forms_only_for_new_classes(monkeypatch):
    # a closed complex is looked up by its first normal form among those of
    # the classes found so far; only the first complex of each class has
    # every form generated, 1, 5 and 18 of the 1, 9 and 95 closed in
    # dimensions 1 to 3
    real, real_validate = fan._normal_forms, _fano3.validate_fan
    swept = []
    closed = []

    def counting(f):
        yield from real(f)
        swept.append(f)  # reached only when the caller drains every form

    def recording(f):  # called once on each closed complex
        closed.append(f)
        return real_validate(f)

    monkeypatch.setattr(fan, "_normal_forms", counting)
    monkeypatch.setattr(_fano3, "_normal_forms", counting)
    monkeypatch.setattr(_fano3, "validate_fan", recording)
    clear_package_caches()
    enumerate_fano = catalog._enumerate_cached.__wrapped__
    counts = []
    for d in (1, 2, 3):
        swept.clear()
        closed.clear()
        classes = enumerate_fano(d)
        opened = list(swept)
        counts.append(len(opened))
        first = {}  # the first closed complex of each class, in closing order
        for f in closed:
            first.setdefault(fan.canonical_gl_key(f), f)
        assert opened == list(first.values())
        assert len(classes) == len(opened)
    assert counts == [1, 5, 18]


def test_fano_enumeration_builds_no_full_key(monkeypatch):
    # a closed complex is looked up by the vector part of its first normal
    # form alone: a Fano fan is the face fan of the hull of its rays, so one
    # vector part is one class, and the classes are ordered by their least
    # vector part; no structural key is built
    assert not hasattr(_fano3, "_key")

    def refusing(*args):
        raise AssertionError("full key built")

    monkeypatch.setattr(fan, "_key", refusing)
    assert [len(_fano3.enumerate_fano_fans(d)) for d in (1, 2, 3)] == [1, 5, 18]


def test_fano_search_walks_the_pool_once_per_call(monkeypatch):
    # the search carries the admissible apexes and shrinks them as it goes
    # deeper, so it reads the special-facet pool once per call, not once
    # per (cone, k) pair of an open wall, 613 in dimensions 1 to 3
    real = _fano3._primitive_pool
    walks = []

    def counting(dim):
        walks.append(dim)
        return real(dim)

    for obj in vars(_fano3).values():  # a warm cache would hide a walk
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    monkeypatch.setattr(_fano3, "_primitive_pool", counting)
    for d in (1, 2, 3):
        _fano3.enumerate_fano_fans(d)
    assert walks == [1, 2, 3]


def fano_search_inverses(monkeypatch):
    """The unimodular inverses the Fano search makes in dimensions 1 to 3,
    from cold caches."""
    real = lattice.unimodular_inverse
    calls = []

    def counting(rows):
        calls.append(rows)
        return real(rows)

    clear_package_caches()  # the dual rows and the wall passes
    monkeypatch.setattr(lattice, "unimodular_inverse", counting)
    counts = []
    for d in (1, 2, 3):
        calls.clear()
        _fano3.enumerate_fano_fans(d)
        counts.append(len(calls))
    return counts


def test_fano_search_inverts_no_tried_cone(monkeypatch):
    # each cone the search enters carries its dual rows, exchanged from its
    # owner's across the wall (fan._exchange), and each tried cone's
    # functional is read off its owner's rows by the wall formula, so the
    # search makes no inverse of its own: only validate_fan inverts the
    # first cone of a closed complex, once per distinct first cone through
    # the cache of _dual_rows, and carries its rows to the others, 1, 5 and
    # 74 inverses for the 1, 9 and 158 complexes closed in dimensions 1 to 3
    # with no permutation to prune by, where inverting the owner of each
    # extended wall made 2, 11 and 414, every cone of a closed complex 2, 14
    # and 479 and every distinct tried cone 2, 17 and 966
    assert not hasattr(_fano3, "_dual_rows")
    monkeypatch.setattr(_fano3, "_coordinate_permutations", lambda dim: ())
    assert fano_search_inverses(monkeypatch) == [1, 5, 74]


def test_fano_search_tries_one_apex_per_orbit(monkeypatch):
    # the search skips an apex that a permutation fixing the complex and
    # the wall maps to one tried before, and with it that apex's subtree:
    # 44 inverses in dimension 3 instead of 74
    assert fano_search_inverses(monkeypatch) == [1, 5, 44]


def test_fano_search_builds_one_wall_map_per_call(monkeypatch):
    # the search carries one wall map down: each cone it enters, the start
    # cone too, adds its walls and takes them off on return, where
    # rebuilding the map per complex entered made 2, 24 and 1,160 in
    # dimensions 1 to 3 (2,129 trying every apex). So it maps no walls
    # through _wall_owners: from cold caches, only the wall pass of
    # validate_fan does, once for each of the 1, 9 and 95 closed complexes.
    # The dual rows carried beside the map are pinned by
    # test_fano_search_inverts_no_tried_cone
    assert not hasattr(_fano3, "_wall_owners")
    real = fan._wall_owners
    calls = []

    def counting(cones):
        calls.append(cones)
        return real(cones)

    clear_package_caches()  # the wall passes
    monkeypatch.setattr(fan, "_wall_owners", counting)
    counts = []
    for d in (1, 2, 3):
        calls.clear()
        _fano3.enumerate_fano_fans(d)
        counts.append(len(calls))
    assert counts == [1, 9, 95]


def test_canonical_key_builds_full_keys_only_for_ties(monkeypatch, tower):
    # the least key has the least vector part, so only the forms that tie on
    # it have their cones relabeled: 4 of the 408 forms of paper-Y, each
    # form the generators in the coordinates of an ordered maximal cone
    y = tower[3]
    parts = []
    for cone in y.max_cones:
        dual = fan._dual_rows(y.cone_vectors(cone))
        coords = [[lattice.dot(row, v) for row in dual] for v in y.vectors()]
        for order in permutations(range(y.dim)):
            parts.append(sorted(tuple(c[i] for i in order) for c in coords))
    ties = parts.count(min(parts))
    real = fan._key
    calls = []

    def counting(dim, vectors, cones):
        calls.append(vectors)
        return real(dim, vectors, cones)

    monkeypatch.setattr(fan, "_key", counting)
    fan.canonical_gl_key(y)
    assert len(calls) == ties
    assert (ties, len(parts)) == (4, 408)


def test_locate_relint_stops_at_the_first_holder(monkeypatch, tower):
    # on a valid fan every maximal cone holding a point names the same face,
    # so the locator reads the fan's table of dual rows up to the first cone
    # that holds the point and no further, and builds no dual rows itself;
    # paper-Y has 17 maximal cones
    y = tower[3]
    mori.wall_classes(y)  # the cached gate reads no dual rows below
    table = fan._cone_duals(y)
    assert table == tuple(fan._dual_rows(y.cone_vectors(c)) for c in y.max_cones)
    visited = []

    def reading(f):
        assert f is y
        for rows in table:
            visited.append(rows)
            yield rows

    def refuse(vectors):
        raise AssertionError("locate_relint built dual rows")

    monkeypatch.setattr(fan, "_cone_duals", reading)
    monkeypatch.setattr(fan, "_dual_rows", refuse)
    sums = [
        tuple(map(sum, zip(*y.cone_vectors(c)))) for c in mori.primitive_collections(y)
    ]
    counts = []
    for point in sums:
        visited.clear()
        face, _ = fan.locate_relint(y, point)
        first = next(i for i, c in enumerate(y.max_cones) if set(face) <= set(c))
        assert visited == list(table[: first + 1])
        counts.append(len(visited))
    assert len(y.max_cones) == 17 and max(counts) < 17


def test_relation_table_is_built_in_one_place(monkeypatch, tower):
    # primitive_relations builds every relation itself: it runs mori's gate
    # once and places each collection's sum with locate_relint, with no
    # collection re-parsed by resolve_cone and no call of the single
    # relation, which reads the table; paper-Y has 7 primitive collections
    y = tower[3]
    calls = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counting(*args):
            calls[f"{module.__name__}.{name}"] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counting)

    for module, name in (
        (mori, "wall_classes"),
        (mori, "locate_relint"),
        (mori, "resolve_cone"),
        (fan, "resolve_cone"),
        (mori, "primitive_relation"),
    ):
        count(module, name)
    clear_package_caches()
    assert len(mori.primitive_relations(y)) == 7
    assert calls == {"toricfan.mori.wall_classes": 1, "toricfan.mori.locate_relint": 7}


def test_every_kernel_pivots_through_one_step(monkeypatch):
    # lattice._pivot is the one fraction-free row update: the elimination
    # behind determinant and unimodular_inverse makes one per column, and
    # the simplex one per basis change
    basis = [(-1, -1, -1, -1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    real = lattice._pivot
    pivots = []

    def counting(rows, r, c, d):
        pivots.append((r, c))
        return real(rows, r, c, d)

    monkeypatch.setattr(lattice, "_pivot", counting)
    assert abs(lattice.determinant(basis)) == 1
    assert len(pivots) == 4
    pivots.clear()
    lattice.unimodular_inverse(basis)
    assert len(pivots) == 4

    w = catalog.catalog_fan("paper-W")
    mori.wall_classes(w)  # the cached gate makes no pivot below
    mori.is_projective.cache_clear()
    pivots.clear()
    assert mori.is_projective(w) is True  # one Gordan LP
    assert len(pivots) >= 1

    class Pivoted(Exception):
        pass

    def refuse(rows, r, c, d):
        raise Pivoted

    monkeypatch.setattr(lattice, "_pivot", refuse)
    for kernel in (
        lambda: lattice.determinant(basis),
        lambda: lattice.unimodular_inverse(basis),
        lambda: lattice.solve_eq_nonneg([[1, 1]], [1]),
    ):
        with pytest.raises(Pivoted):
            kernel()
