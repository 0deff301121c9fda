import codecs
import copy as copy_module
import pickle
import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest

from toricfan import (
    CenterNotInFanError,
    CenterTooSmallError,
    DimensionMismatchError,
    DuplicateNameError,
    FanSyntaxError,
    InternalInconsistencyError,
    NameCollisionError,
    NoBlowdownRelationError,
    StarConditionViolatedError,
    UnknownRayError,
    birational,
    canonical_gl_key,
    catalog,
    contract_ray,
    fan_isomorphism,
    lattice,
    locate_relint,
    make_fan,
    mori,
    parse_fan,
    refines,
    serialize_fan,
    star_subdivide,
    structural_key,
    structurally_equal,
    validate_fan,
)
from toricfan import fan as fan_module
from toricfan.fan import _auto_name

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
    rejected_complexes,
    twisted_threefold,
)
from oracles import (
    _cones_overlap,
    brute_canonical_gl_key,
    brute_primitive_collections,
    brute_refines,
    brute_wall_classes,
    own_wall_map_rejection,
    pairwise_faces_ok,
    permutation_determinant,
    rational_solve,
    relint_claims,
)

P4_TEXT = """\
# the projective 4-space fan
dim 4
ray e0 -1 -1 -1 -1
ray e1 1 0 0 0
ray e2 0 1 0 0
ray e3 0 0 1 0
ray e4 0 0 0 1

maxcone e0 e1 e2 e3
maxcone e0 e1 e2 e4
maxcone e0 e1 e3 e4
maxcone e0 e2 e3 e4
maxcone e1 e2 e3 e4
"""


# ---------------------------------------------------------------------------
# parsing


def test_parse_p4():
    fan = parse_fan(P4_TEXT)
    assert fan.dim == 4
    assert len(fan.generators) == 5
    assert len(fan.max_cones) == 5
    assert fan.names() == ("e0", "e1", "e2", "e3", "e4")


def test_parse_unknown_ray_in_cone():
    text = "dim 2\nray e0 1 0\nmaxcone e0 e9\n"
    with pytest.raises(UnknownRayError):
        parse_fan(text)


def test_parse_wrong_coordinate_count():
    text = "dim 4\nray e0 1 0 0\n"
    with pytest.raises(DimensionMismatchError):
        parse_fan(text)


def test_parse_wrong_maxcone_arity():
    text = "dim 2\nray a 1 0\nray b 0 1\nray c -1 -1\nmaxcone a b c\n"
    with pytest.raises(DimensionMismatchError):
        parse_fan(text)


def test_parse_duplicate_name():
    text = "dim 2\nray a 1 0\nray a 0 1\n"
    with pytest.raises(DuplicateNameError):
        parse_fan(text)


PLANE_RAYS = [("a", (1, 0)), ("b", (0, 1)), ("c", (-1, -1))]
PLANE_TEXT = "dim 2\nray a 1 0\nray b 0 1\nray c -1 -1\n"  # the fault goes on line 5


@pytest.mark.parametrize(
    "build, line, error, message",
    [
        (
            lambda: make_fan(2, PLANE_RAYS + [("a", (1, 1))], []),
            "ray a 1 1",
            DuplicateNameError,
            "duplicate ray name 'a'",
        ),
        (
            lambda: make_fan(2, PLANE_RAYS + [("d", (1, 0, 0))], []),
            "ray d 1 0 0",
            DimensionMismatchError,
            "ray 'd': expected 2 coordinates, got 3",
        ),
        (
            lambda: make_fan(2, PLANE_RAYS + [("d", (1, 1.5))], []),
            "ray d 1 1.5",
            FanSyntaxError,
            "ray 'd': coordinates must be integers",
        ),
        (
            lambda: make_fan(2, PLANE_RAYS + [("1d", (1, 1))], []),
            "ray 1d 1 1",
            FanSyntaxError,
            "invalid ray name '1d'",
        ),
        (
            lambda: make_fan(2, PLANE_RAYS + [("", ())], []),
            "ray",
            FanSyntaxError,
            "invalid ray name ''",
        ),
        (
            lambda: make_fan(2, PLANE_RAYS, [(0, 3)]),
            "maxcone a d",
            UnknownRayError,
            None,  # make_fan names the index, parse_fan the name
        ),
        (
            lambda: make_fan(2, PLANE_RAYS, [(1, 1)]),
            "maxcone b b",
            FanSyntaxError,
            "repeated ray in cone (1, 1)",
        ),
        (
            lambda: make_fan(2, PLANE_RAYS, [(0, 1, 2)]),
            "maxcone a b c",
            DimensionMismatchError,
            "maximal cone must have 2 rays, got 3",
        ),
        (
            lambda: fan_module.resolve_ray(catalog.projective_space(2), 99),
            None,  # no fan text has a ray index
            UnknownRayError,
            "no ray with index 99",
        ),
    ],
    ids=[
        "duplicate-name",
        "coordinate-count",
        "non-integer-coordinate",
        "invalid-name",
        "missing-name",
        "index-range",
        "repeated-ray",
        "cone-arity",
        "resolve-ray",
    ],
)
def test_make_fan_structural_errors(build, line, error, message):
    """A structural fault raises one error from make_fan and from the same
    fault on line 5 of a fan file: the same type and, but for the line the
    parse error names, the same message."""
    with pytest.raises(error) as built:
        build()
    if message is not None:
        assert str(built.value) == message
    if line is None:
        return
    with pytest.raises(error) as parsed:
        parse_fan(PLANE_TEXT + line + "\n")
    if error is FanSyntaxError:
        assert parsed.value.line == 5
        assert str(parsed.value) == f"line 5: {built.value}"
    elif message is None:
        assert str(parsed.value).endswith(" (line 5)")
    else:
        assert str(parsed.value) == f"{built.value} (line 5)"


def test_parse_drops_one_leading_byte_order_mark():
    text = serialize_fan(catalog.projective_space(2))
    saved = codecs.BOM_UTF8 + text.encode("utf-8")  # a UTF-8 file with a BOM
    assert parse_fan(saved.decode("utf-8")) == parse_fan(text)
    with pytest.raises(FanSyntaxError) as exc:
        parse_fan("\ufeff\ufeff" + text)
    assert str(exc.value) == "line 1: unknown directive '\\ufeffdim'"


SYNTAX_ERRORS = {
    "ray a 1 0\n": "line 1: 'ray' before 'dim'",
    "dim 2\ndim 2\n": "line 2: duplicate 'dim' line",
    "dim 0\n": "line 1: dimension must be positive",
    "dim\n": "line 1: expected 'dim <n>'",  # no dimension
    "dim 2 3\n": "line 1: expected 'dim <n>'",  # two dimensions
    "dim 2\nray a 1 x\n": "line 2: ray 'a': coordinates must be integers",
    "dim 2\nray a 1 0\nray b 0 1\nmaxcone a b\nray c -1 -1\n": (
        "line 5: 'ray' after 'maxcone'"
    ),
    "dim 2\nray a 1 0\nmaxcone a a\n": "line 3: repeated ray in cone (0, 0)",
    "dim 2\nwibble\n": "line 2: unknown directive 'wibble'",
    "": "missing 'dim' line",
}


@pytest.mark.parametrize("text", list(SYNTAX_ERRORS))
def test_parse_syntax_errors(text):
    with pytest.raises(FanSyntaxError) as exc:
        parse_fan(text)
    assert str(exc.value) == SYNTAX_ERRORS[text]


@pytest.mark.parametrize("token", ["1_0", "\u0661"])
@pytest.mark.parametrize(
    "template, line",
    [("dim {}\n", 1), ("dim 2\nray a 1 0\nray b 0 {}\n", 3)],
)
def test_parse_accepts_only_ascii_decimal_integers(token, template, line):
    # int() alone would read "1_0" as 10 and the Arabic-Indic one as 1
    with pytest.raises(FanSyntaxError) as exc:
        parse_fan(template.format(token))
    assert exc.value.line == line


def test_parse_signed_integers():
    fan = parse_fan("dim +2\nray a +1 -0\nray b -1 007\n")
    assert fan.dim == 2
    assert fan.vectors() == ((1, 0), (-1, 7))


def test_parse_error_reports_line_number():
    with pytest.raises(FanSyntaxError) as exc:
        parse_fan("dim 2\nray a 1 0\nwibble\n")
    assert exc.value.line == 3


def test_parse_tolerates_comments_blanks_and_tabs():
    text = "dim 2 # two dims\n\n  \t\nray\ta  1\t0\nray b 0 1\nray c -1 -1\nmaxcone a\tb\nmaxcone b c\nmaxcone a c\n"
    fan = parse_fan(text)
    assert len(fan.max_cones) == 3


# ---------------------------------------------------------------------------
# serialization


def test_serialize_roundtrip_identity(catalog_fans):
    for fan in catalog_fans.values():
        assert parse_fan(serialize_fan(fan)) == fan


def test_equal_fans_hash_equal(catalog_fans):
    # the hash is cached per fan; equal fans built apart share it, and the
    # round trip through the file format gives an equal fan
    for fan in catalog_fans.values():
        copy = make_fan(
            fan.dim,
            [(g.name, g.vector) for g in fan.generators],
            fan.max_cones,
        )
        again = parse_fan(serialize_fan(fan))
        assert copy == fan == again
        assert hash(copy) == hash(fan) == hash(again)
        assert {fan: 1}[again] == 1
        # a value of its own kind: no tuple of its fields equals it, a
        # pickle or deep copy is an equal fan with the same hash, and no
        # field can be assigned or deleted
        assert fan != (fan.dim, fan.generators, fan.max_cones)
        for clone in (pickle.loads(pickle.dumps(fan)), copy_module.deepcopy(fan)):
            assert clone == fan and hash(clone) == hash(fan)
        with pytest.raises(AttributeError):
            fan.dim = 3
        with pytest.raises(AttributeError):
            del fan.dim
        assert fan.dim == copy.dim


@pytest.mark.parametrize("key", ["p2", "paper-Y"])
def test_fan_keeps_its_maximal_cones_sorted(key):
    # the constructor sorts the maximal cones, so a fan built with them in
    # another order is the same value: equal, with the same hash and text,
    # and a hit in every per-fan cache
    fan = catalog.catalog_fan(key)
    reordered = fan_module.Fan(fan.dim, fan.generators, fan.max_cones[::-1])
    assert reordered.max_cones == fan.max_cones
    assert reordered == fan and hash(reordered) == hash(fan)
    assert serialize_fan(reordered) == serialize_fan(fan)
    assert mori.primitive_collections(reordered) is mori.primitive_collections(fan)


def test_fan_built_from_lists_is_its_tuple_built_copy():
    # the constructor stores both containers and each cone as tuples, so a
    # fan built from lists hashes, validates and equals its tuple-built copy
    p2 = catalog.projective_space(2)
    for cones in (list(p2.max_cones), [list(c) for c in p2.max_cones]):
        fan = fan_module.Fan(2, list(p2.generators), cones)
        assert validate_fan(fan).ok
        assert fan == p2 and hash(fan) == hash(p2)
        assert type(fan.generators) is tuple and type(fan.max_cones) is tuple
        assert all(type(c) is tuple for c in fan.max_cones)


def test_cones_out_of_index_order_fail_validation():
    # a Cone lists strictly increasing indices, and the contraction relies on
    # it; a fan built with its cones' rays reversed meets every geometric
    # condition, so the wall gate rejects it by that order alone and
    # validate_fan names each such cone
    p3 = catalog.projective_space(3)
    b2 = star_subdivide(star_subdivide(p3, ("e1", "e2"), "e4"), ("e0", "e3"), "e5")
    rev2 = fan_module.Fan(3, b2.generators, [c[::-1] for c in b2.max_cones])
    report = validate_fan(rev2)
    assert report.smooth and report.complete and not report.faces_ok
    assert fan_module._wall_pass(rev2) is None
    assert report.witnesses == tuple(
        f"maximal cone <{','.join(rev2.cone_names(c))}> does not list its rays"
        " in strictly increasing index order"
        for c in rev2.max_cones
    )
    for ray, via in (("e4", ("e1", "e2")), ("e5", ("e0", "e3"))):
        assert validate_fan(contract_ray(b2, ray, via)).ok
        with pytest.raises(InternalInconsistencyError):
            contract_ray(rev2, ray, via)
    # one cone out of order is named among the witnesses
    first, *rest = b2.max_cones
    swapped = fan_module.Fan(3, b2.generators, [first[::-1]] + rest)
    report = validate_fan(swapped)
    assert not report.ok and fan_module._wall_pass(swapped) is None
    assert (
        f"maximal cone <{','.join(swapped.cone_names(first[::-1]))}> does not"
        " list its rays in strictly increasing index order"
    ) in report.witnesses


def test_records_keep_repr_hash_and_immutability(tower):
    # each record reprs, hashes and refuses assignment as it always has;
    # its hash is that of its field tuple, so caches and dicts keyed by
    # records behave the same
    _, x, _, y = tower
    assert repr(y.generators[0]) == "RayGenerator(name='e0', vector=(-1, -1, -1, -1))"
    assert repr(mori.primitive_relations(y)[0]) == (
        "PrimitiveRelation(collection=(0, 5, 6), target=(2, 3), "
        "coefficients=(1, 1), degree=1)"
    )
    assert repr(validate_fan(y)) == (
        "ValidationReport(smooth=True, complete=True, faces_ok=True, witnesses=())"
    )
    cone = mori.mori_cone(y)
    info = cone.relations[0]
    path = birational.factor_morphism(y, x)[0]
    records = [
        (y.generators[0], ("name", "vector")),
        (validate_fan(y), ("smooth", "complete", "faces_ok", "witnesses")),
        (info.relation, ("collection", "target", "coefficients", "degree")),
        (info, ("relation", "curve_class", "extremal", "decomposition")),
        (cone, ("relations", "picard_number", "strictly_convex")),
        (
            birational.blow_down_candidates(y)[0],
            ("relation", "valid", "obstruction", "target"),
        ),
        (path.steps[0], ("ray", "center", "fan", "fano", "projective")),
        (path, ("steps",)),
    ]
    assert len({type(record) for record, _ in records}) == 8
    for record, fields in records:
        assert hash(record) == hash(tuple(getattr(record, f) for f in fields))
        with pytest.raises(AttributeError):
            setattr(record, fields[0], None)


def test_serialize_p4_matches_literal():
    fan = parse_fan(P4_TEXT)
    assert parse_fan(serialize_fan(fan)) == fan


def test_serialize_fourfold_line_counts(tower):
    _, _, _, y = tower
    lines = serialize_fan(y).splitlines()
    assert sum(1 for l in lines if l.startswith("ray ")) == 8
    assert sum(1 for l in lines if l.startswith("maxcone ")) == 17


def test_serialize_empty_fan():
    fan = make_fan(3, [], [])
    assert serialize_fan(fan) == "dim 3\n"
    report = validate_fan(parse_fan(serialize_fan(fan)))
    assert not report.complete


# ---------------------------------------------------------------------------
# validation


def test_validate_p4_clean(tower):
    report = validate_fan(tower[0])
    assert report.ok
    assert report.witnesses == ()


def test_validate_missing_cone_breaks_completeness(tower):
    p4 = tower[0]
    mutant = make_fan(
        4,
        [(g.name, g.vector) for g in p4.generators],
        p4.max_cones[:-1],
    )
    report = validate_fan(mutant)
    assert not report.complete
    assert any("wall" in w for w in report.witnesses)


def test_validate_flags_nonsmooth_cone():
    text = (
        "dim 2\nray a 1 0\nray b 1 2\nray c 0 1\nray d -1 -1\n"
        "maxcone a b\nmaxcone b c\nmaxcone c d\nmaxcone d a\n"
    )
    fan = parse_fan(text)
    report = validate_fan(fan)
    assert not report.smooth
    assert report.complete
    assert any("<a,b>" in w and "determinant" in w for w in report.witnesses)
    assert abs(permutation_determinant([(1, 0), (1, 2)])) == 2


def test_validate_unused_generator():
    text = (
        "dim 2\nray a 1 0\nray b 0 1\nray c -1 -1\nray zz 1 1\n"
        "maxcone a b\nmaxcone b c\nmaxcone a c\n"
    )
    report = validate_fan(parse_fan(text))
    assert not report.faces_ok
    assert any("zz" in w for w in report.witnesses)


def test_validate_overlapping_cones():
    report = validate_fan(parse_fan(OVERLAPPING_TEXT))
    assert not report.ok


def test_validate_duplicate_maxcone():
    text = "dim 1\nray p 1\nray m -1\nmaxcone p\nmaxcone p\nmaxcone m\n"
    report = validate_fan(parse_fan(text))
    assert not report.ok


def test_validate_p1():
    report = validate_fan(parse_fan("dim 1\nray p 1\nray m -1\nmaxcone p\nmaxcone m\n"))
    assert report.ok


def test_witnesses_iff_not_ok(catalog_fans):
    for fan in catalog_fans.values():
        report = validate_fan(fan)
        assert report.ok == (not report.witnesses)


def test_complete_cycles_that_are_not_fans():
    # every wall lies in two cones, so each reads complete: the folded and
    # the zigzag cycle fail (a), the twice-winding one passes (a) and (b)
    # finds its probe point in two cones
    for f in (FOLDED_CYCLE, ZIGZAG_CYCLE, TWICE_WINDING):
        report = validate_fan(f)
        assert report.smooth and report.complete and not report.faces_ok
        assert report.witnesses
        assert fan_module._wall_pass(f) is None
    for f in catalog.enumerate_fano(2):
        assert fan_module._wall_pass(f) is not None


GL_TWISTS = {
    1: ((-1,),),
    2: ((2, 1), (1, 1)),
    3: ((1, 2, 0), (0, 1, 0), (3, 1, 1)),
    4: ((1, 1, 0, 2), (0, 1, 0, 0), (1, 0, 1, 1), (0, 0, 0, 1)),
}


def _single_ray_moves(fans, per_fan, seed):
    """Each fan with one generator vector replaced by a primitive vector of
    coordinates in [-2, 2]; the cones stay."""
    rng = random.Random(seed)
    out = []
    for f in fans:
        pool = [v for v in product(range(-2, 3), repeat=f.dim) if gcd(*v) == 1]
        for _ in range(per_fan):
            i = rng.randrange(len(f.generators))
            v = rng.choice(pool)
            gens = [
                (g.name, v if j == i else g.vector)
                for j, g in enumerate(f.generators)
            ]
            out.append(make_fan(f.dim, gens, f.max_cones))
    return out


def _dropped_cones(fans):
    """Each fan with one maximal cone deleted, every way."""
    return [
        make_fan(
            f.dim,
            [(g.name, g.vector) for g in f.generators],
            f.max_cones[:i] + f.max_cones[i + 1 :],
        )
        for f in fans
        for i in range(len(f.max_cones))
    ]


def _face_check_inputs(catalog_fans):
    chains = chain_prefixes()
    base = (
        list(catalog_fans.values())
        + catalog.enumerate_fano(1)
        + catalog.enumerate_fano(2)
        + chains
    )
    twisted = [_twist(f, GL_TWISTS[f.dim]) for f in base]
    return (
        base
        + twisted
        + _dropped_cones(base)
        + _single_ray_moves(chains, 20, 7)
        + [
            parse_fan(OVERLAPPING_TEXT),
            FOLDED_CYCLE,
            ZIGZAG_CYCLE,
            TWICE_WINDING,
            DOUBLE_P2,
        ]
    )


def _raises_inconsistency(verdict, f):
    try:
        verdict(f)
    except InternalInconsistencyError:
        return True
    return False


def _raises_at_the_gate(*queries):
    for query in queries:
        with pytest.raises(InternalInconsistencyError, match="fails validate_fan"):
            query()


def test_linear_face_check_matches_all_pairs_and_oracle(monkeypatch, catalog_fans):
    fans = _face_check_inputs(catalog_fans)
    linear = [validate_fan(f) for f in fans]
    # the wall verdicts are decided exactly on the fans validation accepts
    for f, report in zip(fans, linear):
        for verdict in (mori.wall_classes, mori.is_fano_by_walls, mori.is_projective):
            assert _raises_inconsistency(verdict, f) != report.ok, serialize_fan(f)
    monkeypatch.setattr(fan_module, "_wall_pass", lambda f: None)
    pairs = [validate_fan(f) for f in fans]
    for f, fast, slow in zip(fans, linear, pairs):
        assert fast == slow, serialize_fan(f)
        assert fast.faces_ok == pairwise_faces_ok(f), serialize_fan(f)
    # both verdicts occur among the smooth complete inputs
    tried = [r for r in linear if r.smooth and r.complete]
    assert any(r.faces_ok for r in tried)
    assert any(not r.faces_ok for r in tried)


def _rejection_corpus(catalog_fans):
    """Fans for the rejection path: the six named invalid fans, repeated
    maximal cones in dimensions 1-3, a fan without cones, one with an unused
    ray and one with a repeated vector, and moved-ray and dropped-cone
    mutants of the catalog fans and of the Fano fans of dimensions 2 and 3."""
    named = [
        TWICE_WINDING, FOLDED_CYCLE, DOUBLE_P2, parse_fan(OVERLAPPING_TEXT),
        ZIGZAG_CYCLE, NON_SMOOTH_OVERLAP,
    ]
    repeated = []
    for d in (1, 2, 3):
        p = catalog.projective_space(d)
        gens = [(g.name, g.vector) for g in p.generators]
        first = p.max_cones[:1]
        # one cone twice among the others, a lone cone twice, every cone twice
        for cones in (p.max_cones + first, first * 2, p.max_cones * 2):
            repeated.append(make_fan(d, gens, cones))
    p2 = [(g.name, g.vector) for g in catalog.projective_space(2).generators]
    odd = [
        make_fan(2, p2, []),
        make_fan(2, p2 + [("u", (1, 1))], [(0, 1), (0, 2), (1, 2)]),
        make_fan(2, p2 + [("v", (1, 0))], [(0, 1), (0, 2), (2, 3)]),
    ]
    base = (
        list(catalog_fans.values())
        + catalog.enumerate_fano(2)
        + catalog.enumerate_fano(3)
    )
    moved = _single_ray_moves(base, 4, 11)
    return named + repeated + odd + moved + _dropped_cones(base)


def test_rejection_path_matches_the_own_wall_map_oracle(catalog_fans):
    # the flags are read off the witness lists and the walk runs over the
    # wall map of _wall_owners; the oracle keeps a wall map of cone indices
    # and sets its flags beside the witnesses
    fans = _rejection_corpus(catalog_fans)
    reports = [validate_fan(f) for f in fans]
    for f, report in zip(fans, reports):
        assert report == own_wall_map_rejection(f), serialize_fan(f)
    rejected = [r for r in reports if not r.ok]
    assert (len(fans), len(rejected)) == (361, 347)
    for flag in ("smooth", "complete", "faces_ok"):
        assert {getattr(r, flag) for r in rejected} == {False, True}
    # a lone cone twice passes every wall count and the walk, which reaches
    # both copies
    for d in (1, 2, 3):
        p = catalog.projective_space(d)
        gens = [(g.name, g.vector) for g in p.generators]
        assert validate_fan(make_fan(d, gens, p.max_cones[:1] * 2)).complete


def cone_by_cone_inverses(f):
    """The dual rows of each maximal cone, each cone inverted on its own."""
    rows = []
    for cone in f.max_cones:
        try:
            rows.append(lattice.unimodular_inverse(tuple(zip(*f.cone_vectors(cone)))))
        except ValueError:
            rows.append(None)
    return tuple(rows)


def test_carried_dual_rows_match_each_cone_inverted(catalog_fans):
    # the wall pass inverts the first cone only and carries its rows across
    # each wall, phi_i + a_i * phi_p on the wall rays and -phi_p on the new
    # apex; the table equals the inverse of every cone, and the classes read
    # off it the brute-force ones, on the valid fans and on every
    # intermediate of the exhaustive tower and chain factorizations
    fans = carried_row_fans(catalog_fans)
    assert len(fans) == 82
    for f in fans:
        assert validate_fan(f).ok
        assert fan_module._cone_duals(f) == cone_by_cone_inverses(f), serialize_fan(f)
        assert fan_module.wall_classes(f) == brute_wall_classes(f), serialize_fan(f)


def test_rejected_fans_keep_their_reports_and_stop_at_the_gate():
    # a fan the walk rejects has its smoothness witnesses from the
    # determinant of each cone, and with them the whole report is that of
    # the own-wall-map oracle, which inverts every cone; no dual rows are
    # read from it, as every query that reads them stops at the gate
    named = [
        TWICE_WINDING, FOLDED_CYCLE, DOUBLE_P2, parse_fan(OVERLAPPING_TEXT),
        ZIGZAG_CYCLE, NON_SMOOTH_OVERLAP,
    ]
    fans = named + rejected_complexes(20261020, 120)
    reports = []
    for f in fans:
        reports.append(validate_fan(f))
        assert not reports[-1].ok and fan_module._wall_pass(f) is None
        assert reports[-1] == own_wall_map_rejection(f), serialize_fan(f)
        p = catalog.projective_space(f.dim)
        _raises_at_the_gate(
            lambda: locate_relint(f, (1,) * f.dim),
            lambda: refines(f, p),
            lambda: refines(p, f),
            lambda: fan_isomorphism(f, p),
            lambda: fan_isomorphism(p, f),
            lambda: canonical_gl_key(f),
        )
    assert {r.smooth for r in reports} == {False, True}


def test_cone_indices_out_of_range_fail_validation():
    # a Fan built directly may name a ray index outside its generators: the
    # walk rejects it before reading a vector, validate_fan names each such
    # cone by its index tuple under faces_ok and leaves it out of the other
    # checks, and every query stops at the gate
    p2 = catalog.projective_space(2)
    high = fan_module.Fan(2, p2.generators, [(0, 1), (1, 5), (0, 5)])
    low = fan_module.Fan(2, p2.generators, [(-1, 0), (0, 1), (1, 2)])
    assert validate_fan(high) == (
        True,
        False,
        False,
        (
            "wall <e0> lies in 1 maximal cone(s), expected 2",
            "wall <e1> lies in 1 maximal cone(s), expected 2",
            "maximal cone (0, 5) has a ray index out of range",
            "maximal cone (1, 5) has a ray index out of range",
            "generator e2 lies in no maximal cone",
        ),
    )
    assert validate_fan(low) == (
        True,
        False,
        False,
        (
            "wall <e0> lies in 1 maximal cone(s), expected 2",
            "wall <e2> lies in 1 maximal cone(s), expected 2",
            "maximal cone (-1, 0) has a ray index out of range",
        ),
    )
    for f in (high, low):
        assert fan_module._wall_pass(f) is None
        _raises_at_the_gate(
            lambda: mori.wall_classes(f),
            lambda: mori.mori_cone(f),
            lambda: mori.is_fano(f),
            lambda: birational.blow_down_candidates(f),
            lambda: locate_relint(f, (1, 1)),
            lambda: birational.factor_morphism(f, p2),
        )


def test_cones_of_the_wrong_length_fail_validation():
    # a Fan built directly may hold a maximal cone with other than dim rays:
    # the walk rejects it before inverting the first cone, which Fan's
    # order makes the short one, validate_fan names it under faces_ok and
    # leaves it out of the determinant and wall checks, and every query
    # stops at the gate
    p2 = catalog.projective_space(2)
    for extra in ((0,), (0, 1, 2), ()):
        f = fan_module.Fan(2, p2.generators, list(p2.max_cones) + [extra])
        label = "<" + ",".join(f.cone_names(extra)) + ">"
        assert validate_fan(f) == (
            True,
            True,
            False,
            (f"maximal cone {label} has {len(extra)} rays, expected 2",),
        )
        assert fan_module._wall_pass(f) is None
        _raises_at_the_gate(
            lambda: mori.wall_classes(f),
            lambda: mori.is_fano(f),
            lambda: birational.blow_down_candidates(f),
            lambda: birational.factor_morphism(f, p2),
            lambda: birational.factor_morphism(p2, f),
        )


# ---------------------------------------------------------------------------
# locate_relint


def test_locate_relint_on_exceptional_ray(tower):
    _, x, _, _ = tower
    cone, coeffs = locate_relint(x, (1, 1, 1, 0))
    assert x.cone_names(cone) == ("e5",)
    assert coeffs == (1,)


def test_locate_relint_zero_point(tower):
    for fan in tower:
        assert locate_relint(fan, (0, 0, 0, 0)) == ((), ())


def test_locate_relint_interior_point(tower):
    p4 = tower[0]
    cone, coeffs = locate_relint(p4, (1, 2, 3, 4))
    assert all(c > 0 for c in coeffs)
    total = [0, 0, 0, 0]
    for i, c in zip(cone, coeffs):
        for j in range(4):
            total[j] += c * p4.generators[i].vector[j]
    assert tuple(total) == (1, 2, 3, 4)


def test_locate_relint_dimension_check(tower):
    with pytest.raises(DimensionMismatchError):
        locate_relint(tower[0], (1, 2))


def test_non_integral_coordinates_are_rejected(tower):
    # int() alone would truncate 1.5 to 1 and 1/2 to 0
    with pytest.raises(FanSyntaxError, match="coordinates must be integers"):
        make_fan(2, [("a", (1.5, 0)), ("b", (0, 1))], [(0, 1)])
    with pytest.raises(FanSyntaxError, match="coordinates must be integers"):
        locate_relint(catalog.projective_space(2), (Fraction(1, 2), 0))
    # int() alone raises ValueError, OverflowError or TypeError on these,
    # and takes a bool for 0 or 1
    for bad in (float("nan"), float("inf"), -float("inf"), None, True, False):
        with pytest.raises(FanSyntaxError, match="coordinates must be integers"):
            make_fan(2, [("a", (bad, 0)), ("b", (0, 1))], [(0, 1)])
        with pytest.raises(FanSyntaxError, match="coordinates must be integers"):
            locate_relint(catalog.projective_space(2), (1, bad))
    # not iterable, or not a pair: TypeError or ValueError without the check
    with pytest.raises(FanSyntaxError, match="coordinates must be integers"):
        make_fan(1, [("a", 1)], [])
    with pytest.raises(FanSyntaxError, match="coordinates must be integers"):
        locate_relint(catalog.projective_space(2), 5)
    for gen in ("a", ("a",), ("a", (1,), 0), 5, None):
        with pytest.raises(FanSyntaxError, match="not a \\(name, vector\\) pair"):
            make_fan(1, [gen], [])
    # a ray name that is not a str: TypeError from the name pattern
    for name in (None, 5, b"a"):
        with pytest.raises(FanSyntaxError, match="invalid ray name"):
            make_fan(1, [(name, (1,))], [])
    for name in (5, b"a"):  # None asks for the next free name
        with pytest.raises(FanSyntaxError, match="invalid ray name"):
            star_subdivide(catalog.projective_space(2), ("e1", "e2"), new_name=name)
    p4 = tower[0]
    assert locate_relint(p4, (Fraction(2), 1.0, 0, 0)) == locate_relint(
        p4, (2, 1, 0, 0)
    )
    assert make_fan(1, [("a", (Fraction(-1),))], [(0,)]).generators[0].vector == (-1,)


@pytest.mark.parametrize("dim", [2.0, True, "2"])
def test_non_integer_dimension_is_rejected(dim):
    # a float dimension used to build Fan(dim=2.0), which serialize_fan wrote
    # as "dim 2.0" and parse_fan rejected
    with pytest.raises(DimensionMismatchError):
        make_fan(dim, [("a", (1, 0)), ("b", (0, 1))], [(0, 1)])


@pytest.mark.parametrize(
    "index",
    [1.9, 1.5, Fraction(1, 2), float("nan"), float("inf"), None, True, False],
)
def test_non_integer_ray_index_is_rejected(index):
    # int() alone would truncate: (0, 1.9) became the cone (0, 1), and
    # star_subdivide(P2, (0, 1.5)) subdivided <e0,e1>; on NaN, inf and None
    # it raises ValueError, OverflowError and TypeError; True passed as 1
    with pytest.raises(UnknownRayError, match="not an integer"):
        make_fan(2, [("a", (1, 0)), ("b", (0, 1))], [(0, index)])
    p2 = catalog.projective_space(2)
    with pytest.raises(UnknownRayError, match="not an integer"):
        star_subdivide(p2, (0, index))
    with pytest.raises(UnknownRayError, match="not an integer"):
        fan_module.resolve_ray(p2, index)
    # a cone that is a bare value, not a collection: TypeError without the
    # check
    with pytest.raises(UnknownRayError, match="not an integer"):
        make_fan(2, [("a", (1, 0)), ("b", (0, 1))], [index])
    with pytest.raises(UnknownRayError, match="not a collection of rays"):
        star_subdivide(p2, index)
    # an integral value of another type is still an index
    assert fan_module.resolve_ray(p2, Fraction(2)) == 2
    assert fan_module.resolve_ray(p2, 2.0) == 2


def test_locate_relint_rejects_incomplete_fan():
    fan = parse_fan("dim 2\nray a 1 0\nray b 0 1\nmaxcone a b\n")
    with pytest.raises(InternalInconsistencyError):
        locate_relint(fan, (-1, -1))


def test_locate_relint_rejects_ambiguous_location():
    # every point off the rays of the twice-winding cycle lies in two cones
    with pytest.raises(InternalInconsistencyError, match="fails validate_fan"):
        locate_relint(TWICE_WINDING, (1, 1))


@pytest.mark.slow  # reads the dimension-3 enumeration; the oracle takes about 7 s
def test_locate_relint_matches_brute_force_partition(catalog_fans, seeded_chains):
    # locate_relint answers with the first maximal cone that holds the
    # point; the brute force tries every face. Points: the sum of every
    # primitive collection and seeded random ones, 60 per catalog fan and 5
    # per other fan. Fans: the contraction corpus (the catalog, the Fano
    # classes of dimensions 1-3, the chain prefixes and more) and the
    # seeded chains. The relation table built from the claims is the
    # package's.
    rng = random.Random(20240917)
    for fan in dict.fromkeys(contraction_corpus(catalog_fans) + seeded_chains):
        table = []
        for coll in brute_primitive_collections(fan):
            point = tuple(map(sum, zip(*fan.cone_vectors(coll))))
            (face,) = relint_claims(fan, point)
            coeffs = tuple(rational_solve(fan.cone_vectors(face), point))
            degree = len(coll) - sum(coeffs)
            table.append(mori.PrimitiveRelation(coll, face, coeffs, degree))
            assert locate_relint(fan, point) == (face, coeffs)
        assert mori.primitive_relations(fan) == tuple(table)
        for _ in range(60 if fan in catalog_fans.values() else 5):
            point = tuple(rng.randint(-9, 9) for _ in range(fan.dim))
            (face,) = relint_claims(fan, point)
            coeffs = tuple(rational_solve(fan.cone_vectors(face), point))
            assert all(c > 0 for c in coeffs)
            assert locate_relint(fan, point) == (face, coeffs)


# ---------------------------------------------------------------------------
# star subdivision


def test_star_subdivide_tower_counts(tower):
    p4, x, w, y = tower
    assert (len(p4.generators), len(p4.max_cones)) == (5, 5)
    assert (len(x.generators), len(x.max_cones)) == (6, 9)
    assert (len(w.generators), len(w.max_cones)) == (7, 13)
    assert (len(y.generators), len(y.max_cones)) == (8, 17)
    for fan in tower:
        assert validate_fan(fan).ok


def test_star_subdivide_new_ray_is_center_sum(tower):
    p4 = tower[0]
    sub = star_subdivide(p4, ("e1", "e2", "e3"), "e5")
    assert sub.generators[-1] == sub.generators[sub.index_of("e5")]
    assert sub.generators[-1].vector == (1, 1, 1, 0)


def test_star_subdivide_cone_count_rule(catalog_fans):
    # cone count grows by (|center| - 1) * (number of cones containing it)
    for fan in catalog_fans.values():
        if fan.dim < 2:
            continue
        seen = set()
        for mc in fan.max_cones:
            for size in range(2, fan.dim + 1):
                seen.update(combinations(mc, size))
        for center in sorted(seen):
            containing = sum(
                1 for mc in fan.max_cones if set(center) <= set(mc)
            )
            sub = star_subdivide(fan, center)
            assert len(sub.generators) == len(fan.generators) + 1
            assert len(sub.max_cones) == len(fan.max_cones) + (
                len(center) - 1
            ) * containing
            assert validate_fan(sub).ok


def test_star_subdivide_auto_name(tower):
    p4 = tower[0]
    sub = star_subdivide(p4, ("e1", "e2"))
    assert sub.generators[-1].name == "e5"
    assert _auto_name(["x", "e0"]) == "e1"


def test_star_subdivide_errors(tower):
    p4, x, _, _ = tower
    with pytest.raises(CenterTooSmallError):
        star_subdivide(p4, ("e1",))
    with pytest.raises(CenterNotInFanError):
        star_subdivide(x, ("e0", "e4", "e5"))
    with pytest.raises(NameCollisionError):
        star_subdivide(p4, ("e1", "e2"), "e0")
    with pytest.raises(UnknownRayError):
        star_subdivide(p4, ("e1", "nope"))
    # a one-shot iterable is read once; the message still names its rays
    with pytest.raises(UnknownRayError, match=r"\('e1', 'e1'\)"):
        star_subdivide(p4, (r for r in ["e1", "e1"]))


def test_bare_ray_name_is_not_a_collection():
    # tuple("ab") is ('a', 'b'): star_subdivide subdivided <a,b>, and "e1"
    # failed with "no ray named 'e'"
    abc = make_fan(
        2, [("a", (1, 0)), ("b", (0, 1)), ("c", (-1, -1))], [(0, 1), (1, 2), (0, 2)]
    )
    p2 = catalog.projective_space(2)
    f1 = star_subdivide(p2, ("e1", "e2"), "x")
    calls = [
        lambda: star_subdivide(abc, "ab"),
        lambda: star_subdivide(p2, "e1"),
        lambda: contract_ray(f1, "x", "e1"),
        lambda: birational.blow_down(f1, "x", via="e1"),
        lambda: mori.primitive_relation(f1, "x"),
    ]
    for call in calls:
        with pytest.raises(UnknownRayError, match="not a collection of rays"):
            call()


# ---------------------------------------------------------------------------
# contraction


def test_contract_undoes_subdivision(tower):
    _, _, w, y = tower
    assert structurally_equal(contract_ray(y, "e7", ("e4", "e5")), w)


def test_contract_other_route_gives_isomorphic_not_equal(tower):
    _, _, w, y = tower
    wbar = contract_ray(y, "e7", ("e1", "e6"))
    assert not structurally_equal(wbar, w)
    assert fan_isomorphism(w, wbar) is not None


def test_contract_bare_ray_uses_first_valid_relation(tower):
    _, _, _, y = tower
    bare = birational.blow_down(y, "e7")
    assert structurally_equal(bare, contract_ray(y, "e7", ("e1", "e6")))


def test_contract_obstructed_rays(tower):
    _, _, _, y = tower
    for ray in ("e5", "e6"):
        with pytest.raises(StarConditionViolatedError) as exc:
            birational.blow_down(y, ray)
        witness_names = {y.cone_names(c) for c in exc.value.witnesses}
        assert ("e3", "e5", "e6", "e7") in witness_names


def test_contract_without_relation(tower):
    p4, x, _, _ = tower
    with pytest.raises(NoBlowdownRelationError):
        birational.blow_down(p4, "e0")
    with pytest.raises(NoBlowdownRelationError):
        contract_ray(x, "e5", ("e1", "e2"))
    # a + c + b = b and both cones on b hold two of {a, b, c}, but a
    # collection holding the ray is no blow-down
    p1xp1 = make_fan(
        2,
        [("a", (1, 0)), ("b", (0, 1)), ("c", (-1, 0)), ("d", (0, -1))],
        [(0, 1), (1, 2), (2, 3), (0, 3)],
    )
    with pytest.raises(NoBlowdownRelationError):
        contract_ray(p1xp1, "b", ("a", "b", "c"))


def test_contract_revalidation_catches_corrupt_input(tower):
    # an unused generator would slip past relation detection and the star
    # condition, but the check of the input comes first
    _, _, _, y = tower
    gens = [(g.name, g.vector) for g in y.generators] + [("zz", (1, 2, 3, 5))]
    broken = make_fan(4, gens, y.max_cones)
    with pytest.raises(InternalInconsistencyError, match="fails validate_fan"):
        contract_ray(broken, "e7", ("e4", "e5"))


def test_contract_x_recovers_p4(tower):
    p4, x, _, _ = tower
    assert structurally_equal(birational.blow_down(x, "e5"), p4)


def test_roundtrip_over_all_catalog_cones(catalog_fans):
    for fan in catalog_fans.values():
        if fan.dim < 2:
            continue
        seen = set()
        for mc in fan.max_cones:
            for size in range(2, fan.dim + 1):
                seen.update(combinations(mc, size))
        for center in sorted(seen):
            sub = star_subdivide(fan, center, "roundtrip")
            back = contract_ray(sub, "roundtrip", center)
            assert structurally_equal(back, fan)
            # names and ray order survive too, so the fans are equal outright
            assert back == fan


def contraction_corpus(catalog_fans):
    """Valid fans of dimensions 1-4: the catalog, the Fano classes of
    dimensions 1-3, the seeded chains, the non-projective threefold and
    seeded blow-up chains of dimensions 2-4."""
    seeded = [blowup_chain(s, d, 1 + s % 5) for s in range(40) for d in (2, 3, 4)]
    return (
        list(catalog_fans.values())
        + [f for d in (1, 2, 3) for f in catalog.enumerate_fano(d)]
        + chain_prefixes()
        + [twisted_threefold()]
        + seeded
    )


def test_every_star_contraction_is_a_valid_fan(catalog_fans):
    """``contract_ray`` checks its input and not its result, by Sato's
    argument in its docstring: any ray set, not only a primitive
    collection, whose vectors sum to a generator x outside it and which
    passes the star condition contracts a valid fan to a valid fan, and
    the star subdivision of the result at the set gives the fan back."""
    contracted = violated = 0
    for f in contraction_corpus(catalog_fans):
        assert validate_fan(f).ok
        index = {v: i for i, v in enumerate(f.vectors())}
        # the cones on x hold dim - 1 other rays, so no larger set can
        # pass the star condition
        for h in range(2, f.dim + 1):
            for coll in combinations(range(len(f.generators)), h):
                x = index.get(tuple(map(sum, zip(*f.cone_vectors(coll)))))
                if x is None or x in coll:
                    continue
                try:
                    target = contract_ray(f, x, coll)
                except StarConditionViolatedError:
                    violated += 1
                    continue
                contracted += 1
                assert validate_fan(target).ok
                back = star_subdivide(target, f.cone_names(coll), f.generators[x].name)
                assert structurally_equal(back, f)
    assert (contracted, violated) == (361, 498)


# ---------------------------------------------------------------------------
# refinement


def test_refines_tower(tower):
    p4, x, w, y = tower
    assert refines(x, p4)
    assert refines(w, x)
    assert refines(y, x)
    assert refines(y, p4)
    assert not refines(p4, x)
    assert not refines(x, y)


def test_refines_is_reflexive(catalog_fans):
    for fan in catalog_fans.values():
        assert refines(fan, fan)


def test_refines_dimension_mismatch(catalog_fans):
    with pytest.raises(DimensionMismatchError):
        refines(catalog_fans["p2"], catalog_fans["p3"])


def test_subdivision_refines_base(tower):
    p4 = tower[0]
    assert refines(star_subdivide(p4, ("e2", "e4")), p4)


def _non_smooth_plane_fan():
    # complete, every cone of determinant +-2 or 4: no dual rows anywhere
    return make_fan(
        2, [("a", (1, 0)), ("b", (-1, 2)), ("c", (-1, -2))], [(0, 1), (1, 2), (0, 2)]
    )


def test_refines_rejects_non_unimodular_fans(catalog_fans):
    # refinement is defined on valid fans: each argument goes through the
    # gate, so a fan with non-unimodular cones raises on either side, also
    # where its cones would decide the containment
    f = _non_smooth_plane_fan()
    # (0,1) splits <a,b>; the pieces lie in non-unimodular cones of f
    split = make_fan(
        2,
        [("a", (1, 0)), ("b", (-1, 2)), ("c", (-1, -2)), ("d", (0, 1))],
        [(0, 3), (1, 3), (1, 2), (0, 2)],
    )
    p2 = catalog_fans["p2"]
    _raises_at_the_gate(
        lambda: refines(f, f),
        lambda: refines(split, f),
        lambda: refines(p2, f),
        lambda: refines(f, p2),
    )


def _refinement_pairs(catalog_fans):
    fans = list(catalog_fans.values())
    yield from ((a, b) for a in fans for b in fans if a.dim == b.dim)
    surfaces = catalog.enumerate_fano(2)
    yield from ((a, b) for a in surfaces for b in surfaces)
    for seed, dim, steps in ((1, 3, 6), (2, 4, 4)):
        prefixes = [blowup_chain(seed, dim, k) for k in range(steps + 1)]
        yield from ((a, b) for a in prefixes for b in prefixes)
        twist = [[int(i == j) for j in range(dim)] for i in range(dim)]
        twist[0][dim - 1] = 2
        twist[dim - 1][1] = -1
        assert lattice.determinant(twist) == 1
        twisted = [_twist(f, twist) for f in prefixes]
        yield from zip(twisted, [twisted[0]] * len(twisted))
        yield from zip(twisted, prefixes)
        yield from zip(prefixes, twisted)


def test_refines_matches_brute_force_oracle(catalog_fans):
    verdicts = []
    for fine, coarse in _refinement_pairs(catalog_fans):
        verdict = refines(fine, coarse)
        assert verdict == brute_refines(fine, coarse), (fine, coarse)
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


# ---------------------------------------------------------------------------
# structural equality and isomorphism


def test_structural_key_ignores_names_and_order(tower):
    p4 = tower[0]
    renamed = make_fan(
        4,
        [(f"r{i}", g.vector) for i, g in enumerate(p4.generators)],
        p4.max_cones,
    )
    assert structurally_equal(p4, renamed)
    perm = [3, 1, 4, 0, 2]
    inverse = {old: new for new, old in enumerate(perm)}
    shuffled = make_fan(
        4,
        [(f"s{i}", p4.generators[j].vector) for i, j in enumerate(perm)],
        [[inverse[i] for i in cone] for cone in p4.max_cones],
    )
    assert structurally_equal(p4, shuffled)
    assert structural_key(p4) == structural_key(shuffled)


def test_isomorphism_identity(tower):
    p4 = tower[0]
    m = fan_isomorphism(p4, p4)
    assert m == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def test_isomorphism_rejects_different_sizes(tower):
    _, x, w, _ = tower
    assert fan_isomorphism(x, w) is None


def test_isomorphism_rejects_same_size_different_shape(catalog_fans):
    from toricfan import catalog

    surfaces = catalog.enumerate_fano(2)
    by_rays = {}
    for f in surfaces:
        by_rays.setdefault(len(f.generators), []).append(f)
    p1xp1, bl1p2 = by_rays[4]
    assert fan_isomorphism(p1xp1, bl1p2) is None


def _twist(fan, matrix, rename=True):
    def apply(v):
        return tuple(
            sum(matrix[i][j] * v[j] for j in range(len(v)))
            for i in range(len(matrix))
        )

    return make_fan(
        fan.dim,
        [
            (f"t{i}" if rename else g.name, apply(g.vector))
            for i, g in enumerate(fan.generators)
        ],
        fan.max_cones,
    )


def test_isomorphism_found_after_gl_twist(tower):
    _, _, _, y = tower
    matrix = ((1, 1, 0, 2), (0, 1, 0, 0), (1, 0, 1, 1), (0, 0, 0, 1))
    from toricfan import lattice

    assert lattice.determinant(matrix) in (1, -1)
    twisted = _twist(y, matrix)
    m = fan_isomorphism(y, twisted)
    assert m is not None
    # reapplication: the map transports generators and cones exactly
    img = {tuple(sum(m[i][j] * g.vector[j] for j in range(4)) for i in range(4))
           for g in y.generators}
    assert img == set(twisted.vectors())
    assert canonical_gl_key(y) == canonical_gl_key(twisted)


def _unimodular_cone(rng, n, fixed=()):
    """A sorted Z-basis of Z^n with entries in [-2, 2] holding ``fixed``."""
    while True:
        vecs = list(fixed) + [
            tuple(rng.randint(-2, 2) for _ in range(n))
            for _ in range(n - len(fixed))
        ]
        if len(set(vecs)) == n and lattice.determinant(vecs) in (1, -1):
            return tuple(sorted(vecs))


def searched_cone_pairs(monkeypatch, dims):
    """Every pair of cones in every complex the Fano search enters, and
    every (new cone, cone) pair its convexity rule weighs."""
    from toricfan import _fano3

    entered, weighed = set(), set()
    real_rule = _fano3._convex

    def rule(cones, vertices, new_cone, u, admissible, nu):
        cones = frozenset(cones)  # the search's complex, which it changes later
        weighed.update((new_cone, cone) for cone in cones)
        child = real_rule(cones, vertices, new_cone, u, admissible, nu)
        if child is not None:  # grow enters the complex with new_cone added
            entered.update(combinations(sorted(cones | {new_cone}), 2))
        return child

    monkeypatch.setattr(_fano3, "_convex", rule)  # the root, one cone, has no pair
    for dim in dims:
        _fano3.enumerate_fano_fans(dim)
    return entered, weighed


def face_check_agrees(pairs):
    """Each pair against the Fraction-simplex overlap oracle, in both
    argument orders; returns the verdicts seen."""
    exact = fan_module.cones_meet_in_common_face
    verdicts = set()
    for a, b in pairs:
        meet = not _cones_overlap(a, b)
        assert exact(a, b) == exact(b, a) == meet, (a, b)
        verdicts.add(meet)
    return verdicts


def test_face_pair_check_matches_fraction_oracle(monkeypatch):
    """The face check's integer LP against the Fraction-simplex overlap
    oracle: seeded unimodular pairs sharing 0..n-1 rays, their GL-twisted
    copies, the pairs the convexity rule of the 1- and 2-D enumerations
    weighs, and every pair of cones in every complex they enter. The last
    all meet in a common face, as the rule implies (``_fano3``)."""
    rng = random.Random(20240917)
    pairs = []
    for n in (2, 3, 4):
        for _ in range(150):
            a = _unimodular_cone(rng, n)
            shared = rng.sample(a, rng.randrange(n))
            pairs.append((a, _unimodular_cone(rng, n, shared)))
    pairs += [
        tuple(
            tuple(tuple(lattice.dot(r, v) for r in GL_TWISTS[len(v)]) for v in cone)
            for cone in pair
        )
        for pair in pairs
    ]
    entered, weighed = searched_cone_pairs(monkeypatch, (1, 2))
    assert (len(entered), len(weighed)) == (43, 61)
    assert face_check_agrees(pairs) == {False, True}
    assert face_check_agrees(sorted(weighed)) == {False, True}
    assert face_check_agrees(sorted(entered)) == {True}


@pytest.mark.slow
def test_face_pairs_of_dim3_search_meet_in_common_faces(monkeypatch):
    """Every pair of cones in every complex the 3-D search enters meets in a
    common face, by the face check and by the overlap oracle alike; the
    search runs with no coordinate permutation to prune by, so it enters
    every complex, mirror images too."""
    from toricfan import _fano3

    monkeypatch.setattr(_fano3, "_coordinate_permutations", lambda dim: ())
    entered, _ = searched_cone_pairs(monkeypatch, (3,))
    assert len(entered) == 5263
    assert face_check_agrees(sorted(entered)) == {True}


def _transports(m, a, b):
    """Whether m maps a's generators bijectively onto b's and a's maximal
    cones onto b's."""
    index = {v: i for i, v in enumerate(b.vectors())}
    images = [tuple(lattice.dot(row, v) for row in m) for v in a.vectors()]
    if sorted(images) != sorted(index):
        return False
    cones = {tuple(sorted(index[images[i]] for i in cone)) for cone in a.max_cones}
    return cones == set(b.max_cones) and lattice.determinant(m) in (1, -1)


def _reversed(fan):
    """The same fan with its rays listed in reverse order."""
    last = len(fan.generators) - 1
    return make_fan(
        fan.dim,
        [(g.name, g.vector) for g in reversed(fan.generators)],
        [[last - i for i in cone] for cone in fan.max_cones],
    )


def test_isomorphism_is_equivalence_on_catalog(catalog_fans, tower):
    shear = ((1, 1, 0, 2), (0, 1, 0, 0), (1, 0, 1, 1), (0, 0, 0, 1))
    y = tower[3]
    fans = (
        list(catalog_fans.values())
        + catalog.enumerate_fano(2)
        + [contract_ray(y, "e7", ("e1", "e6"))]
        + [_twist(f, shear) for f in tower]
        + [_twist(_reversed(f), shear) for f in tower[1:]]
    )
    keys = [canonical_gl_key(f) for f in fans]
    assert keys == [brute_canonical_gl_key(f) for f in fans]
    for a in fans:
        assert fan_isomorphism(a, a) is not None
    for a, key_a in zip(fans, keys):
        for b, key_b in zip(fans, keys):
            m = fan_isomorphism(a, b)
            ba = fan_isomorphism(b, a) is not None
            assert (m is not None) == ba == (key_a == key_b)
            if m is not None:
                assert _transports(m, a, b)


def test_canonical_key_matches_the_brute_oracle(catalog_fans):
    # the catalog, the Fano classes of dimensions 1-3 and chain_prefixes(),
    # among the rest of the contraction corpus
    for f in contraction_corpus(catalog_fans):
        assert canonical_gl_key(f) == brute_canonical_gl_key(f)


def test_isomorphism_of_fans_without_maximal_cones():
    # a fan with no maximal cone is not complete: the gate rejects it
    # before the generator vectors are compared
    a = make_fan(2, [("a", (1, 0)), ("b", (0, 1))], [])
    b = make_fan(2, [("x", (0, 1)), ("y", (1, 0))], [])
    _raises_at_the_gate(
        lambda: fan_isomorphism(a, b),
        lambda: fan_isomorphism(b, a),
        lambda: canonical_gl_key(a),
    )


def test_isomorphism_rejects_a_non_unimodular_first_cone():
    # <a,b> has determinant 2; the other two cones are unimodular, and the
    # fan is rejected whichever side it is on
    fan = make_fan(
        2, [("a", (1, 0)), ("b", (1, 2)), ("c", (-1, -1))], [(0, 1), (1, 2), (0, 2)]
    )
    assert fan.max_cones[0] == (0, 1)
    p2 = catalog.projective_space(2)
    _raises_at_the_gate(
        lambda: fan_isomorphism(fan, fan),
        lambda: fan_isomorphism(fan, p2),
        lambda: fan_isomorphism(p2, fan),
        lambda: canonical_gl_key(fan),
    )


def test_isomorphism_without_a_unimodular_cone():
    # complete fans whose cones ab, ac, bc have determinants 2, -2 and 4,
    # and 3, -3 and 6: neither has a normal form, and each is rejected
    # before one is looked for, so two such fans share no key
    fan = make_fan(
        2, [("a", (1, 0)), ("b", (-1, 2)), ("c", (-1, -2))], [(0, 1), (1, 2), (0, 2)]
    )
    assert [lattice.determinant(fan.cone_vectors(c)) for c in fan.max_cones] == [2, -2, 4]
    other = make_fan(
        2, [("a", (1, 0)), ("b", (-1, 3)), ("c", (-1, -3))], [(0, 1), (1, 2), (0, 2)]
    )
    dets = [lattice.determinant(other.cone_vectors(c)) for c in other.max_cones]
    assert dets == [3, -3, 6]
    p2 = catalog.projective_space(2)
    _raises_at_the_gate(
        lambda: fan_isomorphism(fan, p2),
        lambda: fan_isomorphism(p2, fan),
        lambda: fan_isomorphism(fan, other),
        lambda: fan_isomorphism(other, fan),
        lambda: canonical_gl_key(fan),
        lambda: canonical_gl_key(other),
    )


def test_isomorphism_rejects_repeated_vectors():
    # a repeated generator vector fails validate_fan, with cones or without
    fan = make_fan(2, [("a", (1, 0)), ("b", (1, 0)), ("c", (0, 1))], [(0, 2), (1, 2)])
    coneless = make_fan(2, [("a", (1, 0)), ("b", (1, 0))], [])
    _raises_at_the_gate(
        lambda: fan_isomorphism(fan, fan),
        lambda: fan_isomorphism(coneless, coneless),
        lambda: canonical_gl_key(fan),
    )
