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
    OVERLAPPING_TEXT,
    TWICE_WINDING,
    ZIGZAG_CYCLE,
    blowup_chain,
    chain_prefixes,
    twisted_threefold,
)
from oracles import (
    _cones_overlap,
    brute_refines,
    pairwise_faces_ok,
    permutation_determinant,
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


@pytest.mark.parametrize(
    "build, error, match",
    [
        (
            lambda: make_fan(2, PLANE_RAYS + [("a", (1, 1))], []),
            DuplicateNameError,
            "duplicate ray name 'a'",
        ),
        (
            lambda: make_fan(2, [("a", (1, 0, 0))], []),
            DimensionMismatchError,
            "expected 2 coordinates, got 3",
        ),
        (
            lambda: make_fan(2, PLANE_RAYS, [(0, 3)]),
            UnknownRayError,
            "ray index 3",
        ),
        (
            lambda: make_fan(2, PLANE_RAYS, [(1, 1)]),
            FanSyntaxError,
            "repeated ray",
        ),
        (
            lambda: make_fan(2, PLANE_RAYS, [(0, 1, 2)]),
            DimensionMismatchError,
            "must have 2 rays, got 3",
        ),
        (
            lambda: fan_module.resolve_ray(catalog.projective_space(2), 99),
            UnknownRayError,
            "no ray with index 99",
        ),
    ],
    ids=[
        "duplicate-name",
        "coordinate-count",
        "index-range",
        "repeated-ray",
        "cone-arity",
        "resolve-ray",
    ],
)
def test_make_fan_structural_errors(build, error, match):
    # parse_fan checks these first, so only direct calls reach make_fan's own
    with pytest.raises(error, match=match):
        build()


@pytest.mark.parametrize(
    "text",
    [
        "ray a 1 0\n",  # ray before dim
        "dim 2\ndim 2\n",  # duplicate dim
        "dim 0\n",  # nonpositive dimension
        "dim 2\nray a 1 x\n",  # non-integer coordinate
        "dim 2\nray a 1 0\nray b 0 1\nmaxcone a b\nray c -1 -1\n",  # ray after maxcone
        "dim 2\nray a 1 0\nmaxcone a a\n",  # repeated ray in cone
        "dim 2\nwibble\n",  # unknown directive
        "",  # missing dim
    ],
)
def test_parse_syntax_errors(text):
    with pytest.raises(FanSyntaxError):
        parse_fan(text)


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
        assert fan_module._walls(f) is None
    for f in catalog.enumerate_fano(2):
        assert fan_module._walls(f) is not None


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


def _face_check_inputs(catalog_fans):
    chains = chain_prefixes()
    base = (
        list(catalog_fans.values())
        + catalog.enumerate_fano(1)
        + catalog.enumerate_fano(2)
        + chains
    )
    twisted = [_twist(f, GL_TWISTS[f.dim]) for f in base]
    deleted = [
        make_fan(
            f.dim,
            [(g.name, g.vector) for g in f.generators],
            f.max_cones[:i] + f.max_cones[i + 1 :],
        )
        for f in base
        for i in range(len(f.max_cones))
    ]
    return (
        base
        + twisted
        + deleted
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


def test_linear_face_check_matches_all_pairs_and_oracle(monkeypatch, catalog_fans):
    fans = _face_check_inputs(catalog_fans)
    linear = [validate_fan(f) for f in fans]
    # the wall verdicts are decided exactly on the fans validation accepts
    for f, report in zip(fans, linear):
        for verdict in (mori.wall_classes, mori.is_fano_by_walls, mori.is_projective):
            assert _raises_inconsistency(verdict, f) != report.ok, serialize_fan(f)
    monkeypatch.setattr(fan_module, "_walls", lambda f: None)
    pairs = [validate_fan(f) for f in fans]
    for f, fast, slow in zip(fans, linear, pairs):
        assert fast == slow, serialize_fan(f)
        assert fast.faces_ok == pairwise_faces_ok(f), serialize_fan(f)
    # both verdicts occur among the smooth complete inputs
    tried = [r for r in linear if r.smooth and r.complete]
    assert any(r.faces_ok for r in tried)
    assert any(not r.faces_ok for r in tried)


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
    with pytest.raises(InternalInconsistencyError, match="ambiguous location"):
        locate_relint(TWICE_WINDING, (1, 1))


def test_locate_relint_matches_brute_force_partition(catalog_fans):
    rng = random.Random(20240917)
    for fan in catalog_fans.values():
        for _ in range(60):
            point = tuple(rng.randint(-9, 9) for _ in range(fan.dim))
            claims = relint_claims(fan, point)
            assert len(claims) == 1
            cone, coeffs = locate_relint(fan, point)
            assert claims[0] == cone
            assert all(c > 0 for c in coeffs)


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
    # an unused generator slips past relation detection and the star
    # condition, but the contracted fan cannot pass revalidation
    from toricfan import ResultInvalidError

    _, _, _, y = tower
    gens = [(g.name, g.vector) for g in y.generators] + [("zz", (1, 2, 3, 5))]
    broken = make_fan(4, gens, y.max_cones)
    with pytest.raises(ResultInvalidError):
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


def test_refines_decides_non_unimodular_coarse_cones(catalog_fans):
    f = _non_smooth_plane_fan()
    assert refines(f, f) is True
    # (0,1) splits <a,b>; the pieces lie in non-unimodular cones of f
    split = make_fan(
        2,
        [("a", (1, 0)), ("b", (-1, 2)), ("c", (-1, -2)), ("d", (0, 1))],
        [(0, 3), (1, 3), (1, 2), (0, 2)],
    )
    assert refines(split, f) is True
    # <e1,e2> of P^2 runs from (0,1) to (-1,-1), across the ray b of f
    assert refines(catalog_fans["p2"], f) is False
    assert refines(f, catalog_fans["p2"]) is False


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
    f = _non_smooth_plane_fan()
    yield from ((f, f), (f, catalog_fans["p2"]), (catalog_fans["p2"], f))


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
    real_owners, real_rule = _fano3._wall_owners, _fano3._convex

    def enter(cones):  # grow calls it once per complex it enters
        entered.update(combinations(sorted(cones), 2))
        return real_owners(cones)

    def rule(cones, vertices, new_cone):
        weighed.update((new_cone, cone) for cone in cones)
        return real_rule(cones, vertices, new_cone)

    monkeypatch.setattr(_fano3, "_wall_owners", enter)
    monkeypatch.setattr(_fano3, "_convex", rule)
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
    common face, by the face check and by the overlap oracle alike."""
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
    for a in fans:
        assert fan_isomorphism(a, a) is not None
    for a, key_a in zip(fans, keys):
        for b, key_b in zip(fans, keys):
            m = fan_isomorphism(a, b)
            ba = fan_isomorphism(b, a) is not None
            assert (m is not None) == ba == (key_a == key_b)
            if m is not None:
                assert _transports(m, a, b)


def test_isomorphism_of_fans_without_maximal_cones():
    # with no cone to map, only the generator vectors are compared
    a = make_fan(2, [("a", (1, 0)), ("b", (0, 1))], [])
    b = make_fan(2, [("x", (0, 1)), ("y", (1, 0))], [])
    c = make_fan(2, [("a", (1, 0)), ("b", (1, 1))], [])
    assert fan_isomorphism(a, b) == ((1, 0), (0, 1))
    assert fan_isomorphism(a, c) is None


def test_isomorphism_skips_non_unimodular_first_cone():
    # <a,b> has determinant 2; the other two cones are unimodular
    fan = make_fan(
        2, [("a", (1, 0)), ("b", (1, 2)), ("c", (-1, -1))], [(0, 1), (1, 2), (0, 2)]
    )
    assert fan.max_cones[0] == (0, 1)
    assert fan_isomorphism(fan, fan) == ((1, 0), (0, 1))
    assert canonical_gl_key(fan) is not None


def test_isomorphism_rejects_repeated_vectors():
    fan = make_fan(2, [("a", (1, 0)), ("b", (1, 0)), ("c", (0, 1))], [(0, 2), (1, 2)])
    assert fan_isomorphism(fan, fan) is None
