import codecs
import io
import os
import subprocess
import sys

import pytest

from toricfan import (
    ToricFanError,
    birational,
    catalog,
    cli,
    make_fan,
    serialize_fan,
    star_subdivide,
)

from conftest import FOLDED_CYCLE


def run_cli(*argv, stdin="", capsys=None, monkeypatch=None):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def cli_run(capsys, monkeypatch):
    def runner(*argv, stdin=""):
        return run_cli(*argv, stdin=stdin, capsys=capsys, monkeypatch=monkeypatch)

    return runner


@pytest.fixture
def fan_files(tmp_path, catalog_fans):
    paths = {}
    for key, fan in catalog_fans.items():
        p = tmp_path / f"{key}.fan"
        p.write_text(serialize_fan(fan), encoding="utf-8")
        paths[key] = str(p)
    return paths


# ---------------------------------------------------------------------------
# analyze


def test_analyze_w(cli_run, fan_files):
    code, out, _ = cli_run("analyze", fan_files["paper-W"])
    assert code == 0
    assert "primitive relations (5):" in out
    assert "extremal classes: 3" in out
    assert "fano: no (witness {e1,e6}, degree 0)" in out
    assert "picard number: 3" in out


def test_analyze_y(cli_run, fan_files):
    code, out, _ = cli_run("analyze", fan_files["paper-Y"])
    assert code == 0
    assert "fano: yes" in out
    assert "extremal classes: 4" in out
    assert "picard number: 4" in out
    assert "projective: yes" in out


def test_analyze_broken_fan_exits_2(cli_run, tmp_path, catalog_fans):
    p4 = catalog_fans["p4"]
    text = serialize_fan(p4)
    lines = [l for l in text.splitlines() if l != "maxcone e1 e2 e3 e4"]
    broken = tmp_path / "broken.fan"
    broken.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, _ = cli_run("analyze", str(broken))
    assert code == 2
    assert "complete: no" in out
    assert "witnesses:" in out


def test_analyze_folded_cycle_exits_2(cli_run, tmp_path):
    # every wall lies in two cones, so the fan reads complete, but its
    # cones overlap
    path = tmp_path / "folded.fan"
    path.write_text(serialize_fan(FOLDED_CYCLE), encoding="utf-8")
    code, out, _ = cli_run("analyze", str(path))
    assert code == 2
    assert "complete: yes\nfaces: no\n" in out
    assert "do not intersect in a common face" in out


def test_analyze_parse_error_exits_1(cli_run, tmp_path):
    bad = tmp_path / "bad.fan"
    bad.write_text("dim 2\nray a 1\n", encoding="utf-8")
    code, _, err = cli_run("analyze", str(bad))
    assert code == 1
    assert "expected 2 coordinates" in err


@pytest.mark.parametrize("token", ["1_0", "\u0661"])
def test_analyze_non_decimal_integer_exits_1(cli_run, tmp_path, token):
    bad = tmp_path / "bad.fan"
    bad.write_text(f"dim 2\nray a {token} 0\n", encoding="utf-8")
    code, _, err = cli_run("analyze", str(bad))
    assert code == 1
    assert "line 2" in err and "must be integers" in err


def test_analyze_missing_file_exits_1(cli_run):
    code, _, err = cli_run("analyze", "/does/not/exist.fan")
    assert code == 1
    assert "cannot read" in err


def test_analyze_non_utf8_exits_1(cli_run, tmp_path):
    bad = tmp_path / "latin1.fan"
    bad.write_bytes(b"dim 2\nray a\xff 1 0\n")
    code, out, err = cli_run("analyze", str(bad))
    assert code == 1
    assert out == ""
    assert err.startswith(f"cannot read {bad}: ")
    assert "can't decode byte 0xff" in err


def test_analyze_reads_a_file_saved_with_a_bom(cli_run, tmp_path):
    # the README calls the format UTF-8, and editors may save it with a BOM
    text = serialize_fan(catalog.catalog_fan("p2"))
    saved = tmp_path / "p2.fan"
    saved.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
    code, want, _ = cli_run("analyze", "-", stdin=text)
    assert code == 0
    assert cli_run("analyze", str(saved)) == (0, want, "")
    proc = subprocess.run(
        [sys.executable, "-m", "toricfan", "analyze", "-"],
        input=saved.read_bytes(),
        capture_output=True,
        env={**os.environ, "PYTHONIOENCODING": "utf-8"},
    )
    assert (proc.returncode, proc.stdout.decode("utf-8"), proc.stderr) == (0, want, b"")


def test_analyze_byte_stable(cli_run, fan_files):
    _, first, _ = cli_run("analyze", fan_files["paper-Y"])
    _, second, _ = cli_run("analyze", fan_files["paper-Y"])
    assert first == second


def test_analyze_compact(cli_run, fan_files):
    code, out, _ = cli_run("analyze", fan_files["paper-W"], "--format", "compact")
    assert code == 0
    assert "fano=no" in out
    assert "fano_witness={e1,e6}" in out
    assert "picard=3" in out
    assert (
        "relation collection={e1,e6} target={e4,e5} coeffs={1,1} degree=0"
        " extremal=yes" in out
    )


# ---------------------------------------------------------------------------
# blowup / blowdown


def test_blowup_pipe_composability(cli_run, fan_files):
    _, p4_text, _ = cli_run("example", "p4")
    _, blown, _ = cli_run(
        "blowup", "-", "--center", "e1,e2,e3", "--name", "e5", stdin=p4_text
    )
    _, x_text, _ = cli_run("example", "paper-X")
    assert blown == x_text


def test_blowup_bad_center_exits_5(cli_run, fan_files):
    code, _, err = cli_run("blowup", fan_files["p4"], "--center", "e1")
    assert code == 5
    code, _, err = cli_run(
        "blowup", fan_files["paper-X"], "--center", "e0,e4,e5"
    )
    assert code == 5
    assert "not a cone" in err


def test_blowdown_roundtrip(cli_run, fan_files):
    _, x_text, _ = cli_run("example", "paper-X")
    code, out, _ = cli_run("blowdown", "-", "--ray", "e5", stdin=x_text)
    assert code == 0
    _, p4_text, _ = cli_run("example", "p4")
    assert out == p4_text


def test_blowdown_obstructed_exits_5(cli_run, fan_files):
    code, _, err = cli_run("blowdown", fan_files["paper-Y"], "--ray", "e5")
    assert code == 5
    assert "obstructed by cone(s)" in err
    assert "<e3,e5,e6,e7>" in err


def test_blowdown_via_selects_relation(cli_run, fan_files):
    _, w_text, _ = cli_run("example", "paper-W")
    code, out, _ = cli_run(
        "blowdown", fan_files["paper-Y"], "--ray", "e7", "--via", "e4,e5"
    )
    assert code == 0
    assert out == w_text


@pytest.mark.parametrize("via", ["", ","])
def test_blowdown_empty_via_exits_5(cli_run, fan_files, via):
    # an empty --via is an empty ray list, not an absent option
    code, out, err = cli_run(
        "blowdown", fan_files["paper-Y"], "--ray", "e7", "--via", via
    )
    assert (code, out) == (5, "")
    assert "empty ray list" in err


def test_blowdown_no_relation_exits_5(cli_run, fan_files):
    code, _, err = cli_run("blowdown", fan_files["p4"], "--ray", "e0")
    assert code == 5
    assert "no relation" in err


def test_blowdowns_table(cli_run, fan_files):
    code, out, _ = cli_run("blowdowns", fan_files["paper-Y"])
    assert code == 0
    assert "blow-down candidates (4):" in out
    assert out.count("valid") == 2
    assert out.count("obstructed") == 2


# ---------------------------------------------------------------------------
# factor


def test_factor_y_x_all(cli_run, fan_files):
    code, out, _ = cli_run(
        "factor", fan_files["paper-Y"], fan_files["paper-X"], "--all"
    )
    assert code == 0
    assert "factorization paths: 1" in out
    assert "path 1 (2 steps):" in out
    assert "contract e7 (center {e4,e5}) -> rays=7 fano=no" in out
    assert "contract e6 (center {e2,e3,e4}) -> rays=6 fano=yes" in out


def test_factor_require_fano_exits_3(cli_run, fan_files):
    code, out, _ = cli_run(
        "factor", fan_files["paper-Y"], fan_files["paper-X"], "--require-fano"
    )
    assert code == 3
    assert "no factorization with Fano intermediates" in out


def test_factor_without_any_path_exits_3(cli_run, fan_files, monkeypatch):
    # no real pair without a factorization is at hand, so the search is
    # stubbed to find no path
    monkeypatch.setattr(birational, "factor_morphism", lambda *args, **kwargs: ())
    code, out, _ = cli_run("factor", fan_files["paper-Y"], fan_files["paper-X"])
    assert code == 3
    assert out == "no factorization\n"


def test_factor_identity_exits_0(cli_run, fan_files):
    code, out, _ = cli_run("factor", fan_files["paper-X"], fan_files["paper-X"])
    assert code == 0
    assert "path 1 (0 steps): identity" in out


def test_factor_not_refinement_exits_4(cli_run, fan_files):
    code, _, err = cli_run("factor", fan_files["p4"], fan_files["paper-X"])
    assert code == 4
    assert "does not refine" in err


def test_factor_across_dimensions_exits_5(cli_run, fan_files):
    # the library's typed error reaches main's generic ToricFanError handler
    code, out, err = cli_run("factor", fan_files["p4"], fan_files["p3"])
    assert code == 5
    assert out == ""
    assert err == "error: cannot compare fans of dimension 4 and 3\n"


# ---------------------------------------------------------------------------
# example / enumerate / isomorphic


def test_example_emits_y(cli_run):
    code, out, _ = cli_run("example", "paper-Y")
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for l in lines if l.startswith("ray ")) == 8
    assert sum(1 for l in lines if l.startswith("maxcone ")) == 17


def test_example_unknown_key_exits_5(cli_run):
    code, _, err = cli_run("example", "nope")
    assert code == 5
    assert "unknown catalog key" in err


def test_enumerate_dim2(cli_run):
    code, out, _ = cli_run("enumerate", "--dim", "2")
    assert code == 0
    assert sum(1 for l in out.splitlines() if l == "dim 2") == 5
    assert "1 of 5" in out and "5 of 5" in out


def test_enumerate_dim2_out_dir(cli_run, tmp_path):
    out_dir = tmp_path / "fans"
    code, _, _ = cli_run("enumerate", "--dim", "2", "--out-dir", str(out_dir))
    assert code == 0
    names = sorted(p.name for p in out_dir.glob("*.fan"))
    assert names == [f"fano2-0{i}.fan" for i in range(1, 6)]


def test_enumerate_out_dir_names_sort_in_enumeration_order(
    cli_run, tmp_path, monkeypatch
):
    # over 99 classes, as the 124 of dimension 4, the numbers take three
    # digits, zero-padded, so the file names sort as the classes come; a
    # stand-in list of 124 fans keeps the search out of the test
    fans = [
        make_fan(1, [(f"r{i}", (1,)), ("s", (-1,))], [(0,), (1,)])
        for i in range(124)
    ]
    monkeypatch.setattr(catalog, "enumerate_fano", lambda dim: fans)
    out_dir = tmp_path / "fans"
    code, _, _ = cli_run("enumerate", "--dim", "4", "--out-dir", str(out_dir))
    assert code == 0
    paths = sorted(out_dir.glob("*.fan"))
    assert paths[0].name == "fano4-001.fan"
    assert paths[-1].name == "fano4-124.fan"
    texts = [p.read_text(encoding="utf-8") for p in paths]
    assert texts == [serialize_fan(f) for f in fans]


def test_enumerate_out_dir_on_existing_file_exits_5(cli_run, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    code, out, err = cli_run("enumerate", "--dim", "2", "--out-dir", str(taken))
    assert code == 5
    assert out == ""
    assert err.startswith(f"cannot write {taken}: ")
    assert taken.read_text(encoding="utf-8") == "not a directory\n"


def test_enumerate_dim3_runs_like_dims_1_and_2(cli_run, capsys):
    code, out, _ = cli_run("enumerate", "--dim", "3")
    assert code == 0
    assert sum(1 for l in out.splitlines() if l == "dim 3") == 18
    assert "1 of 18" in out and "18 of 18" in out
    # the retired confirmation flag is an unknown option, a usage error
    with pytest.raises(SystemExit) as exc:
        cli.main(["enumerate", "--dim", "3", "--long"])
    assert exc.value.code == 5
    assert "unrecognized arguments: --long" in capsys.readouterr().err


def test_enumerate_unsupported_dim_exits_5(cli_run):
    code, _, err = cli_run("enumerate", "--dim", "5")
    assert code == 5
    assert "dimensions 1-4" in err


def test_isomorphic_w_wbar(cli_run, fan_files, tmp_path, tower):
    from toricfan import contract_ray

    _, _, w, y = tower
    wbar = contract_ray(y, "e7", ("e1", "e6"))
    wbar_path = tmp_path / "wbar.fan"
    wbar_path.write_text(serialize_fan(wbar), encoding="utf-8")
    code, out, _ = cli_run("isomorphic", fan_files["paper-W"], str(wbar_path))
    assert code == 0
    assert "isomorphic: yes" in out
    assert "map:" in out


def test_isomorphic_negative(cli_run, fan_files):
    code, out, _ = cli_run("isomorphic", fan_files["p4"], fan_files["paper-X"])
    assert code == 0
    assert out == "not isomorphic\n"


def test_invalid_fan_rejected_by_operations(cli_run, tmp_path):
    broken = tmp_path / "broken.fan"
    broken.write_text(
        "dim 2\nray a 1 0\nray b 0 1\nmaxcone a b\n", encoding="utf-8"
    )
    for argv in (
        ["blowup", str(broken), "--center", "a,b"],
        ["blowdowns", str(broken)],
        ["isomorphic", str(broken), str(broken)],
    ):
        code, _, err = cli_run(*argv)
        assert code == 2
        assert "not valid" in err


# ---------------------------------------------------------------------------
# library errors: one exit-5 path


@pytest.mark.parametrize(
    "argv, call",
    [
        pytest.param(
            ["blowup", "p4", "--center", "e1,e2", "--name", "1x"],
            lambda f: star_subdivide(f["p4"], ["e1", "e2"], "1x"),
            id="bad-name",
        ),
        pytest.param(
            ["blowup", "p4", "--center", "e1,e2", "--name", "e0"],
            lambda f: star_subdivide(f["p4"], ["e1", "e2"], "e0"),
            id="name-in-use",
        ),
        pytest.param(
            ["blowup", "p4", "--center", "e1"],
            lambda f: star_subdivide(f["p4"], ["e1"]),
            id="center-too-small",
        ),
        pytest.param(
            ["blowup", "p4", "--center", "e1,zz"],
            lambda f: star_subdivide(f["p4"], ["e1", "zz"]),
            id="unknown-ray",
        ),
        pytest.param(
            ["blowup", "p4", "--center", "e0,e1,e2,e3,e4"],
            lambda f: star_subdivide(f["p4"], ["e0", "e1", "e2", "e3", "e4"]),
            id="center-not-a-cone",
        ),
        pytest.param(
            ["blowdown", "p4", "--ray", "e0"],
            lambda f: birational.blow_down(f["p4"], "e0"),
            id="no-relation",
        ),
        pytest.param(
            ["blowdown", "p4", "--ray", "e0", "--via", "e1,e1"],
            lambda f: birational.blow_down(f["p4"], "e0", ["e1", "e1"]),
            id="repeated-via",
        ),
        pytest.param(
            ["blowdown", "p4", "--ray", "e0", "--via", "e1,e2"],
            lambda f: birational.blow_down(f["p4"], "e0", ["e1", "e2"]),
            id="via-not-a-relation",
        ),
        pytest.param(
            ["enumerate", "--dim", "5"],
            lambda f: catalog.enumerate_fano(5),
            id="unsupported-dimension",
        ),
        pytest.param(
            ["factor", "p4", "p3"],
            lambda f: birational.factor_morphism(f["p4"], f["p3"]),
            id="dimension-mismatch",
        ),
    ],
)
def test_library_errors_exit_5_with_one_line(
    cli_run, fan_files, catalog_fans, argv, call
):
    # every library error without a code of its own reaches main's one
    # ToricFanError handler, which prints the library's message unchanged
    with pytest.raises(ToricFanError) as exc:
        call(catalog_fans)
    argv = [fan_files.get(a, a) for a in argv]
    code, out, err = cli_run(*argv)
    assert (code, out) == (5, "")
    assert err == f"error: {exc.value}\n"


# ---------------------------------------------------------------------------
# usage errors


@pytest.mark.parametrize(
    "argv",
    [
        [],  # no subcommand
        ["blowup", "f.fan"],  # no --center
        ["analyze", "f", "--format", "json"],  # unknown choice
    ],
)
def test_usage_error_exits_5(capsys, argv):
    # exit 2 is reserved for an invalid fan
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: toricfan")
    assert "error: " in err


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: toricfan")


# ---------------------------------------------------------------------------
# the installed entry point


@pytest.mark.parametrize("key, code", [("p2", 0), ("nope", 5)])
def test_console_script_entry_exits_with_the_code(monkeypatch, capsys, key, code):
    monkeypatch.setattr(sys, "argv", ["toricfan", "example", key])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == code
    out, _ = capsys.readouterr()
    assert out.startswith("dim 2\n") == (code == 0)


def test_module_invocation_matches_inprocess(cli_run):
    proc = subprocess.run(
        [sys.executable, "-m", "toricfan", "example", "p2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    _, out, _ = cli_run("example", "p2")
    assert proc.stdout == out


def test_cli_start_up_leaves_the_enumerator_unimported():
    # a cold start compiles every module the CLI imports; catalog imports
    # the Fano enumerator and its caches only when an enumeration runs
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, toricfan.cli; print('toricfan._fano3' in sys.modules)",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cli_start_up_leaves_dataclasses_unimported():
    # the records are NamedTuples and Fan a hand-written class, so a cold
    # start skips dataclasses and the inspect/ast/dis/tokenize it loads
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; before = set(sys.modules); import toricfan.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}"
            " & (set(sys.modules) - before)))",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
