"""Command-line interface.

Subcommands: analyze, blowup, blowdown, blowdowns, factor, example,
enumerate, isomorphic. Fan files are read from a path or standard input
('-'); reports are plain text and byte-stable: identical inputs produce
identical output. Exit codes: 0 ok, 1 parse error, 2 invalid fan,
3 no factorization, 4 not a refinement, 5 invalid operation argument
(usage errors included: a missing subcommand, option or argument, or an
unknown choice).

Every library error with no code of its own (a `ToricFanError` the
commands let through) exits 5 by one path, `main`, which prints one line,
``error: <message>``. A command catches an error only where the CLI decides
something the library does not: another exit code, or its own text.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import birational, catalog, mori
from .errors import (
    DimensionMismatchError,
    FanParseError,
    NotARefinementError,
    StarConditionViolatedError,
    ToricFanError,
)
from .fan import (
    Fan,
    _cone_label,
    fan_isomorphism,
    parse_fan,
    serialize_fan,
    star_subdivide,
    validate_fan,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID_FAN = 2
EXIT_NO_FACTORIZATION = 3
EXIT_NOT_A_REFINEMENT = 4
EXIT_BAD_ARGUMENT = 5


class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliFailure(EXIT_PARSE, f"cannot read {path}: {exc}") from exc


def _load_fan(path: str) -> Fan:
    try:
        return parse_fan(_read_text(path))
    except (FanParseError, DimensionMismatchError) as exc:
        raise _CliFailure(EXIT_PARSE, f"{path}: {exc}") from exc


def _load_valid_fan(path: str) -> Fan:
    fan = _load_fan(path)
    report = validate_fan(fan)
    if not report.ok:
        lines = [f"{path}: fan is not valid"]
        lines += [f"  {w}" for w in report.witnesses]
        raise _CliFailure(EXIT_INVALID_FAN, "\n".join(lines))
    return fan


def _names(fan: Fan, cone) -> str:
    return "{" + ",".join(fan.cone_names(cone)) + "}"


def _term(coeff: int, name: str) -> str:
    return name if coeff == 1 else f"{coeff}*{name}"


def _relation_text(fan: Fan, rel: mori.PrimitiveRelation) -> str:
    lhs = " + ".join(fan.generators[i].name for i in rel.collection)
    if not rel.target:
        rhs = "0"
    else:
        rhs = " + ".join(
            _term(a, fan.generators[i].name)
            for i, a in zip(rel.target, rel.coefficients)
        )
    return f"{lhs} = {rhs}"


def _decomposition_text(fan: Fan, dec) -> str:
    parts = []
    for coll, lam in dec:
        r = "r(" + _names(fan, coll) + ")"
        parts.append(r if lam == 1 else f"{lam}*{r}")
    return " + ".join(parts)


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _candidate_lines(fan: Fan) -> list[str]:
    cands = birational.blow_down_candidates(fan)
    lines = [f"blow-down candidates ({len(cands)}):"]
    for cand in cands:
        head = (
            f"  contract {cand.ray_name(fan)} via"
            f" {_names(fan, cand.relation.collection)}:"
        )
        if cand.valid:
            fano = mori.is_fano_by_walls(cand.target)
            proj = mori.is_projective(cand.target)
            lines.append(
                f"{head} valid (target: fano={_yesno(fano)},"
                f" projective={_yesno(proj)})"
            )
        else:
            cones = ", ".join(_cone_label(fan, c) for c in cand.obstruction)
            lines.append(f"{head} obstructed by {cones}")
    return lines


def _analysis_plain(fan: Fan, report) -> str:
    lines = [
        f"fan: dim={fan.dim} rays={len(fan.generators)}"
        f" maxcones={len(fan.max_cones)}",
        f"smooth: {_yesno(report.smooth)}",
        f"complete: {_yesno(report.complete)}",
        f"faces: {_yesno(report.faces_ok)}",
    ]
    if not report.ok:
        lines.append("witnesses:")
        lines += [f"  {w}" for w in report.witnesses]
        lines.append("analysis skipped: fan is not valid")
        return "\n".join(lines) + "\n"
    summary = mori.mori_cone(fan)
    lines.append(f"picard number: {summary.picard_number}")
    lines.append(f"primitive relations ({len(summary.relations)}):")
    for info in summary.relations:
        tail = (
            "extremal"
            if info.extremal
            else "decomposable: " + _decomposition_text(fan, info.decomposition)
        )
        lines.append(
            f"  {_relation_text(fan, info.relation)}"
            f"  [degree {info.relation.degree}, {tail}]"
        )
    n_extremal = sum(1 for info in summary.relations if info.extremal)
    lines.append(f"extremal classes: {n_extremal}")
    lines.append(f"projective: {_yesno(summary.strictly_convex)}")
    fano, witnesses = mori.is_fano(fan)
    parts = ", ".join(
        f"witness {_names(fan, c)}, degree {mori.primitive_relation(fan, c).degree}"
        for c in witnesses
    )
    lines.append("fano: yes" if fano else f"fano: no ({parts})")
    lines += _candidate_lines(fan)
    return "\n".join(lines) + "\n"


def _analysis_compact(fan: Fan, report) -> str:
    lines = [
        f"dim={fan.dim}",
        f"rays={len(fan.generators)}",
        f"maxcones={len(fan.max_cones)}",
        f"smooth={_yesno(report.smooth)}",
        f"complete={_yesno(report.complete)}",
        f"faces={_yesno(report.faces_ok)}",
        f"valid={_yesno(report.ok)}",
    ]
    if not report.ok:
        for w in report.witnesses:
            lines.append(f"witness={w}")
        return "\n".join(lines) + "\n"
    summary = mori.mori_cone(fan)
    lines.append(f"picard={summary.picard_number}")
    for info in summary.relations:
        rel = info.relation
        coeffs = ",".join(str(a) for a in rel.coefficients)
        entry = (
            f"relation collection={_names(fan, rel.collection)}"
            f" target={_names(fan, rel.target)}"
            f" coeffs={{{coeffs}}} degree={rel.degree}"
            f" extremal={_yesno(info.extremal)}"
        )
        if info.decomposition is not None:
            entry += " decomposition=" + "+".join(
                f"{lam}*{_names(fan, coll)}"
                for coll, lam in info.decomposition
            )
        lines.append(entry)
    n_extremal = sum(1 for info in summary.relations if info.extremal)
    lines.append(f"extremal={n_extremal}")
    lines.append(f"projective={_yesno(summary.strictly_convex)}")
    fano, witnesses = mori.is_fano(fan)
    lines.append(f"fano={_yesno(fano)}")
    for c in witnesses:
        lines.append(f"fano_witness={_names(fan, c)}")
    for cand in birational.blow_down_candidates(fan):
        entry = (
            f"blowdown ray={cand.ray_name(fan)}"
            f" via={_names(fan, cand.relation.collection)}"
            f" valid={_yesno(cand.valid)}"
        )
        if cand.valid:
            entry += (
                f" target_fano={_yesno(mori.is_fano_by_walls(cand.target))}"
                f" target_projective={_yesno(mori.is_projective(cand.target))}"
            )
        else:
            entry += " obstruction=" + ",".join(
                _cone_label(fan, c) for c in cand.obstruction
            )
        lines.append(entry)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_analyze(args) -> int:
    fan = _load_fan(args.fan)
    report = validate_fan(fan)
    render = _analysis_compact if args.format == "compact" else _analysis_plain
    sys.stdout.write(render(fan, report))
    return EXIT_OK if report.ok else EXIT_INVALID_FAN


def _split_names(text: str) -> list[str]:
    names = [t.strip() for t in text.split(",") if t.strip()]
    if not names:
        raise _CliFailure(EXIT_BAD_ARGUMENT, "empty ray list")
    return names


def _cmd_blowup(args) -> int:
    fan = _load_valid_fan(args.fan)
    result = star_subdivide(fan, _split_names(args.center), args.name)
    sys.stdout.write(serialize_fan(result))
    return EXIT_OK


def _cmd_blowdown(args) -> int:
    fan = _load_valid_fan(args.fan)
    via = _split_names(args.via) if args.via is not None else None
    try:
        result = birational.blow_down(fan, args.ray, via)
    except StarConditionViolatedError as exc:
        cones = ", ".join(_cone_label(fan, c) for c in exc.witnesses)
        raise _CliFailure(
            EXIT_BAD_ARGUMENT, f"obstructed by cone(s) {cones}"
        ) from exc
    sys.stdout.write(serialize_fan(result))
    return EXIT_OK


def _cmd_blowdowns(args) -> int:
    fan = _load_valid_fan(args.fan)
    sys.stdout.write("\n".join(_candidate_lines(fan)) + "\n")
    return EXIT_OK


def _cmd_factor(args) -> int:
    fine = _load_valid_fan(args.fine)
    coarse = _load_valid_fan(args.coarse)
    try:
        paths = birational.factor_morphism(
            fine,
            coarse,
            require_fano=args.require_fano,
            exhaustive=args.all,
        )
    except NotARefinementError as exc:
        raise _CliFailure(EXIT_NOT_A_REFINEMENT, str(exc)) from exc
    if not paths:
        if args.require_fano:
            sys.stdout.write("no factorization with Fano intermediates\n")
        else:
            sys.stdout.write("no factorization\n")
        return EXIT_NO_FACTORIZATION
    lines = [f"factorization paths: {len(paths)}"]
    for pi, path in enumerate(paths, start=1):
        if not path.steps:
            lines.append(f"path {pi} (0 steps): identity")
            continue
        lines.append(f"path {pi} ({len(path.steps)} steps):")
        for step in path.steps:
            lines.append(
                f"  contract {step.ray} (center {{{','.join(step.center)}}})"
                f" -> rays={len(step.fan.generators)}"
                f" fano={_yesno(step.fano)}"
                f" projective={_yesno(step.projective)}"
            )
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_example(args) -> int:
    try:
        fan = catalog.catalog_fan(args.key)
    except KeyError as exc:
        raise _CliFailure(EXIT_BAD_ARGUMENT, exc.args[0]) from exc
    sys.stdout.write(serialize_fan(fan))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    texts = [serialize_fan(fan) for fan in catalog.enumerate_fano(args.dim)]
    if args.out_dir is not None:
        out = Path(args.out_dir)
        width = max(2, len(str(len(texts))))  # name order is enumeration order
        try:
            out.mkdir(parents=True, exist_ok=True)
            for i, text in enumerate(texts, start=1):
                (out / f"fano{args.dim}-{i:0{width}d}.fan").write_text(
                    text, encoding="utf-8"
                )
        except OSError as exc:
            raise _CliFailure(
                EXIT_BAD_ARGUMENT, f"cannot write {args.out_dir}: {exc}"
            ) from exc
    sys.stdout.write(
        "\n".join(
            f"# smooth toric fano, dim {args.dim}, {i} of {len(texts)}\n" + text
            for i, text in enumerate(texts, start=1)
        )
    )
    return EXIT_OK


def _cmd_isomorphic(args) -> int:
    a = _load_valid_fan(args.first)
    b = _load_valid_fan(args.second)
    m = fan_isomorphism(a, b)
    if m is None:
        sys.stdout.write("not isomorphic\n")
    else:
        sys.stdout.write("isomorphic: yes\nmap:\n")
        for row in m:
            sys.stdout.write(" ".join(str(x) for x in row) + "\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as argparse does, but with EXIT_BAD_ARGUMENT:
    argparse's own code 2 would read as "invalid fan"."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_ARGUMENT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="toricfan",
        description=(
            "Exact computations on smooth complete toric fans: validation,"
            " Mori cone analysis, blow-ups/blow-downs and factorization of"
            " refinement morphisms."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="validate a fan and report its invariants")
    p.add_argument("fan", help="fan file path, or - for stdin")
    p.add_argument(
        "--format", choices=("plain", "compact"), default="plain",
        help="compact emits machine-readable key=value lines",
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("blowup", help="star-subdivide at a cone, print the result")
    p.add_argument("fan")
    p.add_argument("--center", required=True, help="comma-separated ray names")
    p.add_argument("--name", default=None, help="name for the new ray")
    p.set_defaults(func=_cmd_blowup)

    p = sub.add_parser("blowdown", help="contract a ray, print the result")
    p.add_argument("fan")
    p.add_argument("--ray", required=True)
    p.add_argument(
        "--via",
        default=None,
        help="collection steering the contraction when several apply",
    )
    p.set_defaults(func=_cmd_blowdown)

    p = sub.add_parser("blowdowns", help="list all blow-down candidates")
    p.add_argument("fan")
    p.set_defaults(func=_cmd_blowdowns)

    p = sub.add_parser("factor", help="factor a refinement into blow-downs")
    p.add_argument("fine")
    p.add_argument("coarse")
    p.add_argument("--all", action="store_true", help="report every path")
    p.add_argument(
        "--require-fano",
        action="store_true",
        help="only accept Fano intermediate varieties",
    )
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("example", help="print a built-in fan")
    p.add_argument("key", help=", ".join(catalog.catalog_keys()))
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser(
        "enumerate", help="smooth toric Fano fans up to lattice isomorphism"
    )
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out-dir", default=None, help="also write one file per fan")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("isomorphic", help="search for a GL(n,Z) fan isomorphism")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_isomorphic)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliFailure as exc:
        sys.stderr.write(exc.message + "\n")
        return exc.code
    except ToricFanError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_ARGUMENT


def entry() -> None:
    sys.exit(main())
