"""The README's library example runs, and every result it claims holds;
its command-line usage names exactly the parser's subcommands and options.

A claim is a line ``expr  # <Python literal>``, or an expression line whose
next line is a comment holding the literal; an annotation after `` -- ``
is not part of the literal. Other comments are prose, and their lines run
as statements.
"""

import argparse
import ast
from pathlib import Path

from toricfan import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def example_lines():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library example", 1)[1].split("```python\n", 1)[1]
    return block.split("```", 1)[0].splitlines()


def claimed(comment):
    """The literal a comment claims, or None when it is prose."""
    try:
        return (ast.literal_eval(comment.split(" -- ", 1)[0].strip()),)
    except (ValueError, SyntaxError):
        return None


def test_library_example_claims_hold():
    lines = example_lines()
    namespace = {}
    checked = 0
    for i, line in enumerate(lines):
        if not line.strip() or line.startswith("#"):
            continue
        code, _, comment = line.partition("  #")
        claim = claimed(comment) if comment else None
        if not comment and i + 1 < len(lines) and lines[i + 1].startswith("#"):
            claim = claimed(lines[i + 1][1:])
        if claim is None:
            exec(code, namespace)
        else:
            assert eval(code, namespace) == claim[0], line
            checked += 1
    assert checked == 5


def usage_options():
    """subcommand -> {option: its choices joined by "|", or None}, as the
    README's "Command-line usage" block writes them."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command-line usage", 1)[1].split("```sh\n", 1)[1]
    out = {}
    for line in block.split("```", 1)[0].splitlines():
        words = [w.strip("[]") for w in line.split("#", 1)[0].split()]
        assert words[0] == "toricfan" and words[1] not in out, line
        out[words[1]] = {
            w: nxt if "|" in nxt else None
            for w, nxt in zip(words, words[1:] + [""])
            if w.startswith("--")
        }
    return out


def test_cli_usage_matches_the_parser():
    (sub,) = (
        a
        for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    parsed = {
        name: {
            max(a.option_strings, key=len): "|".join(a.choices) if a.choices else None
            for a in p._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)
        }
        for name, p in sub.choices.items()
    }
    assert usage_options() == parsed
