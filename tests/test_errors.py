"""Every public error class is live: raised somewhere in the package, or
the base of one that is, and exported in ``toricfan.__all__``."""

import ast
import inspect
from pathlib import Path

import toricfan
from toricfan import errors

PACKAGE = Path(toricfan.__file__).resolve().parent


def raised_names():
    """The names in every ``raise Name`` and ``raise Name(...)`` of the package."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def error_classes():
    return [
        cls
        for cls in vars(errors).values()
        if inspect.isclass(cls) and cls.__module__ == errors.__name__
    ]


def test_every_error_class_is_raised_or_a_base():
    classes = error_classes()
    names = raised_names()
    raised = [cls for cls in classes if cls.__name__ in names]
    assert raised
    for cls in classes:
        assert any(issubclass(r, cls) for r in raised), cls.__name__


def test_every_error_class_is_exported():
    for cls in error_classes():
        assert cls.__name__ in toricfan.__all__, cls.__name__
        assert getattr(toricfan, cls.__name__) is cls


def inconsistency_raise_sites():
    """(module, top-level function) of every ``raise InternalInconsistencyError``
    in the package, one entry per raise, in file order."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if getattr(exc, "id", None) == "InternalInconsistencyError":
                        sites.append((path.stem, getattr(top, "name", None)))
    return sites


def test_one_gate_raises_for_an_invalid_fan():
    # fan.wall_classes is the one place that rejects a fan that validate_fan
    # rejects; a second rejection path would let two readers of one fan
    # disagree. The Fano enumerator's three self-checks are on the cone
    # complexes it builds itself, not on a caller's fan.
    sites = inconsistency_raise_sites()
    own = [site for site in sites if site[0] == "_fano3"]
    assert own == [("_fano3", "enumerate_fano_fans")] * 3
    assert [site for site in sites if site[0] != "_fano3"] == [("fan", "wall_classes")]


def except_names(path):
    """The names in every ``except`` clause of a module, tuples unpacked."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names.update(ast.unparse(t) for t in types)
    return names


def test_cli_catches_only_what_it_decides():
    # main's ToricFanError handler is the one exit-5 path for library
    # errors; a command catches an error only to give it another exit code
    # or its own text, so a per-command re-wrap into exit 5 cannot return
    assert except_names(PACKAGE / "cli.py") == {
        "OSError",
        "UnicodeDecodeError",
        "FanParseError",
        "DimensionMismatchError",
        "StarConditionViolatedError",
        "NotARefinementError",
        "KeyError",
        "_CliFailure",
        "ToricFanError",
    }
