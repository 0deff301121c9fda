"""The traced benchmark run wraps functions by module and name.

``bench/tracer.py`` lists them in ``TRACED``; a rename or deletion in the
package would break the traced run without failing any other test. The
list is read with ``ast`` so that no benchmark code runs here.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def traced_functions():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACER}")


def test_traced_functions_exist():
    traced = traced_functions()
    assert traced
    for module, names in traced.items():
        mod = importlib.import_module(f"toricfan.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"
