"""The traced benchmark run wraps functions by module and name.

``bench/tracer.py`` lists them in ``TRACED``; a rename or deletion in the
package would break the traced run without failing any other test. The
list is read with ``ast`` so that no benchmark code runs here. The wrappers
replace module attributes, so a call sees them only when it goes through
the module global, which the LP case below checks.
"""

import ast
import importlib
from pathlib import Path

from toricfan import catalog, fan, lattice, mori

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


def test_package_lps_go_through_the_module_global(monkeypatch):
    real = lattice.solve_eq_nonneg
    calls = []

    def counting(rows, rhs):
        calls.append(rows)
        return real(rows, rhs)

    monkeypatch.setattr(lattice, "solve_eq_nonneg", counting)
    mori.mori_cone.cache_clear()
    fan._cones_meet_cached.cache_clear()
    w = catalog.catalog_entry("paper-W").fan
    mori.mori_cone(w)  # through nonneg_rational_combination
    assert len(calls) > 0
    before = len(calls)
    fan.validate_fan(w)  # the overlap LP in cones_meet_in_common_face
    assert len(calls) > before
