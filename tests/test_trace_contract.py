"""The benchmark's per-layer trace names functions that must exist.

perfbench/layertrace.py wraps each ``layer.function`` of its
FUNCTION_METRICS table; deleting or renaming one of them breaks the
traced benchmark, so it fails here first.  Apart from them and the
Frechet contraction (acceptance criterion 4), no public function or class
of the package is kept for callers outside it alone.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "scalepde"
# kept for its tests: the Frechet contraction predicts the defect that
# acceptance criterion 4 checks
TESTED_ONLY = {"residual.frechet_contraction"}


def _function_metrics():
    tree = ast.parse(LAYERTRACE.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "FUNCTION_METRICS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no FUNCTION_METRICS in {LAYERTRACE}")


@pytest.mark.skipif(not LAYERTRACE.is_file(), reason="no benchmark in this checkout")
def test_traced_functions_exist():
    names = sorted({fn for _metric, _unit, _kind, fn in _function_metrics()})
    assert names
    missing = []
    for name in names:
        layer, function = name.split(".")
        obj = getattr(importlib.import_module(f"scalepde.{layer}"), function, None)
        if not (inspect.isfunction(obj) and obj.__module__ == f"scalepde.{layer}"):
            missing.append(name)
    assert missing == []


def _public_names() -> dict[str, bool]:
    """Each public module-level function or class of the package's modules
    (not ``__init__`` or ``__main__``, which re-export and run them) as
    ``layer.name``, and whether another top-level statement of them names it."""
    statements, public = [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in ("__init__", "__main__"):
            continue
        for node in ast.parse(path.read_text()).body:
            statements.append(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public[node] = f"{path.stem}.{node.name}"
    named = [
        {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(statement)}
        for statement in statements
    ]
    return {
        qualified: any(
            node.name in seen for other, seen in zip(statements, named) if other is not node
        )
        for node, qualified in public.items()
    }


@pytest.mark.skipif(not LAYERTRACE.is_file(), reason="no benchmark in this checkout")
def test_public_api_has_a_package_caller():
    called = _public_names()
    # the scan sees both kinds: a function the package calls, and one only
    # its tests call
    assert called["grid.make_grid"] and not called["residual.frechet_contraction"]
    uncalled = {name for name, seen in called.items() if not seen}
    traced = {fn for _metric, _unit, _kind, fn in _function_metrics()}
    assert sorted(uncalled - traced - TESTED_ONLY) == []
