"""The benchmark's per-layer trace names functions that must exist.

perfbench/layertrace.py wraps each ``layer.function`` of its
FUNCTION_METRICS table; deleting or renaming one of them breaks the
traced benchmark, so it fails here first.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


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
