"""The benchmark's per-layer trace names functions that must exist.

perfbench/layertrace.py wraps each ``layer.function`` of its
FUNCTION_METRICS table; deleting or renaming one of them breaks the
traced benchmark, so it fails here first.  Apart from them and the
Frechet contraction (acceptance criterion 4), no public function, class,
method or property of the package is kept for callers outside it alone.
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


def _package_sources() -> list[tuple[str, str]]:
    """(layer, source) of the package's modules, not ``__init__`` or
    ``__main__``, which re-export and run them."""
    return [
        (path.stem, path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem not in ("__init__", "__main__")
    ]


def _named(node) -> set:
    return {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)}


def _attributes(node) -> set:
    """The attribute names a statement reads, as a method is called."""
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def _public_names(sources) -> dict[str, bool]:
    """Each public module-level function or class of the sources as
    ``layer.name``, and each public method or property of such a class, or
    of a private class of its module it derives from, as ``layer.Class.name``,
    and whether another top-level statement names it, or for a member, reads
    it as an attribute, as another member of its class may too."""
    statements, public, owners = [], {}, {}
    for layer, source in sources:
        body = ast.parse(source).body
        classes = {node.name: node for node in body if isinstance(node, ast.ClassDef)}
        for node in body:
            statements.append(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public[node] = f"{layer}.{node.name}"
            if node in public and isinstance(node, ast.ClassDef):
                bases = [classes.get(getattr(base, "id", None)) for base in node.bases]
                owners.update((cls, layer) for cls in [node, *filter(None, bases)])
    members = [
        (member, cls, f"{layer}.{cls.name}.{member.name}")
        for cls, layer in owners.items()
        for member in cls.body
        if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
    ]
    named = {id(node): _named(node) for node in statements}
    seen = {
        qualified: any(node.name in named[id(other)] for other in statements if other is not node)
        for node, qualified in public.items()
    }
    for member, owner, qualified in members:
        others = [other for other in statements if other is not owner]
        others += [other for other in owner.body if other is not member]
        seen[qualified] = any(member.name in _attributes(other) for other in others)
    return seen


def test_public_api_scan_sees_used_and_unused_methods():
    toy = """
class _Base:
    def inherited(self):
        return 2


class Box(_Base):
    def used(self):
        return self.helper()

    def helper(self):
        return 1

    @property
    def idle(self):
        return self.idle

    def _private(self):
        return 0


def user(box, idle):
    return box.used() + idle
"""
    called = _public_names([("toy", toy)])
    # a member read as an attribute by another top-level statement or by
    # another member of its class is used; one read only in its own body,
    # or whose name is only a variable's elsewhere, is not
    assert called["toy.Box.used"] and called["toy.Box.helper"] and called["toy.user"] is False
    assert called["toy.Box.idle"] is False and "toy.Box._private" not in called
    # a private base's public members are the public class's own
    assert called["toy._Base.inherited"] is False


@pytest.mark.skipif(not LAYERTRACE.is_file(), reason="no benchmark in this checkout")
def test_public_api_has_a_package_caller():
    called = _public_names(_package_sources())
    # the scan sees both kinds: a function the package calls, and one only
    # its tests call, and the methods of its classes
    assert called["grid.make_grid"] and not called["residual.frechet_contraction"]
    assert called["grid.Field.with_values"] and called["heat._Ladder.delta_eta"]
    uncalled = {name for name, seen in called.items() if not seen}
    traced = {fn for _metric, _unit, _kind, fn in _function_metrics()}
    assert sorted(uncalled - traced - TESTED_ONLY) == []
