"""The benchmark's per-layer trace names functions that must exist.

perfbench/layertrace.py wraps each ``layer.function`` of its
FUNCTION_METRICS table; deleting or renaming one of them breaks the
traced benchmark, so it fails here first.  Apart from them and the
Frechet contraction (acceptance criterion 4), no public function, class,
method or property of the package is kept for callers outside it alone,
no parameter of the package's own calls has one value in use, and no
module imports a name it never reads.
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


def _dataclass(node: ast.ClassDef) -> bool:
    return any("dataclass" in _named(decorator) for decorator in node.decorator_list)


def _init_field(node: ast.AnnAssign) -> bool:
    """Whether a class-body annotation is a dataclass field ``__init__`` takes."""
    init_false = isinstance(node.value, ast.Call) and any(
        kw.arg == "init" and getattr(kw.value, "value", True) is False for kw in node.value.keywords
    )
    return not init_false and "ClassVar" not in _named(node.annotation)


def _parameters(node: ast.FunctionDef, method: bool) -> tuple[list, list, set]:
    """(positional, keyword-only, with a default) names of a def, without
    the self or cls a method is called through."""
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaults = set(positional[len(positional) - len(args.defaults) :])
    defaults |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None}
    if method and not any("staticmethod" in _named(d) for d in node.decorator_list):
        positional = positional[1:]
    return positional, [a.arg for a in args.kwonlyargs], defaults


def _signatures(sources) -> list[tuple[str, str, bool, tuple]]:
    """(qualified name, called name, a method's, parameters) of each function,
    method and nested function of the sources, and of each class's
    constructor.  A method is called as an attribute, anything else either
    way.  Dunder methods are left out: Python calls them, and a class's
    constructor stands for its ``__init__``."""
    found = []
    for layer, source in sources:
        tree = ast.parse(source)
        classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}

        def constructor(cls):
            """An ``__init__``'s parameters, or a dataclass's fields after its
            bases', or else a base's constructor; None for none."""
            init = [m for m in cls.body if isinstance(m, ast.FunctionDef) and m.name == "__init__"]
            if init:
                return _parameters(init[0], method=True)
            bases = [classes[b.id] for b in cls.bases if getattr(b, "id", None) in classes]
            inherited = [sig for base in bases if (sig := constructor(base)) is not None]
            if not _dataclass(cls):
                return inherited[0] if inherited else None
            own = [m for m in cls.body if isinstance(m, ast.AnnAssign) and _init_field(m)]
            positional = [f for sig in inherited for f in sig[0]] + [m.target.id for m in own]
            defaults = {m.target.id for m in own if m.value is not None}
            return positional, [], defaults.union(*(sig[2] for sig in inherited))

        def visit(node, prefix, in_class):
            for child in ast.iter_child_nodes(node):
                name = f"{prefix}.{getattr(child, 'name', '')}"
                if isinstance(child, ast.ClassDef):
                    if (signature := constructor(child)) is not None:
                        found.append((name, child.name, False, signature))
                    visit(child, name, True)
                elif isinstance(child, ast.FunctionDef) and not (
                    in_class and child.name.startswith("__") and child.name.endswith("__")
                ):
                    found.append((name, child.name, in_class, _parameters(child, in_class)))
                    visit(child, name, False)
                else:
                    visit(child, prefix, False)

        visit(tree, layer, False)
    return found


_MISSING, _CARRIED = "missing", "carried"  # not passed; passed by * or **


def _arguments(call: ast.Call, positional: list, keyword: list) -> dict:
    """Each parameter a call passes: its argument, or _CARRIED for one a
    * or ** argument may pass."""
    passed = {}
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            passed.update(dict.fromkeys(positional[i:], _CARRIED))
            break
        if i < len(positional):
            passed[positional[i]] = arg
    for kw in call.keywords:
        if kw.arg is None:
            for name in positional + keyword:
                passed.setdefault(name, _CARRIED)
        else:
            passed[kw.arg] = kw.value
    return passed


def _literal(node) -> str | None:
    try:
        ast.literal_eval(node)
    except ValueError:
        return None
    return ast.dump(node)


def _one_value_parameters(sources, exempt) -> dict[str, list[str]]:
    """The parameters of each function, method or constructor that the
    sources call, outside ``exempt``, that have one value in use there:
    (a) one with a default that no call passes, by keyword, by position or
    through * or **; (b) one every call passes as the same literal."""
    calls = [
        node
        for _layer, source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
    ]
    flagged = {}
    for qualified, name, method, (positional, keyword, defaults) in _signatures(sources):
        mine = [
            call
            for call in calls
            if getattr(call.func, "attr", None) == name
            or (not method and getattr(call.func, "id", None) == name)
        ]
        if not mine or qualified in exempt:
            continue
        passed = [_arguments(call, positional, keyword) for call in mine]
        for param in positional + keyword:
            given = [p.get(param, _MISSING) for p in passed]
            literals = {_literal(arg) if isinstance(arg, ast.AST) else None for arg in given}
            unused_default = param in defaults and all(arg is _MISSING for arg in given)
            if unused_default or (len(literals) == 1 and None not in literals):
                flagged.setdefault(qualified, []).append(param)
    return flagged


def test_parameter_scan_sees_both_rules_and_each_exemption():
    toy = """
@dataclass(frozen=True)
class Rec:
    a: int
    b: int = 0
    c: int = field(init=False)


class Box:
    def __init__(self, size, fill=0.0):
        self.size = size

    def put(self, item, at=None):
        return self.size


def ruled(x, node, width=24, *, scale=1.0):
    return x


def varied(x, k=1, m=2, j=3):
    return x


def idle(x, unused=3):
    return x


def traced(x, axis=0):
    return x


def main(argv=None):
    return argv


def user(args, opts):
    ruled(1, 1), ruled(2, 1)
    varied(1), varied(2, k=3), varied(3, *args), varied(4, **opts)
    traced(1), traced(2), main()
    box = Box(1)
    box.put(1), box.put(2, at=3)
    return Rec(1), Rec(2), Box(size=2)
"""
    flagged = _one_value_parameters([("toy", toy)], exempt={"toy.traced", "toy.main"})
    # (a) a default no call passes: width, scale, fill and Rec.b; (b) a
    # parameter every call passes as one literal: node.  Passed by keyword
    # (k, at), by position (x, item) or through * (m) or ** (j) is used.
    # A field __init__ does not take (c) is none of the constructor's.
    assert flagged == {
        "toy.ruled": ["node", "width", "scale"],
        "toy.Box": ["fill"],
        "toy.Rec": ["b"],
    }
    # the exemptions: what nothing calls (idle), and what is named
    unexempt = _one_value_parameters([("toy", toy)], exempt=set())
    assert unexempt == dict(flagged, **{"toy.traced": ["axis"], "toy.main": ["argv"]})


@pytest.mark.skipif(not LAYERTRACE.is_file(), reason="no benchmark in this checkout")
def test_no_parameter_has_one_value_in_use():
    # the traced functions keep their parameters until the benchmark is
    # re-baselined, and the benchmark drives main with argv
    exempt = {fn for _metric, _unit, _kind, fn in _function_metrics()} | {"cli.main"}
    assert _one_value_parameters(_package_sources(), exempt) == {}


def _unused_imports(sources) -> dict[str, list[str]]:
    """The names each module imports and never reads, ``__future__``'s aside."""
    unused = {}
    for layer, source in sources:
        tree = ast.parse(source)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        imported = [
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        if names := [name for name in imported if name not in read]:
            unused[layer] = names
    return unused


def test_unused_import_scan_sees_reads_and_idle_names():
    toy = """
from __future__ import annotations

import math
import os
import os.path
import numpy as np
from fractions import Fraction, gcd as _gcd
from .grid import Grid


def area(r: Grid) -> float:
    def inner():
        return Fraction(1)
    os = 3
    return math.pi * np.square(r) + inner()
"""
    # read as a name, an attribute's base or an annotation is read; a name
    # only bound again (os) or not named at all is not
    assert _unused_imports([("toy", toy)]) == {"toy": ["os", "os", "_gcd"]}


def test_no_module_imports_a_name_it_never_reads():
    # __init__ imports to re-export; __main__ runs the package and reads its imports
    sources = _package_sources() + [("__main__", (PACKAGE / "__main__.py").read_text())]
    assert _unused_imports(sources) == {}
