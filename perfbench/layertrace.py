"""Span tracing and FFT counting for the benchmark's traced run.

Nothing here is imported by scalepde.  The tracer wraps the public
functions of every scalepde module at each module that binds them, so a
call made through ``from .fluid import advect`` in ``scalepde.evolve`` is
seen as well as one made through ``scalepde.fluid``.  Spans (name, start,
end, parent id, op id) are kept in memory and written out when the run
ends.  The FFT counter replaces the transform entry points of
``numpy.fft`` and must be installed before scalepde is imported, so that
any ``from numpy.fft import ...`` binding made at import time also goes
through it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from math import prod

import numpy as np

LAYERS = ("grid", "heat", "jets", "fluid", "residual", "families", "evolve", "cli")

# The span whose interval defines "per step": FFTs, Field constructions and
# child spans are attributed to a step only while one of these is open.
STEP_SPAN = "evolve.step_rk4"

COMPLEX_1D = ("fft", "ifft")
REAL_1D = ("rfft", "irfft")
COMPLEX_ND = ("fftn", "ifftn", "fft2", "ifft2")
REAL_ND = ("rfftn", "irfftn", "rfft2", "irfft2")


class Tracer:
    """In-memory span recorder plus the FFT and Field-construction counters.

    ``enabled`` switches recording on and off; while it is off every
    wrapper only forwards the call.  Counters have two scopes: ``total``
    (everything while enabled) and ``step`` (only while a STEP_SPAN is
    open).
    """

    def __init__(self):
        self.enabled = False
        self.op = -1
        # one span is [parent id, name, start, end, op id]; its id is its index
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._step_depth = 0
        self._fft_depth = 0
        self.counts = {
            scope: {
                "fft_calls": 0,
                "fft_transforms": 0,
                "rfft_calls": 0,
                "rfft_transforms": 0,
                "fft_seconds": 0.0,
                "fft_bytes": 0,
                "field_constructions": 0,
            }
            for scope in ("total", "step")
        }
        self.wrapped: set[str] = set()

    def _scopes(self):
        if self._step_depth:
            return (self.counts["total"], self.counts["step"])
        return (self.counts["total"],)

    def wrap(self, name: str, fn):
        """Return a wrapper that records one span per call of ``fn``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            record = [self._stack[-1] if self._stack else -1, name, 0.0, 0.0, self.op]
            self.spans.append(record)
            self._stack.append(sid)
            is_step = name == STEP_SPAN
            if is_step:
                self._step_depth += 1
            record[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self._stack.pop()
                if is_step:
                    self._step_depth -= 1

        return traced

    # ---- numpy.fft ---------------------------------------------------------

    def install_fft_counter(self, fft_module):
        """Replace each transform entry point of ``fft_module`` by a counter."""
        for names, real, nd in (
            (COMPLEX_1D, False, False),
            (REAL_1D, True, False),
            (COMPLEX_ND, False, True),
            (REAL_ND, True, True),
        ):
            for fname in names:
                orig = getattr(fft_module, fname)
                setattr(fft_module, fname, self._fft_wrapper(orig, fname, real, nd))

    def _fft_wrapper(self, orig, fname: str, real: bool, nd: bool):
        default_axes = (-2, -1) if fname.endswith("2") else None

        @functools.wraps(orig)
        def counted(a, *args, **kwargs):
            # re-entry guard: only the outermost transform call is counted
            if not self.enabled or self._fft_depth:
                return orig(a, *args, **kwargs)
            self._fft_depth += 1
            start = time.perf_counter()
            try:
                out = orig(a, *args, **kwargs)
            finally:
                self._fft_depth -= 1
            seconds = time.perf_counter() - start
            shape = np.shape(a)
            if nd:
                axes = transformed_axes_nd(len(shape), args, kwargs, default_axes)
            else:
                axes = (kwargs.get("axis", args[1] if len(args) > 1 else -1),)
            batch = batch_count(shape, axes)
            nbytes = getattr(a, "nbytes", 0) + out.nbytes
            for c in self._scopes():
                c["fft_calls"] += 1
                c["fft_transforms"] += batch
                c["fft_seconds"] += seconds
                c["fft_bytes"] += nbytes
                if real:
                    c["rfft_calls"] += 1
                    c["rfft_transforms"] += batch
            return out

        return counted

    # ---- scalepde ----------------------------------------------------------

    def install_field_counter(self, field_cls):
        """Count constructions of ``field_cls`` (a dataclass with __post_init__)."""
        orig = field_cls.__post_init__

        @functools.wraps(orig)
        def counted(obj):
            if self.enabled:
                for c in self._scopes():
                    c["field_constructions"] += 1
            return orig(obj)

        field_cls.__post_init__ = counted

    def patch_package(self, package: str = "scalepde"):
        """Wrap every public function of each layer at every binding site.

        A function is public when its name has no leading underscore and it
        is defined in the layer module itself.  Every module of the package
        that binds the same object (including the package namespace) gets
        the same wrapper.
        """
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        }
        wrappers = {}
        for layer in LAYERS:
            mod = modules.get(f"{package}.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                    self.wrapped.add(f"{layer}.{attr}")
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])

    def dump(self, path):
        """Write the counters and the spans, one [id, parent, name, start, end, op] each."""
        with open(path, "w") as fh:
            fh.write('{"counts": ' + json.dumps(self.counts) + ",\n")
            fh.write('"fields": ["id", "parent", "name", "start", "end", "op"], "spans": [\n')
            for sid, (parent, name, start, end, op) in enumerate(self.spans):
                sep = ",\n" if sid else ""
                fh.write(sep + json.dumps([sid, parent, name, start, end, op]))
            fh.write("\n]}\n")


def transformed_axes_nd(ndim: int, args: tuple, kwargs: dict, default_axes):
    """Axes an n-D transform acts on, from its (s, axes, ...) arguments."""
    s = kwargs.get("s", args[0] if len(args) > 0 else None)
    axes = kwargs.get("axes", args[1] if len(args) > 1 else default_axes)
    if axes is None:
        if s is None:
            return tuple(range(ndim))
        return tuple(range(ndim - len(s), ndim))
    return tuple(axes)


def batch_count(shape: tuple[int, ...], axes) -> int:
    """Number of independent transforms: the product of untransformed axes."""
    ndim = len(shape)
    done = {ax % ndim for ax in axes}
    return prod(shape[i] for i in range(ndim) if i not in done)


# ---- span analysis ---------------------------------------------------------


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for parent, _name, start, end, _op in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for sid, (_parent, _name, start, end, _op) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def _flags(spans):
    """Per span: inside a STEP_SPAN, and nested under a families span."""
    in_step, under_families = [], []
    for parent, name, _s, _e, _op in spans:
        if parent < 0:
            in_step.append(False)
            under_families.append(False)
        else:
            pname = spans[parent][1]
            in_step.append(in_step[parent] or pname == STEP_SPAN)
            under_families.append(under_families[parent] or pname.startswith("families."))
    return in_step, under_families


# (metric, unit, kind, function) for the metrics that are one statistic of
# one function's spans.  "per_op" figures divide by the number of traced
# ops; "per_step" figures count only spans inside a step and divide by the
# number of steps.
FUNCTION_METRICS = (
    ("grid.spectral_derivative.calls", "count", "calls_per_op", "grid.spectral_derivative"),
    ("grid.spectral_derivative.self_ms", "ms", "self_ms_per_op", "grid.spectral_derivative"),
    ("heat.heat_propagate.calls", "count", "calls_per_op", "heat.heat_propagate"),
    ("heat.heat_propagate.self_ms", "ms", "self_ms_per_op", "heat.heat_propagate"),
    ("heat.build_scale_stack.ms", "ms", "ms_per_op", "heat.build_scale_stack"),
    ("heat.filter_defect.ms", "ms", "ms_per_op", "heat.filter_defect"),
    ("heat.duhamel_integral.ms", "ms", "ms_per_op", "heat.duhamel_integral"),
    ("jets.jet_values.calls", "count", "calls_per_op", "jets.jet_values"),
    ("jets.jet_values.self_ms", "ms", "self_ms_per_op", "jets.jet_values"),
    ("jets.jet_evaluate.self_ms", "ms", "self_ms_per_op", "jets.jet_evaluate"),
    ("jets.derive_source.ms", "ms", "ms_per_op", "jets.derive_source"),
    ("jets.jet_frechet.ms", "ms", "ms_per_op", "jets.jet_frechet"),
    ("jets.parse_core.ms", "ms", "ms_per_op", "jets.parse_core"),
    ("fluid.advect.calls_per_step", "count", "calls_per_step", "fluid.advect"),
    ("fluid.advect.self_ms_per_step", "ms", "self_ms_per_step", "fluid.advect"),
    ("fluid.sigma.calls_per_step", "count", "calls_per_step", "fluid.sigma"),
    ("fluid.sigma.self_ms_per_step", "ms", "self_ms_per_step", "fluid.sigma"),
    ("fluid.fluid_source.self_ms_per_step", "ms", "self_ms_per_step", "fluid.fluid_source"),
    ("fluid.leray_project.calls_per_step", "count", "calls_per_step", "fluid.leray_project"),
    ("fluid.leray_project.self_ms_per_step", "ms", "self_ms_per_step", "fluid.leray_project"),
    (
        "residual.solve_residual_closure.calls_per_step",
        "count",
        "calls_per_step",
        "residual.solve_residual_closure",
    ),
    (
        "residual.solve_residual_closure.self_ms_per_step",
        "ms",
        "self_ms_per_step",
        "residual.solve_residual_closure",
    ),
    ("residual.exact_residual.ms", "ms", "ms_per_op", "residual.exact_residual"),
    ("residual.residual_defect.ms", "ms", "ms_per_op", "residual.residual_defect"),
    ("residual.closure_error_bound.ms", "ms", "ms_per_op", "residual.closure_error_bound"),
    ("evolve.step_rk4.self_ms_per_step", "ms", "self_ms_per_step", "evolve.step_rk4"),
    ("evolve.macroscopic_rhs.self_ms_per_step", "ms", "self_ms_per_step", "evolve.macroscopic_rhs"),
    ("evolve.psi_rhs.self_ms_per_step", "ms", "self_ms_per_step", "evolve.psi_rhs"),
    ("evolve.write_checkpoint.ms", "ms", "ms_per_op", "evolve.write_checkpoint"),
    ("evolve.read_checkpoint.ms", "ms", "ms_per_op", "evolve.read_checkpoint"),
    ("evolve.reference_burgers.ms", "ms", "ms_per_op", "evolve.reference_burgers"),
    ("cli.parse_config.ms", "ms", "ms_per_op", "cli.parse_config"),
    ("cli.run_command.self_ms", "ms", "self_ms_per_op", "cli.run_command"),
)

# Metrics computed from counters or from several spans: (metric, unit, needs).
DERIVED_METRICS = (
    ("grid.fft_calls_per_step", "count", (STEP_SPAN,)),
    ("grid.fft_transforms_per_step", "count", (STEP_SPAN,)),
    ("grid.rfft_transforms_per_step", "count", (STEP_SPAN,)),
    ("grid.fft_self_ms_per_step", "ms", (STEP_SPAN,)),
    ("grid.fft_bytes_per_step_computed", "bytes", (STEP_SPAN,)),
    ("grid.field_constructions_per_step", "count", ("grid.Field", STEP_SPAN)),
    ("families.ms_per_op", "ms", ()),
    ("evolve.diagnostics_ms_per_record", "ms", ("evolve.run_simulation", STEP_SPAN)),
    ("evolve.write_checkpoint.bytes", "bytes", ("evolve.write_checkpoint",)),
    ("evolve.minor_faults_per_step", "count", (STEP_SPAN,)),
    ("trace.overhead_ratio", "ratio", ()),
)


def layer_metrics(tracer: Tracer, available: set[str], run: dict) -> dict:
    """Per-layer metrics of a traced run.

    ``available`` names what could be wrapped (``layer.function`` and
    ``grid.Field``); a metric that needs something absent is reported with
    value null and the reason.  ``run`` carries what the harness measured
    itself: ``ops``, ``records``, ``checkpoint_bytes``, ``minor_faults``,
    ``traced_op_s`` and ``untraced_op_s`` (medians).
    """
    spans = tracer.spans
    ops = max(run["ops"], 1)
    selfs = self_times(spans)
    in_step, under_families = _flags(spans)
    steps = sum(1 for s in spans if s[1] == STEP_SPAN)
    per_step = 1.0 / steps if steps else 0.0

    stats: dict[str, dict[str, float]] = {}
    families_s = 0.0
    for sid, (_parent, name, start, end, _op) in enumerate(spans):
        st = stats.setdefault(
            name, {"calls": 0, "self": 0.0, "incl": 0.0, "step_calls": 0, "step_self": 0.0}
        )
        st["calls"] += 1
        st["self"] += selfs[sid]
        st["incl"] += end - start
        if in_step[sid] or name == STEP_SPAN:
            st["step_calls"] += 1
            st["step_self"] += selfs[sid]
        if name.startswith("families.") and not under_families[sid]:
            families_s += end - start
    zero = {"calls": 0, "self": 0.0, "incl": 0.0, "step_calls": 0, "step_self": 0.0}

    def fn_value(kind: str, fn: str) -> float:
        st = stats.get(fn, zero)
        if kind == "calls_per_op":
            return st["calls"] / ops
        if kind == "self_ms_per_op":
            return 1e3 * st["self"] / ops
        if kind == "ms_per_op":
            return 1e3 * st["incl"] / ops
        if kind == "calls_per_step":
            return st["step_calls"] * per_step
        if kind == "self_ms_per_step":
            return 1e3 * st["step_self"] * per_step
        raise ValueError(kind)

    step = tracer.counts["step"]
    run_sim = stats.get("evolve.run_simulation", zero)["incl"]
    stepping = stats.get(STEP_SPAN, zero)["incl"]
    derived = {
        "grid.fft_calls_per_step": step["fft_calls"] * per_step,
        "grid.fft_transforms_per_step": step["fft_transforms"] * per_step,
        "grid.rfft_transforms_per_step": step["rfft_transforms"] * per_step,
        "grid.fft_self_ms_per_step": 1e3 * step["fft_seconds"] * per_step,
        "grid.fft_bytes_per_step_computed": step["fft_bytes"] * per_step,
        "grid.field_constructions_per_step": step["field_constructions"] * per_step,
        "families.ms_per_op": 1e3 * families_s / ops,
        "evolve.diagnostics_ms_per_record": (
            1e3 * (run_sim - stepping) / run["records"] if run["records"] else 0.0
        ),
        "evolve.write_checkpoint.bytes": run["checkpoint_bytes"] / ops,
        "evolve.minor_faults_per_step": run["minor_faults"] * per_step,
        "trace.overhead_ratio": run["traced_op_s"] / run["untraced_op_s"],
    }

    out = {}
    for metric, unit, kind, fn in FUNCTION_METRICS:
        needs = (fn, STEP_SPAN) if kind.endswith("_per_step") else (fn,)
        out[metric] = _entry(fn_value(kind, fn), unit, needs, available)
    for metric, unit, needs in DERIVED_METRICS:
        out[metric] = _entry(derived[metric], unit, needs, available)
    return out


def _entry(value: float, unit: str, needs, available: set[str]) -> dict:
    missing = [n for n in needs if n not in available]
    if missing:
        return {
            "value": None,
            "unit": unit,
            "reason": "no longer exists: " + ", ".join("scalepde." + m for m in missing),
        }
    return {"value": value, "unit": unit}


def per_layer_units() -> dict[str, str]:
    units = {m: u for m, u, _k, _f in FUNCTION_METRICS}
    units.update({m: u for m, u, _n in DERIVED_METRICS})
    return units
