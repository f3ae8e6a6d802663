"""Command line runner for the filtering, residual and evolution experiments.

Every command reads one strict JSON config (see parse_config), accepts
--set overrides, and writes deterministic artifacts (CSV, JSON, binary
checkpoints) into the --out directory.  Exit codes: 0 success, 1 failed
numeric check, 2 invalid config, 3 simulation diverged, 4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import families
from .evolve import (
    DIAGNOSTIC_COLUMNS,
    ConfigError,
    RunConfig,
    SimulationDiverged,
    _require,
    reference_burgers,
    run_simulation,
    write_checkpoint,
)
from .fluid import core_by_name
from .grid import (
    Field,
    _spatial_axes,
    divergence,
    field_norms,
    laplacian,
    make_grid,
    spectral_derivative,
)
from .heat import (
    ScaleStack,
    build_scale_stack,
    duhamel_integral,
    filter_defect,
    heat_propagate,
    heat_propagate_many,
)
from .jets import (
    CoreSyntaxError,
    JetExpr,
    derive_source,
    format_expr,
    jet_evaluate,
    jet_frechet,
    jet_values,
    parse_core,
)
from .residual import closure_error_bound, exact_residual, residual_defect, solve_residual_closure

COMMANDS = (
    "filter-check",
    "derive-source",
    "residual-check",
    "closure-check",
    "duhamel-check",
    "evolve",
    "burgers-reference",
)

_TOP_LEVEL_KEYS = {
    "n",
    "grid_size",
    "core",
    "core_text",
    "eta",
    "beta",
    "delta",
    "dt",
    "t_end",
    "closure",
    "initial_condition",
    "psi",
    "epsilon",
    "eta0",
    "nodes",
    "output_interval",
    "seed",
}

_PSI_KEYS = {"enabled", "initial_condition", "forcing"}


@dataclass(frozen=True)
class ExperimentSpec:
    """One resolved CLI invocation."""

    command: str
    config: RunConfig
    out_dir: Path | None
    used_beta_delta: bool = False
    core_text: str | None = None


def _coerce_override(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _apply_overrides(raw: dict, overrides: list[str]) -> dict:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        path, value = item.split("=", 1)
        keys = path.split(".")
        target = raw
        for key in keys[:-1]:
            target = target.setdefault(key, {})
            if not isinstance(target, dict):
                raise ConfigError(f"--set path {path!r} crosses a non-object value")
        target[keys[-1]] = _coerce_override(value)
    return raw


def parse_config(text: str, overrides: list[str] | None = None) -> tuple[RunConfig, dict]:
    """Parse strict JSON config text into a RunConfig.

    Unknown keys anywhere are rejected.  The filter scale can be given
    either as eta or as the pair (beta, delta), in which case
    eta = beta * delta^2.  Returns the config plus the raw dict after
    overrides, for provenance hashing.
    """
    try:
        raw = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    raw = _apply_overrides(raw, overrides or [])
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    fields = {k: raw[k] for k in raw if k in _TOP_LEVEL_KEYS - {"beta", "delta", "psi", "core_text"}}
    has_beta = "beta" in raw or "delta" in raw
    if has_beta:
        if "eta" in raw:
            raise ConfigError("give either eta or (beta, delta), not both")
        if "beta" not in raw or "delta" not in raw:
            raise ConfigError("beta and delta must be given together")
        for key in ("beta", "delta"):
            _require(key, raw[key], float)
            if not raw[key] > 0.0:
                raise ConfigError(f"{key} must be positive, got {raw[key]!r}")
        try:
            fields["eta"] = float(raw["beta"]) * float(raw["delta"]) ** 2
        except OverflowError:
            fields["eta"] = math.inf
        if not 0.0 < fields["eta"] <= 1.0:
            raise ConfigError(f"eta = beta * delta^2 must lie in (0, 1], got {fields['eta']}")
    if "core_text" in raw:
        _require("core_text", raw["core_text"], str)
    psi = raw.get("psi", {})
    if not isinstance(psi, dict):
        raise ConfigError("psi must be an object")
    unknown = set(psi) - _PSI_KEYS
    if unknown:
        raise ConfigError(f"unknown psi keys: {sorted(unknown)}")
    if "enabled" in psi:
        if not isinstance(psi["enabled"], bool):
            raise ConfigError("psi.enabled must be a boolean")
        fields["psi_enabled"] = psi["enabled"]
    if "initial_condition" in psi:
        fields["psi_initial"] = psi["initial_condition"]
    if "forcing" in psi:
        fields["psi_forcing"] = psi["forcing"]
    try:
        config = RunConfig(**fields)
    except TypeError as err:
        raise ConfigError(str(err)) from err
    return config, raw


def config_hash(config: RunConfig, core_text: str | None = None) -> str:
    """sha256 prefix of the resolved config, plus the core text when set."""
    payload = asdict(config)
    if core_text is not None:
        payload["core_text"] = core_text
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, columns, rows, chash: str):
    lines = [f"# config_hash={chash}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def _check(name: str, measured: float, tolerance: float) -> dict:
    return {
        "name": name,
        "measured": measured,
        "tolerance": tolerance,
        "passed": bool(measured <= tolerance),
    }


def _mode_amplitude(f: Field, mode: tuple[int, ...]) -> complex:
    coeffs = np.fft.fftn(f.values, axes=_spatial_axes(f.grid))
    return complex(coeffs[(0,) + mode]) / f.grid.num_points


def cmd_filter_check(spec: ExperimentSpec) -> tuple[int, dict]:
    config = spec.config
    grid = config.grid()
    rng = config.rng()
    kmax = max(2, min(8, grid.size // 6))
    f = families.random_band_limited(grid, rng, ncomp=1, kmax=kmax)
    scale = float(np.max(np.abs(f.values)))
    a, b = 0.013, 0.029
    checks = []

    comp = heat_propagate(heat_propagate(f, a), b) - heat_propagate(f, a + b)
    checks.append(_check("semigroup_composition", field_norms(comp)[1] / scale, 1e-12))
    ident = heat_propagate(f, 0.0) - f
    checks.append(_check("identity_at_zero", field_norms(ident)[1] / scale, 1e-13))
    mean_drift = abs(float(heat_propagate(f, a).values.mean() - f.values.mean()))
    checks.append(_check("mean_preservation", mean_drift / (1.0 + scale), 1e-13))
    commute = spectral_derivative(heat_propagate(f, a), 0) - heat_propagate(
        spectral_derivative(f, 0), a
    )
    checks.append(_check("derivative_commutation", field_norms(commute)[1] / scale, 1e-11))
    mode = (2,) * grid.n
    ksq = float(sum(k**2 for k in mode))
    before = _mode_amplitude(f, mode)
    after = _mode_amplitude(heat_propagate(f, a), mode)
    target = before * np.exp(-a * ksq)
    checks.append(_check("mode_decay_factor", abs(after - target) / (abs(before) + 1e-30), 1e-12))
    if grid.n == 2:
        v = families.random_solenoidal(grid, rng, kmax=kmax)
        div = field_norms(divergence(heat_propagate(v, a)))[1]
        checks.append(_check("divergence_preservation", div, 1e-10))

    passed = all(c["passed"] for c in checks)
    report = {
        "command": "filter-check",
        "grid": {"n": grid.n, "size": grid.size},
        "checks": checks,
        "passed": passed,
    }
    for c in checks:
        print(
            f"{c['name']}: measured {c['measured']:.3e} tolerance {c['tolerance']:.1e} "
            f"{'PASS' if c['passed'] else 'FAIL'}"
        )
    return (0 if passed else 1), report


def _resolve_core(spec: ExperimentSpec) -> JetExpr:
    if spec.core_text is not None:
        return parse_core(spec.core_text)
    return core_by_name(spec.config.core, spec.config.n)


def cmd_derive_source(spec: ExperimentSpec) -> tuple[int, dict]:
    core = _resolve_core(spec)
    source = derive_source(core)
    table = jet_frechet(core)
    lines = [f"core: {format_expr(core)}", f"s = {format_expr(source)}"]
    frechet_lines = []
    for (alpha, beta), expr in sorted(table.zero_order.items()):
        frechet_lines.append(f"dF{alpha}/du{beta} = {format_expr(expr)}")
    for (alpha, beta, coord), expr in sorted(table.first_order.items()):
        frechet_lines.append(f"dF{alpha}/du{beta}_{coord} = {format_expr(expr)}")
    lines.append("frechet:")
    lines.extend("  " + fl for fl in frechet_lines)
    print("\n".join(lines))
    report = {
        "command": "derive-source",
        "core": format_expr(core),
        "source": format_expr(source),
        "frechet": frechet_lines,
    }
    return 0, report


def _measured_orders(errors: list[float]) -> list[float]:
    orders = []
    for coarse, fine in zip(errors, errors[1:]):
        if fine <= 0.0 or coarse <= 0.0:
            orders.append(float("nan"))
        else:
            orders.append(float(np.log2(coarse / fine)))
    return orders


def _burgers_generator(config: RunConfig):
    grid = make_grid(1, config.grid_size)
    ref = reference_burgers(grid, t_end=0.5)
    return ref.coarse_slice(len(ref.times) - 1)


def _fluid_generator(config: RunConfig):
    grid = make_grid(2, config.grid_size)
    return families.filtered_taylor_green(grid, t=0.0, eta=0.0)


def _residual_stack(
    core, u_gen: Field, ut_gen: Field, epsilon: float, eta0: float, K: int,
    start: int = 0, stop: int | None = None,
):
    """Scale stacks of (u, u_t, r) on nodes start..stop-1 of the K-node ladder."""
    u_stack = build_scale_stack(u_gen, epsilon, eta0, K, start, stop)
    ut_stack = build_scale_stack(ut_gen, epsilon, eta0, K, start, stop)
    r_fields = [
        exact_residual(core, u, u_t) for u, u_t in zip(u_stack.fields, ut_stack.fields)
    ]
    return u_stack, ut_stack, ScaleStack(u_stack.eta_nodes, tuple(r_fields))


def cmd_residual_check(spec: ExperimentSpec) -> tuple[int, dict]:
    config = spec.config
    if config.core == "burgers" and config.n != 1:
        raise ConfigError("the burgers core needs n = 1")
    if config.core == "fluid" and config.n != 2:
        raise ConfigError("the residual check runs the fluid core with n = 2")
    core = core_by_name(config.core, config.n)
    if config.core == "burgers":
        u_gen, ut_gen = _burgers_generator(config)
    else:
        u_gen, ut_gen = _fluid_generator(config)
    source = derive_source(core)

    # r at epsilon, the first node of every ladder
    u_eps, ut_eps = (
        heat_propagate(g.with_values(eta=config.epsilon), 0.0) for g in (u_gen, ut_gen)
    )
    r_eps_norms = field_norms(exact_residual(core, u_eps, ut_eps))
    rows = []
    errors = []
    for K in config.nodes:
        # the defect reads nodes mid-1..mid+1; a stack needs five nodes
        mid = K // 2
        u_stack, ut_stack, r_stack = _residual_stack(
            core, u_gen, ut_gen, config.epsilon, config.eta0, K, mid - 2, mid + 3
        )
        jets = jet_values(source, u_stack.fields[2], ut_stack.fields[2])
        s_mid = jet_evaluate(source, jets)
        e = residual_defect(r_stack, s_mid, 2)
        errors.append(field_norms(e)[1])
        rows.append((K, r_stack.delta_eta, errors[-1]))
    orders = _measured_orders(errors)
    rows = [
        row + ((float("nan"),) if i == 0 else (orders[i - 1],))
        for i, row in enumerate(rows)
    ]
    final_order = orders[-1] if orders else float("nan")
    passed = bool(final_order >= 1.9)
    report = {
        "command": "residual-check",
        "core": config.core,
        "epsilon": config.epsilon,
        "eta0": config.eta0,
        "max_e": errors,
        "orders": orders,
        "final_order": final_order,
        "r_epsilon_l2": r_eps_norms[0],
        "r_epsilon_max": r_eps_norms[1],
        "passed": passed,
    }
    print(f"defect orders: {['%.3f' % o for o in orders]} (expect >= 1.9)")
    print(f"max |r| at epsilon={config.epsilon}: {r_eps_norms[1]:.6e}")
    if spec.out_dir is not None:
        _write_csv(
            spec.out_dir / "defect_convergence.csv",
            ("K", "delta_eta", "max_e", "order"),
            rows,
            config_hash(config, spec.core_text),
        )
    return (0 if passed else 1), report


def _closure_bound_rows(r_stack: ScaleStack, case: str):
    rows = []
    worst = 0.0
    for node in range(1, r_stack.K - 1):
        lhs, rhs = closure_error_bound(r_stack, node)
        ratio = lhs / rhs if rhs > 0 else float("inf")
        worst = max(worst, ratio)
        rows.append((case, float(r_stack.eta_nodes[node]), lhs, rhs, ratio))
    return rows, worst


def cmd_closure_check(spec: ExperimentSpec) -> tuple[int, dict]:
    config = spec.config
    grid = make_grid(config.n, config.grid_size)
    rng = config.rng()
    eta = config.eta
    checks = []

    s = families.random_band_limited(grid, rng, ncomp=grid.n, kmax=max(2, grid.size // 6))
    r = solve_residual_closure(s, eta)
    back = laplacian(r) - (1.0 / eta) * r + s
    scale = field_norms(s)[1]
    checks.append(_check("back_substitution", field_norms(back)[1] / scale, 1e-10))

    sine = families.sine_field(grid)
    r_sine = solve_residual_closure(sine, eta)
    expected = sine.values / (1.0 + 1.0 / eta)
    checks.append(
        _check(
            "single_mode_exact",
            float(np.max(np.abs(r_sine.values - expected))),
            1e-12,
        )
    )
    const = Field(grid, np.full((1,) + grid.shape, 0.7))
    r_const = solve_residual_closure(const, eta)
    checks.append(
        _check(
            "constant_mode",
            float(np.max(np.abs(r_const.values - 0.7 * eta))),
            1e-12,
        )
    )
    small_scale_decay = [
        field_norms(solve_residual_closure(sine, e))[1] for e in (1e-1, 1e-2, 1e-3)
    ]
    checks.append(
        _check(
            "vanishing_scale_limit",
            0.0 if small_scale_decay[0] > small_scale_decay[1] > small_scale_decay[2] else 1.0,
            0.5,
        )
    )

    # Taylor bound experiment on a manufactured residual stack
    K = 33
    nodes = np.linspace(0.01, 0.2, K)
    x = grid.coords()[0]
    r_fields = [
        Field(grid, (e * np.exp(-2.0 * e) * np.sin(x))[np.newaxis], eta=float(e))
        for e in nodes
    ]
    manu_stack = ScaleStack(nodes, tuple(r_fields))
    manu_rows, manu_worst = _closure_bound_rows(manu_stack, "manufactured")
    checks.append(_check("taylor_bound_manufactured", manu_worst, 1.10))

    # same bound on exact residuals of the filtered reference problem
    bcoarse = make_grid(1, max(64, config.grid_size if config.n == 1 else 128))
    burgers_cfg = RunConfig(
        n=1, grid_size=bcoarse.size, core="burgers",
        epsilon=config.epsilon, eta0=config.eta0, nodes=(K,),
    )
    core = core_by_name("burgers", 1)
    u_gen, ut_gen = _burgers_generator(burgers_cfg)
    _, _, r_stack = _residual_stack(
        core, u_gen, ut_gen, burgers_cfg.epsilon, burgers_cfg.eta0, K
    )
    burgers_rows, burgers_worst = _closure_bound_rows(r_stack, "burgers")
    checks.append(_check("taylor_bound_burgers", burgers_worst, 1.10))
    r_eps_max = field_norms(r_stack.fields[0])[1]

    passed = all(c["passed"] for c in checks)
    report = {
        "command": "closure-check",
        "eta": eta,
        "checks": checks,
        "burgers_epsilon": burgers_cfg.epsilon,
        "burgers_r_epsilon_max": r_eps_max,
        "passed": passed,
    }
    for c in checks:
        print(
            f"{c['name']}: measured {c['measured']:.3e} tolerance {c['tolerance']:.2e} "
            f"{'PASS' if c['passed'] else 'FAIL'}"
        )
    print(f"burgers residual stack: epsilon={burgers_cfg.epsilon}, max|r(eps)|={r_eps_max:.6e}")
    if spec.out_dir is not None:
        _write_csv(
            spec.out_dir / "closure_bound.csv",
            ("case", "eta", "lhs", "rhs", "ratio"),
            manu_rows + burgers_rows,
            config_hash(config, spec.core_text),
        )
    return (0 if passed else 1), report


def _deviation_errors(grid, epsilon: float, eta0: float, K: int):
    """Quadrature-vs-direct deviation error for one ladder resolution."""
    h = (eta0 - epsilon) / (K - 1)
    if epsilon - h <= 0.0:
        raise ConfigError("epsilon too small for the extended ladder")
    big_nodes = [epsilon + (j - 1) * h for j in range(K + 2)]
    big = ScaleStack.from_fields(families.manufactured_scalar_2d_ladder(grid, big_nodes))
    psi_fields = [filter_defect(big, j) for j in range(1, K + 1)]
    psi_stack = ScaleStack.from_fields(psi_fields)
    anchor = big.fields[1]
    ladder = big.fields[1 : K + 1]
    matched = heat_propagate_many(anchor, [f.eta - anchor.eta for f in ladder])
    deviations = [f - m for f, m in zip(ladder, matched)]
    # the deviation at the last node is the direct one the quadrature targets
    direct = deviations[-1]
    quad = duhamel_integral(psi_stack, K - 1)
    err = field_norms(direct - quad.with_values(t=direct.t))[1]
    sup_psi = max(field_norms(p)[1] for p in psi_fields)
    margins = []
    for eta, dev in zip(big_nodes[1:], deviations):
        bound = eta * sup_psi
        margins.append(field_norms(dev)[1] / bound if bound > 0 else 0.0)
    return err, max(margins)


def cmd_duhamel_check(spec: ExperimentSpec) -> tuple[int, dict]:
    config = spec.config
    grid = make_grid(2, config.grid_size)
    errors, worst_margin, rows = [], 0.0, []
    for K in config.nodes:
        err, margin = _deviation_errors(grid, config.epsilon, config.eta0, K)
        errors.append(err)
        worst_margin = max(worst_margin, margin)
        rows.append((K, (config.eta0 - config.epsilon) / (K - 1), err))
    orders = _measured_orders(errors)
    rows = [
        row + ((float("nan"),) if i == 0 else (orders[i - 1],))
        for i, row in enumerate(rows)
    ]
    final_order = orders[-1] if orders else float("nan")
    passed = bool(final_order >= 1.5 and worst_margin <= 1.05)
    report = {
        "command": "duhamel-check",
        "errors": errors,
        "orders": orders,
        "final_order": final_order,
        "deviation_bound_margin": worst_margin,
        "passed": passed,
    }
    print(f"duhamel orders: {['%.3f' % o for o in orders]} (expect >= 1.5)")
    print(f"worst deviation/bound ratio: {worst_margin:.4f} (expect <= 1.05)")
    if spec.out_dir is not None:
        _write_csv(
            spec.out_dir / "duhamel_convergence.csv",
            ("K", "delta_eta", "max_error", "order"),
            rows,
            config_hash(config, spec.core_text),
        )
    return (0 if passed else 1), report


def cmd_evolve(spec: ExperimentSpec) -> tuple[int, dict]:
    config = spec.config
    chash = config_hash(config, spec.core_text)

    def _dump(records):
        if spec.out_dir is not None:
            _write_csv(
                spec.out_dir / "diagnostics.csv",
                DIAGNOSTIC_COLUMNS,
                [r.row() for r in records],
                chash,
            )

    try:
        result = run_simulation(config)
    except SimulationDiverged as err:
        _dump(err.records)
        print(f"diverged: {err}", file=sys.stderr)
        return 3, {"command": "evolve", "diverged": True, "error": str(err)}
    _dump(result.records)
    if spec.out_dir is not None:
        write_checkpoint(spec.out_dir / "final_v.ckpt", result.final.v, {"kind": "velocity"})
        if result.final.psi_v is not None:
            write_checkpoint(
                spec.out_dir / "final_psi.ckpt", result.final.psi_v, {"kind": "psi"}
            )
    last = result.records[-1]
    report = {
        "command": "evolve",
        "config": asdict(config),
        "config_hash": chash,
        "steps": last.step,
        "t_final": last.t,
        "energy_initial": result.records[0].energy,
        "energy_final": last.energy,
        "max_div_v": max(r.max_div_v for r in result.records),
        "psi_sup": last.psi_sup,
        "deviation_bound": last.deviation_bound,
    }
    print(
        f"evolved {last.step} steps to t={last.t:.6g}; energy {last.energy:.9e}; "
        f"max div {report['max_div_v']:.3e}"
    )
    return 0, report


def cmd_burgers_reference(spec: ExperimentSpec) -> tuple[int, dict]:
    config = spec.config
    if config.n != 1:
        raise ConfigError("burgers-reference needs n = 1")
    if not config.t_end < 1.0:
        raise ConfigError("burgers-reference needs t_end < 1 (pre-shock)")
    grid = make_grid(1, config.grid_size)
    times = [round(j * config.t_end / 4.0, 12) for j in range(5)]
    ref = reference_burgers(grid, config.t_end, snapshot_times=times)
    rows = []
    for i, t in enumerate(ref.times):
        u, u_t = ref.coarse_slice(i)
        l2, vmax = field_norms(u)
        rows.append((t, l2, vmax, field_norms(u_t)[1]))
    if spec.out_dir is not None:
        _write_csv(
            spec.out_dir / "reference_norms.csv",
            ("t", "l2", "max", "max_ut"),
            rows,
            config_hash(config, spec.core_text),
        )
        u, u_t = ref.coarse_slice(len(ref.times) - 1)
        write_checkpoint(spec.out_dir / "u_final.ckpt", u, {"kind": "burgers_u"})
        write_checkpoint(spec.out_dir / "u_t_final.ckpt", u_t, {"kind": "burgers_u_t"})
    report = {
        "command": "burgers-reference",
        "fine_size": ref.fine.size,
        "times": list(ref.times),
        "final_max": rows[-1][2],
    }
    print(f"reference solved to t={config.t_end} on {ref.fine.size} fine points")
    return 0, report


_DISPATCH = {
    "filter-check": cmd_filter_check,
    "derive-source": cmd_derive_source,
    "residual-check": cmd_residual_check,
    "closure-check": cmd_closure_check,
    "duhamel-check": cmd_duhamel_check,
    "evolve": cmd_evolve,
    "burgers-reference": cmd_burgers_reference,
}


def run_command(spec: ExperimentSpec) -> int:
    """Execute one resolved experiment and write its artifacts."""
    if spec.core_text is not None and spec.command != "derive-source":
        raise ConfigError(f"core_text is read by derive-source only, not by {spec.command}")
    if spec.out_dir is not None:
        spec.out_dir.mkdir(parents=True, exist_ok=True)
    if spec.used_beta_delta:
        print(f"eta = {spec.config.eta!r} (from beta * delta^2)")
    code, report = _DISPATCH[spec.command](spec)
    if spec.out_dir is not None:
        report = dict(report)
        report["config_hash"] = config_hash(spec.config, spec.core_text)
        _write_json(spec.out_dir / "report.json", report)
    return code


def build_spec(args) -> ExperimentSpec:
    text = Path(args.config).read_text() if args.config else "{}"
    overrides = list(args.set or [])
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    config, raw = parse_config(text, overrides)
    return ExperimentSpec(
        command=args.command,
        config=config,
        out_dir=Path(args.out) if args.out else None,
        used_beta_delta="beta" in raw,
        core_text=raw.get("core_text"),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="scalepde",
        description="Scale-filtered PDE laboratory: filtering, sources, residuals, evolution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a JSON config file")
        p.add_argument("--out", help="directory for artifacts")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config entry (dotted paths allowed)",
        )
        p.add_argument("--seed", type=int, help="override the RNG seed")
    args = parser.parse_args(argv)
    try:
        spec = build_spec(args)
        return run_command(spec)
    except (ConfigError, CoreSyntaxError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SimulationDiverged as err:
        print(f"diverged: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
