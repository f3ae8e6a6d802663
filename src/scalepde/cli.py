"""Command line runner for the filtering, residual and evolution experiments.

Every command reads one strict JSON config (see parse_config), accepts
--set overrides, and writes deterministic artifacts (CSV, JSON, binary
checkpoints) into the --out directory.  Exit codes: 0 success, 1 failed
numeric check, 2 invalid config, 3 simulation diverged, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import families
from .evolve import (
    _CONFIG_KEYS,
    BURGERS_REFINEMENT,
    DIAGNOSTIC_COLUMNS,
    ConfigError,
    RunConfig,
    SimulationDiverged,
    _require,
    reference_burgers,
    run_simulation,
    write_checkpoint,
)
from .fluid import burgers_core, core_by_name
from .grid import (
    Field,
    _irfft,
    _peak,
    _rfft,
    _value_norms,
    divergence,
    field_norms,
    laplacian,
    make_grid,
    spectral_derivative,
)
from .heat import (
    ScaleStack,
    SpectralStack,
    duhamel_integral,
    filter_defect,
    filter_deviation,
    heat_propagate,
    heat_propagate_batches,
    node_batches,
)
from .jets import (
    JetExpr,
    derive_source,
    format_expr,
    jet_evaluate,
    jet_frechet,
    jet_values,
    parse_core,
)
from .residual import closure_error_bound, residual_defect, solve_residual_closure

# config key -> RunConfig field; a dotted key lives in the object its prefix names
_FIELD_OF = {_CONFIG_KEYS.get(f.name, f.name): f.name for f in fields(RunConfig)}
_BLOCKS = {
    block: {k.split(".")[1] for k in _FIELD_OF if k.startswith(block + ".")}
    for block in {k.split(".")[0] for k in _FIELD_OF if "." in k}
}
# keys read beside the RunConfig fields: the (beta, delta) form of eta, and core_text
_TOP_LEVEL_KEYS = {k for k in _FIELD_OF if "." not in k} | set(_BLOCKS) | {
    "beta", "delta", "core_text",
}


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
    """Set each dotted key=value; an object the config does not give starts
    from its RunConfig default."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        path, value = item.split("=", 1)
        keys = path.split(".")
        target = raw
        for depth, key in enumerate(keys[:-1]):
            if key not in target:
                default = asdict(RunConfig()).get(_FIELD_OF.get(".".join(keys[: depth + 1])))
                target[key] = default if isinstance(default, dict) else {}
            target = target[key]
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

    values = {_FIELD_OF[k]: raw[k] for k in raw if k in _FIELD_OF}
    for block, subkeys in _BLOCKS.items():
        given = raw.get(block, {})
        if not isinstance(given, dict):
            raise ConfigError(f"{block} must be an object")
        unknown = set(given) - subkeys
        if unknown:
            raise ConfigError(f"unknown {block} keys: {sorted(unknown)}")
        values.update({_FIELD_OF[f"{block}.{k}"]: v for k, v in given.items()})
    if "beta" in raw or "delta" in raw:
        if "eta" in raw:
            raise ConfigError("give either eta or (beta, delta), not both")
        if "beta" not in raw or "delta" not in raw:
            raise ConfigError("beta and delta must be given together")
        for key in ("beta", "delta"):
            _require(key, raw[key], float)
            if not raw[key] > 0.0:
                raise ConfigError(f"{key} must be positive, got {raw[key]!r}")
        try:
            values["eta"] = float(raw["beta"]) * float(raw["delta"]) ** 2
        except OverflowError:
            values["eta"] = math.inf
        if not 0.0 < values["eta"] <= 1.0:
            raise ConfigError(f"eta = beta * delta^2 must lie in (0, 1], got {values['eta']}")
    if "core_text" in raw:
        _require("core_text", raw["core_text"], str)
    return RunConfig(**values), raw


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


def _print_checks(checks: list[dict]):
    for c in checks:
        print(
            f"{c['name']}: measured {c['measured']:.3e} tolerance {c['tolerance']:.2e} "
            f"{'PASS' if c['passed'] else 'FAIL'}"
        )


def _mode_amplitude(f: Field, mode: tuple[int, ...]) -> complex:
    coeffs = _rfft(f.grid, f.values)
    return complex(coeffs[(0,) + mode]) / f.grid.num_points


def cmd_filter_check(spec: ExperimentSpec) -> tuple[int, dict, dict]:
    config = spec.config
    grid = config.grid()
    rng = config.rng()
    kmax = max(2, min(8, grid.size // 6))
    f = families.random_band_limited(grid, rng, ncomp=1, kmax=kmax)
    scale = float(np.max(np.abs(f.values)))
    a, b = 0.013, 0.029
    checks = []

    # each the same to the last bit as its own heat_propagate(f, d)
    blocks = heat_propagate_batches(grid, f.values, node_batches((a, a + b, 0.0), f.values.size))
    f_a, f_ab, f_0 = (f.with_values(row) for block in blocks for row in block)
    comp = heat_propagate(f_a, b) - f_ab
    checks.append(_check("semigroup_composition", field_norms(comp)[1] / scale, 1e-12))
    ident = f_0 - f
    checks.append(_check("identity_at_zero", field_norms(ident)[1] / scale, 1e-13))
    mean_drift = abs(float(f_a.values.mean() - f.values.mean()))
    checks.append(_check("mean_preservation", mean_drift / (1.0 + scale), 1e-13))
    commute = spectral_derivative(f_a, 0) - heat_propagate(spectral_derivative(f, 0), a)
    checks.append(_check("derivative_commutation", field_norms(commute)[1] / scale, 1e-11))
    mode = (2,) * grid.n
    ksq = float(sum(k**2 for k in mode))
    before = _mode_amplitude(f, mode)
    after = _mode_amplitude(f_a, mode)
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
    _print_checks(checks)
    return (0 if passed else 1), report, {}


def _resolve_core(spec: ExperimentSpec) -> JetExpr:
    if spec.core_text is not None:
        return parse_core(spec.core_text)
    return core_by_name(spec.config.core, spec.config.n)


def cmd_derive_source(spec: ExperimentSpec) -> tuple[int, dict, dict]:
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
    return 0, report, {}


def _measured_orders(errors: list[float], nodes) -> list[float]:
    """Observed order between successive ladders of K_c and K_f nodes.

    log2(e_c / e_f) / log2((K_f - 1) / (K_c - 1)): the ladder spacing is
    proportional to 1 / (K - 1), so a doubling ladder divides by one.
    """
    orders = []
    ladders = list(zip(errors, nodes))
    for (coarse, k_c), (fine, k_f) in zip(ladders, ladders[1:]):
        if fine <= 0.0 or coarse <= 0.0:
            orders.append(float("nan"))
        else:
            orders.append(float(np.log2(coarse / fine) / np.log2((k_f - 1) / (k_c - 1))))
    return orders


def _convergence_table(nodes, spacings, errors) -> tuple[list[float], list[tuple]]:
    """The measured orders and the rows (K, delta_eta, error, order); the
    coarsest ladder has no order."""
    orders = _measured_orders(errors, nodes)
    return orders, list(zip(nodes, spacings, errors, [float("nan")] + orders))


def _burgers_generator(grid_size: int):
    """The grid and the rows (u, u_t) of the Burgers reference at t = 0.5."""
    grid = make_grid(1, grid_size)
    return (grid, *reference_burgers(grid, [0.5])[0])


def _residual_stacks(
    core: JetExpr, grid, u: np.ndarray, u_t: np.ndarray, epsilon: float, windows, source=None
) -> list[tuple[ScaleStack, np.ndarray | None]]:
    """The scale stack of r = F(u, u_t) on each window of eta nodes of the
    filtered family through the rows (u, u_t) at epsilon and, given a
    source, the row s at its centre, where r and s are read off one jet table.

    Windows share the nodes they hold to the last bit: each generator goes
    forward once, and r is formed once per distinct node in ``node_batches``,
    the centres, which alone tabulate the source's jets, apart.  Of u_t
    only the rows up to the last a t jet reads are propagated, if any.
    """
    table = core if source is None else JetExpr(core.n, core.N, core.terms + source.terms)
    ut_rows = max((f.component for f in table.jet_indices() if "t" in f.derivs), default=0)
    centres = {} if source is None else dict.fromkeys(float(w[len(w) // 2]) for w in windows)
    rest = dict.fromkeys(float(eta) for w in windows for eta in w if float(eta) not in centres)
    batches = node_batches(rest, u.size) + node_batches(centres, u.size)
    deltas = [[eta - epsilon for eta in batch] for batch in batches]
    ut_blocks = [None] * len(batches)
    if ut_rows:
        ut_blocks = heat_propagate_batches(grid, u_t[:ut_rows], deltas)
    r, s = {}, {}
    for batch, u_k, ut_k in zip(batches, heat_propagate_batches(grid, u, deltas), ut_blocks):
        jets = jet_values(table if batch[0] in centres else core, grid, u_k, ut_k)
        r.update(zip(batch, jet_evaluate(core, jets, grid)))
        if batch[0] in centres:
            s.update(zip(batch, jet_evaluate(source, jets, grid)))
        del jets  # the largest table alive; it must not outlive its batch
    return [(ScaleStack(grid, w, [r[eta] for eta in w]), s.get(w[len(w) // 2])) for w in windows]


def cmd_residual_check(spec: ExperimentSpec) -> tuple[int, dict, dict]:
    config = spec.config
    if config.core == "fluid" and config.n != 2:
        raise ConfigError("the residual check runs the fluid core with n = 2")
    core = core_by_name(config.core, config.n)
    if config.core == "burgers":
        grid, u, u_t = _burgers_generator(config.grid_size)
    else:
        grid = make_grid(2, config.grid_size)
        u, u_t = (f.values for f in families.filtered_taylor_green(grid, t=0.0, eta=0.0))
    source = derive_source(core)

    # r at epsilon, the first node of every ladder
    r_eps_norms = _value_norms(grid, jet_evaluate(core, jet_values(core, grid, u, u_t), grid))
    # the defect of the K-node ladder reads r on its nodes mid-1..mid+1,
    # mid = K // 2, and s on mid alone; nested ladders share their centre
    windows = [
        np.linspace(config.epsilon, config.eta0, K)[K // 2 - 1 : K // 2 + 2] for K in config.nodes
    ]
    spacings, errors = [], []
    for r_stack, s_mid in _residual_stacks(core, grid, u, u_t, config.epsilon, windows, source):
        errors.append(float(_peak(residual_defect(r_stack, s_mid, 1))))
        spacings.append(r_stack.delta_eta)
    orders, rows = _convergence_table(config.nodes, spacings, errors)
    final_order = orders[-1]
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
    table = (("K", "delta_eta", "max_e", "order"), rows)
    return (0 if passed else 1), report, {"defect_convergence.csv": table}


def _closure_bound_rows(r_stack: ScaleStack, case: str):
    """The CSV rows (case, eta, lhs, rhs, lhs / rhs) as Python floats, and the worst ratio."""
    lhs, rhs = closure_error_bound(r_stack)
    rows = [
        (case, eta, left, right, left / right if right > 0 else float("inf"))
        for eta, left, right in zip(r_stack.eta_nodes[1:-1].tolist(), lhs.tolist(), rhs.tolist())
    ]
    return rows, max(0.0, *(row[-1] for row in rows))


def cmd_closure_check(spec: ExperimentSpec) -> tuple[int, dict, dict]:
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
    miss = solve_residual_closure(sine, eta).values - sine.values / (1.0 + 1.0 / eta)
    checks.append(_check("single_mode_exact", float(np.max(np.abs(miss))), 1e-12))
    const = Field(grid, np.full((1,) + grid.shape, 0.7))
    miss = solve_residual_closure(const, eta).values - 0.7 * eta
    checks.append(_check("constant_mode", float(np.max(np.abs(miss))), 1e-12))
    decay = [field_norms(solve_residual_closure(sine, e))[1] for e in (1e-1, 1e-2, 1e-3)]
    falls = decay[0] > decay[1] > decay[2]
    checks.append(_check("vanishing_scale_limit", 0.0 if falls else 1.0, 0.5))

    # Taylor bound experiment on a manufactured residual stack
    K = 33
    nodes = np.linspace(0.01, 0.2, K)
    sin_x = np.sin(grid.coords()[0])
    r_rows = [(e * np.exp(-2.0 * e) * sin_x)[np.newaxis] for e in nodes]
    manu_stack = ScaleStack(grid, nodes, r_rows)
    manu_rows, manu_worst = _closure_bound_rows(manu_stack, "manufactured")
    checks.append(_check("taylor_bound_manufactured", manu_worst, 1.10))

    # same bound on exact residuals of the filtered reference problem
    generator = _burgers_generator(max(64, config.grid_size if config.n == 1 else 128))
    ladder = [np.linspace(config.epsilon, config.eta0, K)]
    [(r_stack, _)] = _residual_stacks(burgers_core(), *generator, config.epsilon, ladder)
    burgers_rows, burgers_worst = _closure_bound_rows(r_stack, "burgers")
    checks.append(_check("taylor_bound_burgers", burgers_worst, 1.10))
    r_eps_max = float(_peak(r_stack.values[0]))

    passed = all(c["passed"] for c in checks)
    report = {
        "command": "closure-check",
        "eta": eta,
        "checks": checks,
        "burgers_epsilon": config.epsilon,
        "burgers_r_epsilon_max": r_eps_max,
        "passed": passed,
    }
    _print_checks(checks)
    print(f"burgers residual stack: epsilon={config.epsilon}, max|r(eps)|={r_eps_max:.6e}")
    table = (("case", "eta", "lhs", "rhs", "ratio"), manu_rows + burgers_rows)
    return (0 if passed else 1), report, {"closure_bound.csv": table}


def _deviation_errors(grid, ladders) -> tuple[list[float], float]:
    """Quadrature-vs-direct deviation error of each extended ladder, and
    the worst ratio of a deviation to its bound.

    The K-node ladder's nodes 1..K span [epsilon, eta0]; nodes 0 and K + 1
    extend it by one spacing each way, so psi has a centred stencil on all
    K.  Ladders share the nodes they hold to the last bit: each distinct
    node's spectrum is formed once from the family's three transformed
    modes, and its deviation from the family filtered from epsilon (node 1
    of every ladder) transformed back once.
    """
    etas = sorted(set().union(*ladders))
    spectra = dict(zip(etas, families.manufactured_scalar_2d_ladder(grid, etas)))
    # the max norm of the deviation at each node, and its row where a ladder ends
    norms, ends = {}, dict.fromkeys(ladder[-2] for ladder in ladders)
    errors, worst = [], 0.0
    for ladder in ladders:
        stack = SpectralStack(grid, ladder, [spectra[eta] for eta in ladder])
        psi = filter_defect(stack)
        sup_psi = max(float(_peak(_irfft(grid, row))) for row in psi.values)
        for node, eta in enumerate(ladder[1:-1], start=1):
            if eta not in norms:
                dev = filter_deviation(stack, 1, node)
                norms[eta] = float(_peak(dev))
                if eta in ends:
                    ends[eta] = dev
            bound = eta * sup_psi
            worst = max(worst, norms[eta] / bound if bound > 0 else 0.0)
        # the deviation at the last node is the direct one the quadrature targets
        errors.append(float(_peak(ends[ladder[-2]] - duhamel_integral(psi, psi.K - 1))))
        del psi  # not to be alive beside the next ladder's
    return errors, worst


# complex values of the half spectra duhamel-check may keep alive, 1 GiB
_SPECTRA_BUDGET = 2**26


def cmd_duhamel_check(spec: ExperimentSpec) -> tuple[int, dict, dict]:
    config = spec.config
    if config.n != 2:
        raise ConfigError(f"duhamel-check needs n = 2, got n={config.n}")
    epsilon, eta0, nodes, size = config.epsilon, config.eta0, config.nodes, config.grid_size
    spacings = [(eta0 - epsilon) / (K - 1) for K in nodes]
    if epsilon - spacings[0] <= 0.0:
        # every ladder extends one spacing below epsilon, the coarsest most
        raise ConfigError(
            f"epsilon too small for the extended ladder: epsilon={epsilon} must "
            f"exceed the spacing (eta0 - epsilon)/(K - 1) = {spacings[0]} of the "
            f"coarsest ladder, eta0={eta0}, K={nodes[0]}"
        )
    ladders = [[epsilon + (j - 1) * h for j in range(K + 2)] for K, h in zip(nodes, spacings)]
    # the distinct nodes' spectra are kept, beside the finest ladder's psi
    live = len(set().union(*ladders)) + nodes[-1]
    if live * size * (size // 2 + 1) > _SPECTRA_BUDGET:
        raise ConfigError(
            f"nodes={list(nodes)} on grid_size={size} keep {live} half spectra of "
            f"{size}x{size // 2 + 1} values, over the {_SPECTRA_BUDGET} allowed"
        )
    errors, worst_margin = _deviation_errors(make_grid(2, size), ladders)
    orders, rows = _convergence_table(nodes, spacings, errors)
    final_order = orders[-1]
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
    table = (("K", "delta_eta", "max_error", "order"), rows)
    return (0 if passed else 1), report, {"duhamel_convergence.csv": table}


def _diagnostics(records) -> dict:
    return {"diagnostics.csv": (DIAGNOSTIC_COLUMNS, [r.row() for r in records])}


def cmd_evolve(spec: ExperimentSpec) -> tuple[int, dict, dict]:
    config = spec.config
    try:
        result = run_simulation(config)
    except SimulationDiverged as err:
        print(f"diverged: {err}", file=sys.stderr)
        report = {"command": "evolve", "diverged": True, "error": str(err)}
        return 3, report, _diagnostics(err.records)
    artifacts = _diagnostics(result.records)
    artifacts["final_v.ckpt"] = (result.final.v, {"kind": "velocity"})
    if result.final.psi_v is not None:
        artifacts["final_psi.ckpt"] = (result.final.psi_v, {"kind": "psi"})
    last = result.records[-1]
    report = {
        "command": "evolve",
        "config": asdict(config),
        "steps": last.step,
        "t_final": last.t,
        "energy_initial": result.records[0].energy,
        "energy_final": last.energy,
        "max_div_v": max(r.max_div_v for r in result.records),
        "cfl_peak": result.cfl_peak,
        "psi_sup": last.psi_sup,
        "deviation_bound": last.deviation_bound,
    }
    print(
        f"evolved {last.step} steps to t={last.t:.6g}; energy {last.energy:.9e}; "
        f"max div {report['max_div_v']:.3e}"
    )
    return 0, report, artifacts


def cmd_burgers_reference(spec: ExperimentSpec) -> tuple[int, dict, dict]:
    config = spec.config
    if config.n != 1:
        raise ConfigError("burgers-reference needs n = 1")
    grid = make_grid(1, config.grid_size)
    times = [j * config.t_end / 4.0 for j in range(4)] + [config.t_end]
    rows = []
    for t, (u, u_t) in zip(times, reference_burgers(grid, times)):
        l2, vmax = _value_norms(grid, u)
        rows.append((t, l2, vmax, float(_peak(u_t))))
    # (u, u_t) is the loop's last, the final slice
    artifacts = {
        "reference_norms.csv": (("t", "l2", "max", "max_ut"), rows),
        "u_final.ckpt": (Field(grid, u, t=times[-1]), {"kind": "burgers_u"}),
        "u_t_final.ckpt": (Field(grid, u_t, t=times[-1]), {"kind": "burgers_u_t"}),
    }
    fine_size = BURGERS_REFINEMENT * grid.size
    report = {
        "command": "burgers-reference",
        "fine_size": fine_size,
        "times": times,
        "final_max": rows[-1][2],
    }
    print(f"reference solved to t={config.t_end} on {fine_size} fine points")
    return 0, report, artifacts


_DISPATCH = {
    "filter-check": cmd_filter_check,
    "derive-source": cmd_derive_source,
    "residual-check": cmd_residual_check,
    "closure-check": cmd_closure_check,
    "duhamel-check": cmd_duhamel_check,
    "evolve": cmd_evolve,
    "burgers-reference": cmd_burgers_reference,
}
COMMANDS = tuple(_DISPATCH)


def run_command(spec: ExperimentSpec) -> int:
    """Execute one resolved experiment and write its artifacts.

    A command returns its exit code, report and artifacts, which map a
    file name to a CSV table (columns, rows) or a checkpoint (field,
    header extra).  Here alone they and report.json are written, with
    one config hash.
    """
    if spec.core_text is not None and spec.command != "derive-source":
        raise ConfigError(f"core_text is read by derive-source only, not by {spec.command}")
    if spec.out_dir is not None:
        spec.out_dir.mkdir(parents=True, exist_ok=True)
    if spec.used_beta_delta:
        print(f"eta = {spec.config.eta!r} (from beta * delta^2)")
    code, report, artifacts = _DISPATCH[spec.command](spec)
    if spec.out_dir is not None:
        chash = config_hash(spec.config, spec.core_text)
        for name, artifact in artifacts.items():
            if isinstance(artifact[0], Field):
                write_checkpoint(spec.out_dir / name, *artifact)
            else:
                _write_csv(spec.out_dir / name, *artifact, chash)
        _write_json(spec.out_dir / "report.json", dict(report, config_hash=chash))
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalepde",
        description="Scale-filtered PDE laboratory: filtering, sources, residuals, evolution.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--out", help="directory for artifacts")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config entry (dotted paths allowed)",
    )
    parser.add_argument("--seed", type=int, help="override the RNG seed")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        spec = build_spec(args)
        return run_command(spec)
    except ValueError as err:  # ConfigError and CoreSyntaxError among them
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
