"""Slice evolution of the macroscopic system and the coupled defect.

The macroscopic velocity evolves by dv/dt = P(-(v . grad) v + r) with P
the Leray projection and r either zero or the screened-Poisson closure
of the derived filter source.  The filter defect psi rides along on the
same RK4 stages through its linearized transport equation.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import astuple, dataclass, field as _dc_field, fields

import numpy as np

from . import families
from .fluid import (
    _advection,
    _gradient_values,
    _leray_hat,
    _pair_divergence_hat,
    _pair_products,
    _source_hat,
    _stress,
    leray_project,
)
from .grid import (
    TWO_PI,
    Field,
    Grid,
    NonFiniteFieldError,
    _dealiased_hat,
    _irfft,
    _rfft,
    _tensor_pairs,
    _with_gradients,
    dealiased,
    field_norms,
    make_grid,
    restrict_to_grid,
)
from .residual import _closure_hat


class ConfigError(ValueError):
    """Raised for invalid run configuration values."""


class SimulationDiverged(RuntimeError):
    """Raised when evolution produces non-finite values."""

    def __init__(self, message: str, records=None):
        super().__init__(message)
        self.records = records or []


@dataclass(frozen=True)
class EvolutionState:
    """Macroscopic slice state at one time: velocity and optional defect."""

    t: float
    v: Field
    psi_v: Field | None = None
    step_count: int = 0

    @property
    def eta(self) -> float:
        return self.v.eta


def cfl_limit(v: Field) -> float:
    """Largest admissible dt: half a cell crossing at the peak speed."""
    vmax = float(np.max(np.abs(v.values)))
    if vmax == 0.0:
        return math.inf
    return 0.5 * v.grid.spacing / vmax


def _check_closure(closure: str, eta: float):
    if closure not in ("none", "helmholtz"):
        raise ValueError(f"unknown closure {closure!r}")
    if closure == "helmholtz" and not eta > 0.0:
        raise ValueError("the helmholtz closure needs eta > 0")


def _transform_state(v: Field, psi_v: Field | None, e_v: Field | None):
    """Half-spectrum (v, psi) stack and psi forcing from one batched transform.

    The forcing only enters with psi; without psi the stack is v alone.
    The (v, psi) stack is cut to the 2/3 band and Leray-projected, so the
    kernel's flux form holds whatever the input (see ``_rhs_hat``); the
    forcing, which enters linearly, is left whole.
    """
    grid = v.grid
    if psi_v is None:
        parts, m = v.values, grid.n
    else:
        parts = np.concatenate([v.values, psi_v.values] + ([] if e_v is None else [e_v.values]))
        m = 2 * grid.n
    coeffs = _rfft(grid, parts)
    u_hat = coeffs[:m]
    u_hat *= grid.rdealias_mask
    # in place: a projected copy would live beside the forcing's rows all step
    u_hat[:] = _leray_hat(grid, u_hat)
    return u_hat, (coeffs[m:] if e_v is not None else None)


def _checked_field(grid: Grid, values, name: str, step: int, t: float, eta: float) -> Field:
    try:
        return Field(grid, values, t=t, eta=eta)
    except NonFiniteFieldError as err:
        raise SimulationDiverged(
            f"non-finite values in {name} at step {step}, t={t:.6g}"
        ) from err


def _rhs_hat(
    grid: Grid, u_hat: np.ndarray, closure: str, eta: float, e_hat: np.ndarray | None
) -> np.ndarray:
    """Projected right-hand side of the stacked (v, psi) coefficients.

    Quadratic transport is taken in flux form on the half spectrum:
    -P div(v v) for the velocity and -P div(v psi + psi v) for psi, the
    fluxes stored by symmetric pair.  So one batched inverse transform of
    (v, psi) and one batched forward transform of the 2/3-masked products
    make a stage.  The helmholtz closure needs grad v in physical space
    for sigma; the velocity term then stays -(v . grad) v on those
    gradients.  psi is never differentiated in physical space.

    The flux form equals the advective form -(v . grad) v and
    -(v . grad) psi - (psi . grad) v when v and psi are solenoidal and
    band-limited to the 2/3 cutoff: the product rule then holds on every
    kept mode and the terms carrying div v and div psi vanish.
    ``_transform_state`` projects and band-limits the state,
    ``step_rk4`` cuts the forcing to the band, and every slope is
    projected and masked, so every stage meets both conditions.
    """
    n, m = grid.n, u_hat.shape[0]
    helmholtz = closure == "helmholtz"
    phys = _irfft(grid, _with_gradients(grid, u_hat) if helmholtz else u_hat)
    v, psi = phys[:n], phys[n:m]
    if helmholtz:
        dv = phys[m:].reshape((n, n) + grid.shape)
        products = [_advection(v, dv)]
    else:
        products = [_pair_products(v, v)]
    if m > n:
        products.append(_pair_products(v, psi) + _pair_products(psi, v))
    if helmholtz:
        products.append(_stress(dv))
        del dv
    # free the stage's physical arrays before the forward transform
    del phys, v, psi
    coeffs = _dealiased_hat(grid, np.concatenate(products))
    del products
    # rows of u_hat below ``split`` take the advective form, the rest a flux
    split = n if helmholtz else 0
    fluxes = (m - split) // n * len(_tensor_pairs(n))
    out = np.empty_like(u_hat)
    np.negative(coeffs[:split], out=out[:split])
    if m > split:
        np.negative(_pair_divergence_hat(grid, coeffs[split : split + fluxes]), out=out[split:])
    if helmholtz:
        out[:n] += _closure_hat(grid, _source_hat(grid, coeffs[split + fluxes :]), eta)
    if e_hat is not None:
        out[n:] += e_hat
    return _leray_hat(grid, out)


def macroscopic_rhs(v: Field, closure: str = "none", eta: float | None = None) -> Field:
    """Projected right-hand side P(-(v . grad) v + r_closure) of the
    solenoidal part of v within the 2/3 band."""
    if eta is None:
        eta = v.eta
    _check_closure(closure, eta)
    u_hat, _ = _transform_state(v, None, None)
    return v.with_values(_irfft(v.grid, _rhs_hat(v.grid, u_hat, closure, eta, None)))


def psi_rhs(psi_v: Field, v: Field, e_v: Field | None = None) -> Field:
    """Defect transport: -(v . grad) psi - (psi . grad) v - grad(psi_p) + e.

    The transport is computed as -div(v psi + psi v) of the solenoidal
    parts of v and psi within the 2/3 band, where it equals the advective
    form (see ``_rhs_hat``).  The pressure-defect gradient is realized by
    Leray projection, which removes exactly the gradient part the
    transport terms generate.
    """
    u_hat, e_hat = _transform_state(v, psi_v, e_v)
    k = _rhs_hat(v.grid, u_hat, "none", v.eta, e_hat)
    return psi_v.with_values(_irfft(v.grid, k[v.grid.n :]))


def _rk4(u0: np.ndarray, dt: float, rhs) -> np.ndarray:
    """One classical RK4 step of du/dt = rhs(u) on a coefficient array.

    The stage and its slope are dropped on return, before the caller's
    inverse transform.
    """
    total = u0.copy()
    stage = u0
    for weight, h in ((1.0, dt / 2), (2.0, dt / 2), (2.0, dt), (1.0, None)):
        k = rhs(stage)
        total += (weight * dt / 6.0) * k
        if h is not None:
            stage = u0 + h * k
    return total


def step_rk4(
    state: EvolutionState,
    dt: float,
    closure: str = "none",
    e_v: Field | None = None,
) -> EvolutionState:
    """One classical RK4 step of the coupled (v, psi) system.

    The stages run on the half-spectrum coefficients of the stacked
    (v, psi) state, with psi on the same stages as v.  The state enters
    Leray-projected and cut to the 2/3 band, the forcing is cut to the
    band and every slope is projected and masked, so the update keeps
    velocity and defect divergence-free and band-limited.  Finite values
    are checked once, on the result.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    v, psi = state.v, state.psi_v
    grid, eta = v.grid, v.eta
    _check_closure(closure, eta)
    u0, e_hat = _transform_state(v, psi, e_v)
    if e_hat is not None:
        e_hat *= grid.rdealias_mask
    total = _rk4(u0, dt, lambda stage: _rhs_hat(grid, stage, closure, eta, e_hat))
    values = _irfft(grid, total)
    t_new = state.t + dt
    step = state.step_count + 1
    v_new = _checked_field(grid, values[: grid.n], "v", step, t_new, eta)
    psi_new = None
    if psi is not None:
        psi_new = _checked_field(grid, values[grid.n :], "psi", step, t_new, psi.eta)
    return EvolutionState(t=t_new, v=v_new, psi_v=psi_new, step_count=step)


_IC_DEFAULTS = {
    "taylor_green": {"amplitude": 1.0},
    "random_solenoidal": {"kmax": 4, "amplitude": 1.0},
    "single_mode": {"k": (1, 2), "amplitude": 1.0},
    "zero": {},
}


_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               bool: "a boolean", dict: "an object"}


def _is_kind(value, kind: type) -> bool:
    """isinstance for config values: a bool is no number, a float is finite."""
    if kind not in (int, float):
        return isinstance(value, kind)
    number = numbers.Integral if kind is int else numbers.Real
    return (
        isinstance(value, number)
        and not isinstance(value, bool)
        and (kind is int or abs(value) <= sys.float_info.max)
    )


_KINDS = {kind.__name__: kind for kind in _KIND_NAMES}
# RunConfig fields that the config file spells differently
_CONFIG_KEYS = {
    "psi_enabled": "psi.enabled",
    "psi_initial": "psi.initial_condition",
    "psi_forcing": "psi.forcing",
}


def _require(key: str, value, kind: type):
    if not _is_kind(value, kind):
        raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")


def _build_ic(spec: dict, grid: Grid, rng: np.random.Generator, what: str, eta: float) -> Field:
    """The Leray-projected initial field of one spec, at t = 0 and scale eta.

    Each parameter must have the type of its default; errors name the key.
    """
    spec = dict(spec)
    name = spec.pop("name", None)
    if not isinstance(name, str) or name not in _IC_DEFAULTS:
        raise ConfigError(
            f"{what}.name must be one of {sorted(_IC_DEFAULTS)}, got {name!r}"
        )
    params = dict(_IC_DEFAULTS[name])
    for key, value in spec.items():
        if key not in params:
            raise ConfigError(f"unknown key {what}.{key}")
        if key != "k":
            _require(f"{what}.{key}", value, type(params[key]))
        elif not (
            isinstance(value, (list, tuple))
            and len(value) == 2
            and any(value)
            and all(_is_kind(c, int) and abs(c) <= grid.size // 2 for c in value)
        ):
            raise ConfigError(
                f"{what}.k must be a nonzero pair of integers in "
                f"[-{grid.size // 2}, {grid.size // 2}], got {value!r}"
            )
        params[key] = value
    if params.get("kmax", 1) < 1:
        raise ConfigError(f"{what}.kmax must be >= 1, got {params['kmax']}")
    try:
        with np.errstate(over="raise", invalid="raise"):
            if name == "taylor_green":
                f = families.taylor_green(grid, **params)
            elif name == "random_solenoidal":
                f = families.random_solenoidal(grid, rng, **params)
            elif name == "single_mode":
                f = families.single_mode_solenoidal(grid, **params)
            else:
                f = Field(grid, np.zeros((grid.n,) + grid.shape))
            f = leray_project(f)
    except (FloatingPointError, NonFiniteFieldError) as err:
        raise ConfigError(
            f"{what}.amplitude={params['amplitude']!r} makes the field non-finite"
        ) from err
    except ValueError as err:
        raise ConfigError(f"{what}.name={name!r} does not fit this grid: {err}") from err
    return f.with_values(t=0.0, eta=eta)


@dataclass(frozen=True)
class RunConfig:
    """Validated description of one run or experiment.

    ``eta`` can be given directly or through beta * delta^2 at parse
    time.  ``epsilon``/``eta0``/``nodes`` configure the scale windows
    of the check experiments.
    """

    n: int = 2
    grid_size: int = 64
    core: str = "fluid"
    eta: float = 0.05
    dt: float | None = None
    t_end: float = 0.1
    closure: str = "helmholtz"
    initial_condition: dict = _dc_field(
        default_factory=lambda: {"name": "taylor_green"}
    )
    psi_enabled: bool = False
    psi_initial: dict = _dc_field(default_factory=lambda: {"name": "zero"})
    psi_forcing: dict = _dc_field(default_factory=lambda: {"name": "zero"})
    epsilon: float = 0.05
    eta0: float = 0.15
    nodes: tuple[int, ...] = (9, 17, 33)
    output_interval: int = 10
    seed: int = 0

    def __post_init__(self):
        # each scalar field's annotation (text, by the __future__ import) is its type
        for f in fields(self):
            kind, value = _KINDS.get(f.type.removesuffix(" | None")), getattr(self, f.name)
            if kind is not None and not (value is None and f.type.endswith("| None")):
                _require(_CONFIG_KEYS.get(f.name, f.name), value, kind)
        if self.n not in (1, 2):
            raise ConfigError(f"n must be 1 or 2, got {self.n}")
        if self.grid_size < 4 or self.grid_size % 2:
            raise ConfigError(f"grid_size must be even and >= 4, got {self.grid_size}")
        if self.core not in ("fluid", "burgers"):
            raise ConfigError(f"core must be 'fluid' or 'burgers', got {self.core!r}")
        if not 0.0 < self.eta <= 1.0:
            raise ConfigError(f"eta must lie in (0, 1], got {self.eta}")
        if self.dt is not None and not self.dt > 0.0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not self.t_end > 0.0:
            raise ConfigError(f"t_end must be positive, got {self.t_end}")
        if self.closure not in ("none", "helmholtz"):
            raise ConfigError(
                f"closure must be 'none' or 'helmholtz', got {self.closure!r}"
            )
        if not 0.0 < self.epsilon < self.eta0 <= 1.0:
            raise ConfigError(
                f"need 0 < epsilon < eta0 <= 1, got epsilon={self.epsilon}, "
                f"eta0={self.eta0}"
            )
        if not isinstance(self.nodes, (list, tuple)) or not all(
            _is_kind(k, int) for k in self.nodes
        ):
            raise ConfigError(f"nodes must be a list of integers, got {self.nodes!r}")
        nodes = tuple(int(k) for k in self.nodes)
        object.__setattr__(self, "nodes", nodes)
        if any(k < 5 for k in nodes):
            raise ConfigError(f"nodes must all be >= 5, got {nodes}")
        # a convergence order compares each ladder with the next, finer one
        if len(nodes) < 2 or any(fine <= coarse for coarse, fine in zip(nodes, nodes[1:])):
            raise ConfigError(
                f"nodes must hold at least two strictly increasing counts, got {nodes}"
            )
        if self.output_interval < 1:
            raise ConfigError(f"output_interval must be >= 1, got {self.output_interval}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def grid(self) -> Grid:
        return make_grid(self.n, self.grid_size)

    def resolved_dt(self, v0: Field) -> float:
        limit = cfl_limit(v0)
        if self.dt is None:
            if not math.isfinite(limit):
                return self.t_end / max(1, round(self.t_end / 0.01))
            n_steps = max(1, math.ceil(self.t_end / (0.8 * limit) - 1e-12))
            return self.t_end / n_steps
        n_steps = round(self.t_end / self.dt)
        if n_steps < 1 or abs(n_steps * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ConfigError(
                f"t_end={self.t_end} is not an integer number of dt={self.dt} steps"
            )
        return self.dt


def build_initial_state(config: RunConfig) -> EvolutionState:
    """Construct the configured initial (v, psi) slice at t = 0."""
    if config.core != "fluid":
        raise ConfigError("slice evolution supports the fluid core only")
    grid = config.grid()
    rng = config.rng()
    v0 = _build_ic(config.initial_condition, grid, rng, "initial_condition", config.eta)
    psi0 = None
    if config.psi_enabled:
        psi0 = _build_ic(config.psi_initial, grid, rng, "psi.initial_condition", config.eta)
    return EvolutionState(t=0.0, v=v0, psi_v=psi0)


# the keys each psi forcing takes besides its name
_FORCING_KEYS = {"zero": set(), "checkpoint": {"path"}}


def _forcing_path(config: RunConfig) -> str | None:
    """The checkpoint path of the checked psi.forcing spec; None for zero."""
    spec = dict(config.psi_forcing)
    name = spec.pop("name", None)
    if not isinstance(name, str) or name not in _FORCING_KEYS:
        raise ConfigError(
            f"psi.forcing.name must be {' or '.join(map(repr, _FORCING_KEYS))}, got {name!r}"
        )
    unknown = set(spec) - _FORCING_KEYS[name]
    if unknown:
        raise ConfigError(f"unknown keys in psi.forcing: {sorted(unknown)}")
    if name == "zero":
        return None
    path = spec.get("path")
    if not path or not isinstance(path, str):
        raise ConfigError(
            f"psi.forcing.path must name the checkpoint file, got {path!r}"
        )
    return path


def resolve_forcing(config: RunConfig, grid: Grid) -> Field | None:
    """Materialize the psi forcing field e_v, if any."""
    path = _forcing_path(config)
    if path is None:
        return None
    f, _ = read_checkpoint(path)
    if f.grid != grid or f.ncomp != grid.n:
        raise ConfigError(
            "psi.forcing checkpoint does not match the run grid"
        )
    return f


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One diagnostics row of a run."""

    step: int
    t: float
    energy: float
    max_div_v: float
    r_l2: float
    r_max: float
    psi_l2: float
    psi_max: float
    psi_sup: float
    deviation_bound: float

    def row(self) -> tuple:
        return astuple(self)


DIAGNOSTIC_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))


def kinetic_energy(v: Field) -> float:
    measure = TWO_PI ** v.grid.n
    return 0.5 * float(np.mean(np.sum(v.values**2, axis=0))) * measure


def _diagnose(state: EvolutionState, closure: str, psi_sup: float) -> DiagnosticsRecord:
    """One diagnostics row; v is transformed once.

    Without the closure div v is one inverse transform of sum_a ik_a v_a;
    with it the velocity gradients, which sigma needs, give div v too.
    """
    v = state.v
    grid = v.grid
    if closure == "helmholtz":
        dv = _gradient_values(v)
        div = np.trace(dv)
        s_hat = _source_hat(grid, _dealiased_hat(grid, _stress(dv)))
        r_l2, r_max = field_norms(Field(grid, _irfft(grid, _closure_hat(grid, s_hat, v.eta))))
    else:
        v_hat = _rfft(grid, v.values)
        div = _irfft(grid, sum(d * c for d, c in zip(grid.rderivatives, v_hat)))
        r_l2, r_max = 0.0, 0.0
    div_max = float(np.max(np.abs(div)))
    if state.psi_v is not None:
        psi_l2, psi_max = field_norms(state.psi_v)
    else:
        psi_l2, psi_max = 0.0, 0.0
    return DiagnosticsRecord(
        step=state.step_count,
        t=state.t,
        energy=kinetic_energy(v),
        max_div_v=div_max,
        r_l2=r_l2,
        r_max=r_max,
        psi_l2=psi_l2,
        psi_max=psi_max,
        psi_sup=psi_sup,
        deviation_bound=state.eta * psi_sup,
    )


@dataclass
class SimulationResult:
    config: RunConfig
    records: list[DiagnosticsRecord]
    final: EvolutionState


def run_simulation(
    config: RunConfig, initial: EvolutionState | None = None
) -> SimulationResult:
    """Integrate a configured run and collect diagnostics.

    The running sup of |psi| feeds the deviation bound column
    eta * sup |psi|.  Raises SimulationDiverged (with partial records
    attached) when values stop being finite.
    """
    if initial is None:
        initial = build_initial_state(config)
    state = initial
    dt = config.resolved_dt(state.v)
    limit = cfl_limit(state.v)
    if dt > limit * (1.0 + 1e-12):
        raise ConfigError(
            f"dt={dt:.6g} violates the CFL limit {limit:.6g} for this initial state"
        )
    n_steps = max(1, round(config.t_end / dt))
    # the spec is always checked, but the forcing only enters with psi,
    # so without psi its checkpoint is not read
    _forcing_path(config)
    e_v, psi_sup = None, 0.0
    if state.psi_v is not None:
        e_v = resolve_forcing(config, state.v.grid)
        psi_sup = field_norms(state.psi_v)[1]
    records = [_diagnose(state, config.closure, psi_sup)]
    try:
        for _ in range(n_steps):
            state = step_rk4(state, dt, closure=config.closure, e_v=e_v)
            if state.psi_v is not None:
                psi_sup = max(psi_sup, field_norms(state.psi_v)[1])
            if state.step_count % config.output_interval == 0 or state.step_count == n_steps:
                records.append(_diagnose(state, config.closure, psi_sup))
    except SimulationDiverged as err:
        raise SimulationDiverged(str(err), records=records) from err
    return SimulationResult(config=config, records=records, final=state)


def _burgers_hat(grid: Grid, u_hat: np.ndarray) -> np.ndarray:
    """Half-spectrum -(u u_x) of one component, the product 2/3-rule masked.

    One inverse transform gives u and u_x, one forward transform the
    product.
    """
    u, u_x = _irfft(grid, _with_gradients(grid, u_hat))
    return -_dealiased_hat(grid, (u * u_x)[np.newaxis])


def _burgers_rhs(u: Field) -> Field:
    grid = u.grid
    return u.with_values(_irfft(grid, _burgers_hat(grid, _rfft(grid, u.values))))


@dataclass
class BurgersReference:
    """Fine-grid inviscid Burgers trajectory with coarse slice access."""

    coarse: Grid
    fine: Grid
    times: list[float]
    snapshots: list[Field]

    def coarse_slice(self, i: int) -> tuple[Field, Field]:
        """(u, u_t) restricted to the coarse grid and dealiased there.

        u_t restricts the fine-grid right-hand side, which is the exact
        time derivative of the restricted trajectory.
        """
        snap = self.snapshots[i]
        u = dealiased(restrict_to_grid(snap, self.coarse))
        u_t = dealiased(restrict_to_grid(_burgers_rhs(snap), self.coarse))
        return u, u_t.with_values(t=u.t)


def reference_burgers(
    coarse: Grid, t_end: float, snapshot_times: list[float] | None = None
) -> BurgersReference:
    """Solve inviscid Burgers from u0 = sin x on a 4x refined grid.

    RK4 steps of a quarter of the fine spacing.  Valid strictly before
    shock formation at t = 1.
    """
    if coarse.n != 1:
        raise ValueError("the reference problem is one dimensional")
    if not 0.0 <= t_end < 1.0:
        raise ValueError(
            f"t_end must lie in [0, 1) before the first shock, got {t_end}"
        )
    fine = make_grid(1, 4 * coarse.size)
    dt = 0.25 * fine.spacing
    wanted = sorted(set(snapshot_times or []) | {t_end})
    for tw in wanted:
        if not 0.0 <= tw <= t_end:
            raise ValueError(f"snapshot time {tw} outside [0, {t_end}]")
    u = Field(fine, np.sin(fine.coords()[0])[np.newaxis], t=0.0)
    times, snapshots = [], []
    if wanted and wanted[0] == 0.0:
        times.append(0.0)
        snapshots.append(u)
        wanted = wanted[1:]
    u_hat = _rfft(fine, u.values)

    def rhs(stage):
        return _burgers_hat(fine, stage)

    t = 0.0
    for target in wanted:
        n_steps = max(1, round((target - t) / dt))
        h = (target - t) / n_steps
        for step in range(1, n_steps + 1):
            u_hat = _rk4(u_hat, h, rhs)
            if not np.all(np.isfinite(u_hat)):
                raise SimulationDiverged(
                    f"non-finite values in the Burgers reference at t={t + step * h:.6g}"
                )
        t = target
        times.append(target)
        snapshots.append(Field(fine, _irfft(fine, u_hat), t=target))
    return BurgersReference(coarse=coarse, fine=fine, times=times, snapshots=snapshots)


CHECKPOINT_MAGIC = b"SCALEPDE"
CHECKPOINT_VERSION = 1


def write_checkpoint(path, f: Field, extra: dict | None = None):
    """Binary snapshot: magic, JSON header line, raw little-endian values."""
    header = {
        "version": CHECKPOINT_VERSION,
        "n": f.grid.n,
        "size": f.grid.size,
        "components": f.ncomp,
        "t": f.t,
        "eta": f.eta,
    }
    if extra:
        header.update(extra)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def read_checkpoint(path) -> tuple[Field, dict]:
    """Read a checkpoint back into a Field plus its header dict.

    A file without the magic is not a checkpoint (ValueError); a
    checkpoint with an unreadable or unsupported header, too few data
    bytes or non-finite values raises OSError naming the path.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path} is not a checkpoint file")
        try:
            header = json.loads(fh.readline().decode())
            version = header.get("version")
            grid = make_grid(header["n"], header["size"])
            ncomp, t, eta = int(header["components"]), header["t"], header["eta"]
        except (ValueError, KeyError, TypeError, AttributeError) as err:
            raise OSError(f"{path}: unreadable checkpoint header ({err!r})") from err
        if version != CHECKPOINT_VERSION:
            raise OSError(
                f"{path}: checkpoint version {version!r} is not supported "
                f"(expected {CHECKPOINT_VERSION})"
            )
        nbytes = ncomp * grid.num_points * 8
        raw = fh.read(nbytes)
    if len(raw) != nbytes:
        raise OSError(
            f"{path}: truncated checkpoint, {len(raw)} of {nbytes} data bytes"
        )
    values = np.frombuffer(raw, dtype="<f8").reshape((ncomp,) + grid.shape)
    try:
        return Field(grid, values, t=t, eta=eta), header
    except NonFiniteFieldError as err:
        raise OSError(f"{path}: checkpoint holds non-finite values") from err
