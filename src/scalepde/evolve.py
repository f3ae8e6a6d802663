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
import os
import sys
from dataclasses import dataclass, field as _dc_field, fields

import numpy as np

from . import families
from .fluid import _leray_hat, _tensor_pairs
from .grid import (
    TWO_PI,
    Field,
    Grid,
    NonFiniteFieldError,
    _band_irfft,
    _band_rfft,
    _finite,
    _irfft,
    _peak,
    _rfft,
    _value_norms,
    field_norms,
    make_grid,
)
from .residual import _CLOSURES, _closure_multiplier

# the longest run a config may ask for
_MAX_STEPS = 10**6
# the finest grid a config may ask for; a grid builds its tables whole
_MAX_GRID_SIZE = 2048
# the Burgers reference's fine grid has this many times the coarse points
BURGERS_REFINEMENT = 4


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
    # the run's stage buffers, which steps and records of this state reuse
    _ws: _Stages | None = _dc_field(default=None, compare=False, repr=False)

    @property
    def eta(self) -> float:
        return self.v.eta


def cfl_limit(v: Field) -> float:
    """Largest admissible dt: half a cell crossing at the peak speed."""
    vmax = float(_peak(v.values))
    return 0.5 * v.grid.spacing / vmax if vmax != 0.0 else math.inf


def _cfl_number(v: Field, dt: float) -> float:
    """dt max|v| / h: the cells the fastest point crosses in one step."""
    return float(dt * _peak(v.values) / v.grid.spacing)


class _Stages:
    """Buffers and multipliers of the RK4 stages of one run: one 2-D grid,
    v or (v, psi), closure, eta and psi forcing, used by every stage, step
    and diagnostics record of the states that carry it.  A 1-D grid is
    refused (ValueError): a solenoidal field there is a constant, so a
    1-D run could only evolve v = 0.  So are an unknown closure and the
    helmholtz closure at eta = 0, whose multiplier needs 1/eta.

    Transport is -P div T for symmetric tensors T: v v and v psi + psi v.
    P removes div(T^{11} I), a gradient, so only T - T^{11} I is
    transformed, without its (1, 1) row: A = T^{00} - T^{11} and
    B = T^{01}, and -P div T = c (-d_1, d_0) with
    c = (k_0 k_1 A + (k_1^2 - k_0^2) B) / |k|^2.  The helmholtz closure adds
    2 q sigma to v v, q = 1 / (|k|^2 + 1/eta); as 2 sigma = lap(v v) -
    v lap v - lap v v and 1 - q |k|^2 = q / eta, the sum is q / eta times
    the symmetric part of v w, w = v - 2 eta lap v.

    The state, every slope and the forcing lie in the 2/3 band, so every
    coefficient buffer and multiplier is band width: the first
    ``grid.band`` columns of the half spectrum (k_last < N/3), and the
    transforms are ``_band_rfft``/``_band_irfft``.  Each multiplier is a
    C-contiguous table of that whole shape, so no multiply broadcasts it,
    and -d_1 is one of its own, so the slope negates nothing.  The forcing
    is cut to the band and projected once, by ``force``.  ``total`` keeps the
    coefficients of the last step's result, or of the run's initial state,
    and ``_last`` their Fields (``keep``; no Field refers back), so a step
    or record of those Fields transforms nothing on entry; the first stage
    of such a step takes their values, the inverse of those coefficients
    bit for bit, and inverts only helmholtz's rows of 2 eta lap v.
    """

    def __init__(self, grid: Grid, psi: bool, closure: str, eta: float, e_v: Field | None = None):
        if grid.n != 2:
            raise ValueError(f"slice evolution needs n = 2, got n={grid.n}")
        if closure not in _CLOSURES:
            raise ValueError(f"unknown closure {closure!r}")
        if closure == "helmholtz" and not eta > 0.0:
            raise ValueError("the helmholtz closure needs eta > 0")
        n, helmholtz = grid.n, closure == "helmholtz"
        m = self.m = n * (1 + psi)
        self.key = (grid, psi, closure, eta)
        tensors = 1 + psi
        self.grid, self.lap = grid, None  # the table of 2 eta lap, if the stages take it
        rows = m + n * helmholtz
        band = (Ellipsis, slice(grid.band))  # views of the grid's tables
        bshape = grid.rshape[:-1] + (grid.band,)
        # full tables, so a multiply allocates no buffer to broadcast them
        self.d = tuple(np.broadcast_to(d[band], bshape).copy() for d in grid.rderivatives)
        self.leray, self.mask = grid.rleray[band], grid.rdealias_mask[band]
        self.u0, self.total = (np.empty((m,) + bshape, complex) for _ in range(2))
        # the product coefficients reuse the stage rows, the slope the physical rows
        self.spec = np.empty((rows,) + bshape, complex)
        # psi's stacked stage values and a helmholtz record's sigma are products too
        sigma = len(_tensor_pairs(n)) * helmholtz
        self.prod = np.empty((max(2 * tensors, sigma, m * psi),) + grid.shape)
        # the forward transforms' half spectrum reuses the physical rows too
        half_rows = max(len(self.prod), m)
        k_size, half_size = 2 * m * math.prod(bshape), 2 * half_rows * math.prod(grid.rshape)
        shared = np.empty(max(rows * grid.num_points, k_size, half_size))
        self.phys = shared[: rows * grid.num_points].reshape((rows,) + grid.shape)
        self.k = shared[:k_size].view(complex).reshape((m,) + bshape)
        self.half = shared[:half_size].view(complex).reshape((half_rows,) + grid.rshape)
        self.weights = np.empty((tensors, 2) + bshape)
        if helmholtz:  # twice the closure multiplier, within the band
            self.q2 = 2.0 * self.mask * _closure_multiplier(grid, eta)[band]
        self.minus_d1 = np.negative(self.d[1])  # the velocity slope is c (-d_1, d_0)
        k0, k1 = (np.imag(d) for d in self.d)
        ksq = grid.rksq[band]
        scale = self.mask / np.where(ksq > 0.0, ksq, 1.0)
        self.weights[:] = (k0 * k1 * scale, (k1**2 - k0**2) * scale)
        if psi:  # psi's row A holds (T^{00} - T^{11}) / 2
            self.weights[1, 0] *= 2.0
        if helmholtz:  # v's rows are filtered by q / eta, and its row B holds 2 T^{01}
            self.lap = -2.0 * eta * ksq
            self.weights[0] *= self.q2 / (2.0 * eta)
            self.weights[0, 1] *= 0.5
        self.force(e_v)
        self._last = (None, None)
        self._values = None

    def force(self, e_v: Field | None):
        """Take e_v as the psi forcing: ``e_hat``, cut to the band and projected
        once.  Coefficients that overflow raise NonFiniteFieldError."""
        self.e_v, self.e_hat = e_v, None
        if e_v is not None and self.m > self.grid.n:
            with np.errstate(over="ignore", invalid="ignore"):
                e_hat = _band_rfft(self.grid, e_v.values) * self.mask
                self.e_hat = _leray_hat(self.leray, e_hat, scratch=self.spec[0])
            if not np.isfinite(self.e_hat).all():
                raise NonFiniteFieldError("psi forcing overflows when transformed")

    def holds(self, v: Field, psi_v: Field | None) -> bool:
        """Whether ``total`` holds the coefficients of (v, psi_v): whether
        they are the Fields the last step returned."""
        return self._last[0] is v and self._last[1] is psi_v

    def load(self, v: Field, psi_v: Field | None):
        """u0: the (v, psi) coefficients cut to the 2/3 band and projected.
        Those of the kept Fields are ``total`` already, which becomes u0,
        and their values, u0's inverse bit for bit, serve the first slope."""
        if self.holds(v, psi_v):
            self.u0, self.total = self.total, self.u0
            self._values = tuple(f.values for f in (v, psi_v) if f is not None)
        else:
            self._values, m = None, self.m
            values = v.values if psi_v is None else np.concatenate(
                [v.values, psi_v.values], out=self.prod[:m]
            )
            w = _band_rfft(self.grid, values, out=self.total, scratch=self.half[:m])
            w *= self.mask
            _leray_hat(self.leray, w, out=self.u0, scratch=self.spec[0])
        self._last = (None, None)

    def keep(self, t: float, etas: tuple[float, ...], failure) -> tuple[Field, Field | None]:
        """The Fields (v, psi) at time t and scales ``etas`` of ``total``,
        its inverse bit for bit, kept as the last Fields.  Non-finite
        values of field i, 0 for v and 1 for psi, raise ``failure(i)``."""
        grid, n, m = self.grid, self.grid.n, self.m
        np.copyto(self.spec[:m], self.total)  # the inverse overwrites its input; total stays
        values = _band_irfft(grid, self.spec[:m], out=self.phys[:m])
        kept = [None, None]
        for i, eta in enumerate(etas):
            try:
                kept[i] = Field(grid, values[i * n : (i + 1) * n], t=t, eta=eta)
            except NonFiniteFieldError as err:
                raise failure(i) from err
        self._last = tuple(kept)
        return self._last

    def slope(self) -> np.ndarray:
        """The projected right-hand side at the stage in ``spec[:m]``; the
        other buffers are overwritten.  The first slope after ``load`` of a
        step result copies the state's values instead of transforming u0."""
        grid, m, n, tensors = self.grid, self.m, self.grid.n, len(self.weights)
        spec, phys, prod, k, lap = self.spec, self.phys, self.prod, self.k, self.lap
        values, self._values = self._values, None
        if lap is not None:  # 2 eta lap v
            np.multiply(spec[:n], lap, out=spec[m:])
        if values is None:
            _band_irfft(grid, spec, out=phys)
        else:
            np.concatenate(values, out=phys[:m])
            if lap is not None:
                _band_irfft(grid, spec[m:], out=phys[m:])
        v0, v1 = phys[0], phys[1]
        a, b = prod[0], prod[1]
        if lap is None:
            np.multiply(np.add(v0, v1, out=a), np.subtract(v0, v1, out=b), out=a)
            np.multiply(v0, v1, out=b)
        else:  # A and 2 B of the symmetric part of v w, w = v - 2 eta lap v
            w0, w1 = np.subtract(phys[:n], phys[m:], out=phys[m:])
            np.subtract(np.multiply(v0, w0, out=a), np.multiply(v1, w1, out=b), out=a)
            np.add(np.multiply(v0, w1, out=b), np.multiply(v1, w0, out=w0), out=b)
        if m > n:
            p0, p1, a, b = phys[2], phys[3], prod[2], prod[3]
            np.subtract(np.multiply(v0, p0, out=a), np.multiply(v1, p1, out=b), out=a)
            np.add(np.multiply(v0, p1, out=b), np.multiply(p0, v1, out=p0), out=b)
        rows = 2 * tensors
        t = _band_rfft(grid, prod[:rows], out=spec[:rows], scratch=self.half[:rows])
        t = t.reshape(self.weights.shape)
        t *= self.weights
        c = np.add(t[:, 0], t[:, 1], out=t[:, 0])
        fields = k.reshape((tensors, n) + k.shape[1:])
        np.multiply(c, self.minus_d1, out=fields[:, 0])
        np.multiply(c, self.d[0], out=fields[:, 1])
        if self.e_hat is not None:
            k[n:] += self.e_hat
        return k


def _rhs(
    v: Field, psi_v: Field | None, closure: str, eta: float, e_v: Field | None = None
) -> np.ndarray:
    """The band coefficients of the slope a step integrates at the (v, psi)
    stack, formed in a workspace of their own."""
    ws = _Stages(v.grid, psi_v is not None, closure, eta, e_v)
    ws.load(v, psi_v)
    np.copyto(ws.spec[: ws.m], ws.u0)
    return ws.slope()


def macroscopic_rhs(v: Field, closure: str = "none") -> Field:
    """Projected right-hand side P(-(v . grad) v + r_closure) of the
    solenoidal part of v within the 2/3 band, at v's eta."""
    return v.with_values(_band_irfft(v.grid, _rhs(v, None, closure, v.eta)))


def psi_rhs(psi_v: Field, v: Field, e_v: Field | None = None) -> Field:
    """Defect transport: -(v . grad) psi - (psi . grad) v - grad(psi_p) + e.

    This is the psi slope ``step_rk4`` integrates: the transport is
    computed as -P div(v psi + psi v) of the solenoidal parts of v and psi
    within the 2/3 band, where it equals the advective form.  The
    pressure-defect gradient is realized by Leray projection, which
    removes exactly the gradient part the transport terms generate.  The
    forcing is cut to the band and projected, as in a step.
    """
    grid = v.grid
    return psi_v.with_values(_band_irfft(grid, _rhs(v, psi_v, "none", v.eta, e_v)[grid.n :]))


def _rk4(u0: np.ndarray, total: np.ndarray, stage: np.ndarray, dt: float, slope) -> None:
    """One classical RK4 step of du/dt = f(u) in place: ``total`` gets u(t + dt).

    ``slope()`` returns f at the values in ``stage`` in a buffer of its
    own, which is scaled in place.
    """
    np.copyto(total, u0)
    np.copyto(stage, u0)
    for weight, h in ((1.0, dt / 2), (2.0, dt / 2), (2.0, dt), (1.0, None)):
        k = slope()
        if h is not None:
            np.multiply(k, h, out=stage)
            stage += u0
        k *= weight * dt / 6.0
        total += k


def step_rk4(
    state: EvolutionState,
    dt: float,
    closure: str = "none",
    e_v: Field | None = None,
) -> EvolutionState:
    """One classical RK4 step of the coupled (v, psi) system.

    The stages run on the half-spectrum coefficients of the stacked
    (v, psi) state, with psi on the same stages as v.  Transport is taken
    in flux form, -P div(v v) and -P div(v psi + psi v), which equals the
    advective form -(v . grad) v and -(v . grad) psi - (psi . grad) v when
    v and psi are solenoidal and band-limited to the 2/3 cutoff.  So the
    state enters Leray-projected and cut to the band, the forcing is cut
    to the band, and every slope is projected and masked.  Finite values
    are checked once, on the result.  The step runs in the state's
    workspace if that has its grid, psi presence, closure, eta and forcing
    Field, in a new one otherwise, and its result carries the workspace.
    From the workspace's last Fields (a step result or the run's initial
    state) it starts from their coefficients, with no transform.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    v, psi = state.v, state.psi_v
    grid, eta = v.grid, v.eta
    key, ws = (grid, psi is not None, closure, eta), state._ws
    if ws is None or ws.key != key or ws.e_v is not e_v:
        ws = _Stages(*key, e_v)
    ws.load(v, psi)
    _rk4(ws.u0, ws.total, ws.spec[: ws.m], dt, ws.slope)
    t_new, step = state.t + dt, state.step_count + 1
    etas = (eta,) if psi is None else (eta, psi.eta)
    errors = [f"non-finite values in {name} at step {step}, t={t_new:.6g}" for name in ("v", "psi")]
    v_new, psi_new = ws.keep(t_new, etas, lambda i: SimulationDiverged(errors[i]))
    return EvolutionState(t=t_new, v=v_new, psi_v=psi_new, step_count=step, _ws=ws)


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


def _check_spec(spec: dict, table: dict, what: str, grid_size: int):
    """Check a spec object against its table of names and the parameters
    each takes, with their defaults: every parameter must have the type of
    its default.  Errors name the key."""
    name = spec.get("name")
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"{what}.name must be one of {sorted(table)}, got {name!r}")
    params = {"name": "", **table[name]}
    for key, value in spec.items():
        if key not in params:
            raise ConfigError(f"unknown key {what}.{key}")
        if key != "k":
            _require(f"{what}.{key}", value, type(params[key]))
        elif not (
            isinstance(value, (list, tuple))
            and len(value) == 2
            and any(value)
            and all(_is_kind(c, int) and abs(c) <= grid_size // 2 for c in value)
        ):
            raise ConfigError(
                f"{what}.k must be a nonzero pair of integers in "
                f"[-{grid_size // 2}, {grid_size // 2}], got {value!r}"
            )
    if spec.get("kmax", 1) < 1:
        raise ConfigError(f"{what}.kmax must be >= 1, got {spec['kmax']}")
    if "path" in params and not spec.get("path"):
        raise ConfigError(f"{what}.path must name the checkpoint file, got {spec.get('path')!r}")


def _amplitude_error(what: str, spec: dict) -> ConfigError:
    amplitude = dict(_IC_DEFAULTS[spec["name"]], **spec).get("amplitude")
    return ConfigError(f"{what}.amplitude={amplitude!r} makes the field non-finite")


def _build_ic(spec: dict, grid: Grid, rng: np.random.Generator, what: str) -> Field:
    """The initial field of a checked spec, as its family builds it.

    Every family is solenoidal (``random_solenoidal`` is projected where
    it is built); ``build_initial_state`` cuts it to the 2/3 band.  The
    one error left needs the field: a non-finite amplitude (the caller
    ignores overflow, which leaves non-finite values).
    """
    params = dict(_IC_DEFAULTS[spec["name"]], **spec)
    name = params.pop("name")
    try:
        if name == "taylor_green":
            return families.taylor_green(grid, **params)
        if name == "random_solenoidal":
            return families.random_solenoidal(grid, rng, **params)
        if name == "single_mode":
            return families.single_mode_solenoidal(grid, **params)
        return Field(grid, np.zeros((grid.n,) + grid.shape))
    except NonFiniteFieldError as err:
        raise _amplitude_error(what, spec) from err


# each spec field's table: its names and the parameters each takes, with defaults
_SPECS = {
    "initial_condition": _IC_DEFAULTS,
    "psi_initial": _IC_DEFAULTS,
    "psi_forcing": {"zero": {}, "checkpoint": {"path": ""}},
}


@dataclass(frozen=True)
class RunConfig:
    """Validated description of one run or experiment.

    ``eta`` can be given directly or through beta * delta^2 at parse
    time.  ``epsilon``/``eta0``/``nodes`` configure the scale windows
    of the check experiments.  Every field, spec objects included, is
    checked here for every command, whether or not a command reads it.
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
        if not 4 <= self.grid_size <= _MAX_GRID_SIZE or self.grid_size % 2:
            raise ConfigError(
                f"grid_size must be even and in [4, {_MAX_GRID_SIZE}], got {self.grid_size}"
            )
        if self.core not in ("fluid", "burgers"):
            raise ConfigError(f"core must be 'fluid' or 'burgers', got {self.core!r}")
        if self.core == "burgers" and self.n != 1:
            raise ConfigError(f"core='burgers' needs n = 1, got n={self.n}")
        if not 0.0 < self.eta <= 1.0:
            raise ConfigError(f"eta must lie in (0, 1], got {self.eta}")
        if self.dt is not None and not self.dt > 0.0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not self.t_end > 0.0:
            raise ConfigError(f"t_end must be positive, got {self.t_end}")
        if self.closure not in _CLOSURES:
            raise ConfigError(
                f"closure must be {' or '.join(map(repr, _CLOSURES))}, got {self.closure!r}"
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
        # the finest ladder (closure-check's has 33 nodes) keeps its spacing over rounding
        finest = max(nodes[-1], 33)
        spacing = (self.eta0 - self.epsilon) / (finest - 1)
        if spacing < 1e-3 * self.eta0:
            raise ConfigError(
                f"epsilon={self.epsilon} and eta0={self.eta0} are too close for a ladder "
                f"of K={finest} nodes (max of nodes and 33): its spacing (eta0 - epsilon)/"
                f"(K - 1) = {spacing:.4g} is below 1e-3 * eta0 = {1e-3 * self.eta0:.4g}"
            )
        if self.output_interval < 1:
            raise ConfigError(f"output_interval must be >= 1, got {self.output_interval}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name, table in _SPECS.items():
            _check_spec(getattr(self, name), table, _CONFIG_KEYS.get(name, name), self.grid_size)

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def grid(self) -> Grid:
        return make_grid(self.n, self.grid_size)

    def resolved_dt(self, v0: Field) -> float:
        """The step of a run from v0: dt, which must divide t_end and keep
        within the CFL limit, or else the largest step within 0.8 of that
        limit (0.01 for a still field) that divides t_end.  A run of more
        than _MAX_STEPS steps is refused."""
        limit = cfl_limit(v0)
        cfl = self.dt is None and math.isfinite(limit)
        if self.dt is not None:
            dt = self.dt
        else:
            dt = 0.8 * limit if cfl else 0.01
        steps = self.t_end / dt
        if not steps <= _MAX_STEPS:
            source = ", from the CFL limit of initial_condition," if cfl else ""
            raise ConfigError(
                f"dt={dt:.3g}{source} takes {steps:.3g} steps to t_end={self.t_end}; "
                f"at most {_MAX_STEPS} are allowed"
            )
        if self.dt is None:
            return self.t_end / max(1, math.ceil(steps - 1e-12) if cfl else round(steps))
        n_steps = round(steps)
        if n_steps < 1 or abs(n_steps * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ConfigError(
                f"t_end={self.t_end} is not an integer number of dt={self.dt} steps"
            )
        if self.dt > limit * (1.0 + 1e-12):
            raise ConfigError(
                f"dt={self.dt:.6g} violates the CFL limit {limit:.6g} for this initial state"
            )
        return self.dt


def build_initial_state(config: RunConfig) -> EvolutionState:
    """The configured initial (v, psi) slice at t = 0, kept in a new run
    workspace as a step result is: the inverse of the built fields' band
    coefficients, cut and projected once.  An overflow there names its key.
    A 1-D config is refused by the workspace, before any field is built."""
    if config.core != "fluid":
        raise ConfigError("slice evolution supports the fluid core only")
    grid, rng = config.grid(), config.rng()
    ics = [("initial_condition", config.initial_condition),
           ("psi.initial_condition", config.psi_initial)][: 1 + config.psi_enabled]
    ws = _Stages(grid, config.psi_enabled, config.closure, config.eta)
    with np.errstate(over="ignore", invalid="ignore"):  # what overflows is refused as non-finite
        built = [_build_ic(spec, grid, rng, what) for what, spec in ics]
        ws.load(built[0], built[1] if config.psi_enabled else None)
        ws.u0, ws.total = ws.total, ws.u0  # the cut coefficients are the kept ones
        v, psi = ws.keep(0.0, (config.eta,) * len(ics), lambda i: _amplitude_error(*ics[i]))
    return EvolutionState(t=0.0, v=v, psi_v=psi, _ws=ws)


def resolve_forcing(config: RunConfig, grid: Grid) -> Field | None:
    """Read the psi forcing field e_v, if any."""
    if config.psi_forcing["name"] == "zero":
        return None
    f, _ = read_checkpoint(config.psi_forcing["path"])
    if f.grid != grid or f.ncomp != grid.n:
        raise ConfigError("psi.forcing checkpoint does not match the run grid")
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
        """The fields in column order, as a plain tuple (not a deep copy)."""
        return tuple(getattr(self, name) for name in DIAGNOSTIC_COLUMNS)


DIAGNOSTIC_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))


def kinetic_energy(v: Field) -> float:
    measure = TWO_PI ** v.grid.n
    return 0.5 * float(np.vdot(v.values, v.values)) / v.grid.num_points * measure


def _diagnose(
    state: EvolutionState,
    closure: str,
    psi_sup: float,
    psi_norms: tuple[float, float] | None = None,
) -> DiagnosticsRecord:
    """One diagnostics row, formed in the state's workspace if that has its
    grid, psi presence, closure and eta, in a new one otherwise.

    The state a run records is band-limited (cut on entry and by every
    step), so v is transformed on the band, and not at all when it is the
    workspace's last Fields.  Without the closure div v is one inverse
    transform of sum_a ik_a v_a; with it the four velocity gradients, which
    sigma needs, give div v too, and r is the closure of the whole source
    -2 div sigma.  ``psi_norms`` are ``field_norms(state.psi_v)`` if the
    caller has them; they are taken here otherwise.
    """
    v = state.v
    grid, n = v.grid, v.grid.n
    key, ws = (grid, state.psi_v is not None, closure, v.eta), state._ws
    if ws is None or ws.key != key:
        ws = _Stages(*key)
    d = ws.d
    if ws.holds(v, state.psi_v):
        v_hat = ws.total[:n]
    else:
        v_hat = _band_rfft(grid, v.values, out=ws.u0[:n], scratch=ws.half[:n])
    r_l2, r_max = 0.0, 0.0
    if closure == "helmholtz":
        for b in range(n):  # row a * n + b holds d_b v_a
            np.multiply(v_hat, d[b], out=ws.spec[b : n * n : n])
        dv = _band_irfft(grid, ws.spec[: n * n], out=ws.phys[: n * n]).reshape((n, n) + grid.shape)
        sigma = ws.prod[: len(_tensor_pairs(n))]
        for row, (a, b) in zip(sigma, _tensor_pairs(n)):
            np.einsum("c...,c...->...", dv[a], dv[b], out=row)
        # div v, taken before the slope rows reuse dv
        div_max = _peak(np.add(dv[0, 0], dv[1, 1], out=dv[0, 0]))
        rows = len(sigma)
        s_hat = _band_rfft(grid, sigma, out=ws.spec[:rows], scratch=ws.half[:rows])
        r_hat = ws.k[:n]  # 2 q div sigma = -r: the norms read no sign; (a, b) is row a + b
        for a in range(n):
            np.multiply(s_hat[a], d[0], out=r_hat[a])
            r_hat[a] += np.multiply(s_hat[a + 1], d[1], out=ws.spec[rows])
        for row in r_hat:  # by the real q2 part by part: no complex cast of q2
            for part in (row.real, row.imag):
                np.multiply(part, ws.q2, out=part)
        r_l2, r_max = _value_norms(grid, _band_irfft(grid, r_hat, out=ws.prod[:n]))
    else:
        div_hat = np.multiply(v_hat[0], d[0], out=ws.spec[:1])
        div_hat += np.multiply(v_hat[1], d[1], out=ws.spec[1:2])
        div_max = _peak(_band_irfft(grid, div_hat, out=ws.phys[:1]))
    if psi_norms is None:
        psi_norms = (0.0, 0.0) if state.psi_v is None else field_norms(state.psi_v)
    psi_l2, psi_max = psi_norms
    return DiagnosticsRecord(
        step=state.step_count,
        t=state.t,
        energy=kinetic_energy(v),
        max_div_v=float(div_max),
        r_l2=r_l2,
        r_max=r_max,
        psi_l2=psi_l2,
        psi_max=psi_max,
        psi_sup=psi_sup,
        deviation_bound=state.eta * psi_sup,
    )


@dataclass
class SimulationResult:
    records: list[DiagnosticsRecord]
    final: EvolutionState
    cfl_peak: float


def run_simulation(config: RunConfig) -> SimulationResult:
    """Integrate a configured run and collect diagnostics.

    The running sup of |psi| feeds the deviation bound column
    eta * sup |psi|.  Each record also takes the CFL number, whose peak
    the result keeps.  Raises SimulationDiverged (with partial records
    attached, naming the last record's CFL number) when values stop
    being finite.
    """
    state = build_initial_state(config)  # in the workspace of every step and record
    dt = config.resolved_dt(state.v)
    n_steps = max(1, round(config.t_end / dt))
    e_v = resolve_forcing(config, state.v.grid) if config.psi_enabled else None
    try:  # the forcing of the run's workspace, read once all else is checked
        state._ws.force(e_v)
    except NonFiniteFieldError as err:
        raise OSError(f"{config.psi_forcing['path']}: {err}") from err
    psi_norms = (0.0, 0.0) if state.psi_v is None else field_norms(state.psi_v)
    psi_sup = psi_norms[1]
    records, cfl = [], []

    def record():
        records.append(_diagnose(state, config.closure, psi_sup, psi_norms))
        cfl.append(_cfl_number(state.v, dt))

    # an overflow ends in the non-finite field that _Stages.keep refuses
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            record()
            for _ in range(n_steps):
                state = step_rk4(state, dt, closure=config.closure, e_v=e_v)
                if state.psi_v is not None:  # taken once, for psi_sup and the record
                    psi_norms = field_norms(state.psi_v)
                    psi_sup = max(psi_sup, psi_norms[1])
                if state.step_count % config.output_interval == 0 or state.step_count == n_steps:
                    record()
        except SimulationDiverged as err:
            raise SimulationDiverged(
                f"{err}; CFL number {cfl[-1]:.3g} at the last record, step {records[-1].step}",
                records=records,
            ) from err
    return SimulationResult(records=records, final=state, cfl_peak=max(cfl))


def _burgers_slope(grid: Grid, stage: np.ndarray):
    """The slope -(u^2/2)_x of the coefficients in ``stage``, 2/3-rule
    masked, as a function that reuses its buffers.

    One inverse transform gives u, squared in place, and one forward
    transform its square, multiplied by the table -ik/2 cut to the band.
    On coefficients inside the band this is -u u_x on every kept mode:
    the square of a band field aliases onto dropped modes only.
    """
    table = -0.5 * grid.rderivatives[0] * grid.rdealias_mask
    phys, k = np.empty((1,) + grid.shape), np.empty((1,) + grid.rshape, complex)

    def slope():
        u = _irfft(grid, stage, out=phys)
        np.square(u, out=u)
        k_hat = _rfft(grid, u, out=k)
        k_hat *= table
        return k_hat

    return slope


def reference_burgers(coarse: Grid, times: list[float]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Inviscid Burgers from u0 = sin x, as rows (u, u_t) (1, *coarse.shape)
    at each of ``times``, non-decreasing in [0, 1): before the shock at 1.

    RK4 steps of a quarter of the fine spacing on a grid BURGERS_REFINEMENT
    times finer; a repeated time takes no step.  Each pair restricts the
    fine half spectrum û and its slope -(u^2/2)_x, the exact time
    derivative of the restricted trajectory: their first coarse.size // 2
    + 1 modes, cut to the coarse 2/3 band, by one coarse inverse, a block
    checked finite once, of which the pair are views.  A state that is not
    finite at an asked time raises SimulationDiverged naming that time,
    before its pair is formed.  Refused (ValueError) when the final
    spectrum's top third of the 2/3 band exceeds 1e-6 of its largest mode.
    """
    if coarse.n != 1:
        raise ValueError("the reference problem is one dimensional")
    if list(times) != sorted(times) or not all(0.0 <= tw < 1.0 for tw in times):
        raise ValueError(
            f"reference times must be non-decreasing in [0, 1), t_end before the first "
            f"shock at 1, got {times}"
        )
    fine = make_grid(1, BURGERS_REFINEMENT * coarse.size)
    dt = 0.25 * fine.spacing
    keep, scale = coarse.size // 2 + 1, coarse.rdealias_mask * (coarse.size / fine.size)
    u_hat = _rfft(fine, np.sin(fine.coords()[0])[np.newaxis])
    total, stage = np.empty_like(u_hat), np.empty_like(u_hat)
    slope = _burgers_slope(fine, stage)
    t, slices = 0.0, []
    for target in times:
        n_steps = max(1, round((target - t) / dt)) if target > t else 0
        h = (target - t) / max(1, n_steps)
        # an overflow ends in the non-finite state refused at the time asked
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(n_steps):
                _rk4(u_hat, total, stage, h, slope)
                u_hat, total = total, u_hat
        if not np.all(np.isfinite(u_hat)):
            raise SimulationDiverged(
                f"non-finite values in the Burgers reference at t={target:.6g}"
            )
        t = target
        np.copyto(stage, u_hat)
        coeffs = np.concatenate([u_hat[:, :keep], slope()[:, :keep]])
        coeffs *= scale
        block = _finite(_irfft(coarse, coeffs))
        slices.append((block[:1], block[1:]))
    # the top third of the band, 2b // 3 <= k < b, against the largest mode
    mags, b = np.abs(u_hat[0]), fine.band
    share = float(np.max(mags[2 * b // 3 : b]) / np.max(mags))
    if share > 1e-6:
        raise ValueError(
            f"the Burgers reference does not resolve t_end={t} on {fine.size} fine points: "
            f"the top third of its band holds {share:.2g} of the largest mode, above 1e-06"
        )
    return slices


CHECKPOINT_MAGIC = b"SCALEPDE"
CHECKPOINT_VERSION = 1
# the kind of each header field the Field is built from
_HEADER_KINDS = {"n": int, "size": int, "components": int, "t": float, "eta": float}


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
        fh.write(np.ascontiguousarray(f.values, dtype="<f8"))  # its buffer, not a copy


def read_checkpoint(path) -> tuple[Field, dict]:
    """Read a checkpoint back into a Field plus its header dict.

    A file without the magic is not a checkpoint (ValueError); a
    checkpoint with an unreadable or unsupported header (each of n, size,
    components, t and eta of its kind, n of 1 or 2, components >= 1 and
    eta >= 0), too few data bytes or non-finite values raises OSError
    naming the path.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path} is not a checkpoint file")
        try:
            header = json.loads(fh.readline().decode())
            version = header.get("version")
            if version != CHECKPOINT_VERSION:
                raise OSError(
                    f"{path}: checkpoint version {version!r} is not supported "
                    f"(expected {CHECKPOINT_VERSION})"
                )
            for key, kind in _HEADER_KINDS.items():
                _require(key, header[key], kind)
            n, size, ncomp, t, eta = (header[key] for key in _HEADER_KINDS)
            if n not in (1, 2) or ncomp < 1 or eta < 0.0:
                raise ValueError(f"n={n}, components={ncomp} or eta={eta} is out of range")
            # counted in Python ints and checked against the file before the
            # grid is built: a huge size would fill memory with its tables
            nbytes = ncomp * size**n * 8
            left = os.fstat(fh.fileno()).st_size - fh.tell()
            if nbytes > left:
                raise OSError(f"{path}: truncated checkpoint, {left} of {nbytes} data bytes")
            grid = make_grid(n, size)
        except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as err:
            raise OSError(f"{path}: unreadable checkpoint header ({err!r})") from err
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
