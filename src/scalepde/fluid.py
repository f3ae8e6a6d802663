"""Macroscopic fluid core: advection residual, filter stress and source.

The core function maps a velocity/pressure slice to the momentum
residual v_t + (v . grad) v + grad p together with the continuity value
div v.  Its filter source contracts the stress sigma^{ab} =
sum_c d_c v^a d_c v^b as s = -2 div sigma, with the pressure component
exactly zero.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import (
    Field,
    Grid,
    TensorField,
    _dealias_values,
    _dealiased_hat,
    _irfft,
    _rfft,
    _tensor_pairs,
    _with_gradients,
    divergence,
    field_norms,
    gradient,
    spectral_derivative,
)
from .jets import JetExpr, derive_source, jet_evaluate, jet_values, spatial_labels

DIVERGENCE_WARN_TOL = 1e-8


@dataclass(frozen=True)
class FluidState:
    """Velocity/pressure pair on one slice; pressure is gauged to zero mean."""

    v: Field
    p: Field

    def __post_init__(self):
        if self.v.grid != self.p.grid:
            raise ValueError("velocity and pressure live on different grids")
        if self.v.ncomp != self.v.grid.n:
            raise ValueError(
                f"velocity needs {self.v.grid.n} components, got {self.v.ncomp}"
            )
        if self.p.ncomp != 1:
            raise ValueError("pressure must be a scalar field")
        if abs(self.v.t - self.p.t) > 1e-12 or abs(self.v.eta - self.p.eta) > 1e-12:
            raise ValueError("velocity and pressure carry different (t, eta)")
        div_max = field_norms(divergence(self.v))[1]
        if div_max > 1e-10:
            raise ValueError(
                f"velocity is not divergence free (max |div v| = {div_max:.3e})"
            )
        mean = self.p.values.mean()
        if abs(mean) > 1e-12:
            object.__setattr__(
                self, "p", self.p.with_values(self.p.values - mean)
            )

    @property
    def grid(self) -> Grid:
        return self.v.grid

    def as_field(self) -> Field:
        """Stacked (v, p) field in core-component order."""
        return Field.from_components([self.v, self.p])


def _advection(v: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """sum_b v_b d_b w_a from values v and the gradient stack dw[a, b]."""
    return sum(v[b] * dw[:, b] for b in range(len(v)))


def _stress(dv: np.ndarray) -> np.ndarray:
    """sigma^{ab} = sum_c d_c v^a d_c v^b for the pairs a <= b."""
    return np.stack([np.sum(dv[a] * dv[b], axis=0) for a, b in _tensor_pairs(len(dv))])


def _source_hat(grid: Grid, sigma_hat: np.ndarray) -> np.ndarray:
    """Half-spectrum s = -2 div sigma from the pair-stored stress."""
    out = np.zeros((grid.n,) + grid.rshape, dtype=complex)
    d = grid.rderivatives
    for i, (a, b) in enumerate(_tensor_pairs(grid.n)):
        out[a] += d[b] * sigma_hat[i]
        if a != b:
            out[b] += d[a] * sigma_hat[i]
    return -2.0 * out


def _leray_hat(grid: Grid, w_hat: np.ndarray) -> np.ndarray:
    """Leray projection of stacked n-component vector fields' coefficients."""
    w = w_hat.reshape((-1, grid.n) + grid.rshape)
    out = np.empty_like(w)
    for a in range(grid.n):
        out[:, a] = sum(grid.rleray[a, b] * w[:, b] for b in range(grid.n))
    return out.reshape(w_hat.shape)


def _gradient_values(f: Field) -> np.ndarray:
    """Physical d_b f_a as an array of shape (ncomp, n) + grid.shape."""
    grid = f.grid
    stack = _irfft(grid, _with_gradients(grid, _rfft(grid, f.values)))
    return stack[f.ncomp :].reshape((f.ncomp, grid.n) + grid.shape)


def _check_velocity(v: Field):
    if v.ncomp != v.grid.n:
        raise ValueError(f"expected {v.grid.n} velocity components, got {v.ncomp}")


def sigma(v: Field) -> TensorField:
    """Filter stress sigma^{ab} = sum_c d_c v^a d_c v^b, products dealiased."""
    _check_velocity(v)
    vals = _irfft(v.grid, _dealiased_hat(v.grid, _stress(_gradient_values(v))))
    return TensorField(v.grid, vals, t=v.t, eta=v.eta)


def fluid_source(v: Field) -> Field:
    """Filter source s = -2 div sigma plus a zero pressure component.

    Warns when the input is visibly compressible, since the divergence
    form of the source assumes div v = 0.
    """
    _check_velocity(v)
    grid = v.grid
    dv = _gradient_values(v)
    div_max = float(np.max(np.abs(np.trace(dv))))
    if div_max > DIVERGENCE_WARN_TOL:
        warnings.warn(
            f"fluid_source called with max |div v| = {div_max:.3e}; "
            "the divergence form assumes a solenoidal field",
            stacklevel=2,
        )
    out = np.zeros((grid.n + 1,) + grid.shape)
    out[: grid.n] = _irfft(grid, _source_hat(grid, _dealiased_hat(grid, _stress(dv))))
    return Field(grid, out, t=v.t, eta=v.eta)


def advect(v: Field, w: Field) -> Field:
    """(v . grad) w with dealiased products."""
    if v.ncomp != v.grid.n:
        raise ValueError(f"advecting field needs {v.grid.n} components")
    products = _advection(v.values, _gradient_values(w))
    return w.with_values(_irfft(v.grid, _dealiased_hat(v.grid, products)))


def acceleration(v: Field, v_t: Field) -> Field:
    """Material acceleration v_t + (v . grad) v."""
    if v.grid != v_t.grid or v.ncomp != v_t.ncomp:
        raise ValueError("v and v_t are incompatible")
    return v_t + advect(v, v)


def leray_project(w: Field) -> tuple[Field, Field]:
    """Split w into a divergence-free part and a zero-mean potential.

    Returns (solenoidal, potential) with w = solenoidal + grad(potential)
    up to the mean mode, which stays entirely in the solenoidal part.
    """
    grid = w.grid
    if w.ncomp != grid.n:
        raise ValueError(f"expected {grid.n} components, got {w.ncomp}")
    w_hat = _rfft(grid, w.values)
    out = np.empty((grid.n + 1,) + grid.rshape, dtype=complex)
    out[: grid.n] = _leray_hat(grid, w_hat)
    ksq = grid.rksq.copy()
    zero = (0,) * grid.n
    ksq[zero] = 1.0
    out[grid.n] = -sum(d * w_hat[b] for b, d in enumerate(grid.rderivatives)) / ksq
    out[(grid.n,) + zero] = 0.0
    vals = _irfft(grid, out)
    return w.with_values(vals[: grid.n]), Field(grid, vals[grid.n :], t=w.t, eta=w.eta)


@dataclass(frozen=True)
class CoreFunction:
    """A PDE core paired with its symbolic jet form.

    ``evaluator(u, u_t)`` computes the residual directly from slice
    fields; the symbolic form feeds source derivation and Frechet
    calculus.  Both views must agree numerically.
    """

    name: str
    n: int
    N: int
    symbolic: JetExpr
    evaluator: Callable[[Field, Field], Field]

    def __post_init__(self):
        if self.symbolic.max_order > 1:
            raise ValueError("core functions must be first order")
        if (self.symbolic.n, self.symbolic.N) != (self.n, self.N):
            raise ValueError("symbolic form disagrees with (n, N)")

    def evaluate(self, u: Field, u_t: Field) -> Field:
        return self.evaluator(u, u_t)

    def evaluate_symbolic(self, u: Field, u_t: Field) -> Field:
        return jet_evaluate(self.symbolic, jet_values(self.symbolic, u, u_t))

    def source(self) -> JetExpr:
        return derive_source(self.symbolic)


def _burgers_evaluator(u: Field, u_t: Field) -> Field:
    du = spectral_derivative(u, 0)
    vals = u_t.values + _dealias_values(u.grid, u.values * du.values)
    return u.with_values(vals, t=u.t)


def burgers_core() -> CoreFunction:
    """Inviscid Burgers core u_t + u u_x on one component."""
    x1 = JetExpr.variable(1, 1, 1, ("x1",))
    ut = JetExpr.variable(1, 1, 1, ("t",))
    u = JetExpr.variable(1, 1, 1)
    return CoreFunction(
        name="burgers", n=1, N=1, symbolic=ut + u * x1, evaluator=_burgers_evaluator
    )


def _fluid_symbolic(n: int) -> JetExpr:
    N = n + 1
    comps = []
    for a in range(1, n + 1):
        expr = JetExpr.variable(n, N, a, ("t",)) + JetExpr.variable(
            n, N, N, (f"x{a}",)
        )
        for b in range(1, n + 1):
            expr = expr + JetExpr.variable(n, N, b) * JetExpr.variable(
                n, N, a, (f"x{b}",)
            )
        comps.append(expr)
    cont = JetExpr.zero(n, N)
    for a, label in enumerate(spatial_labels(n), start=1):
        cont = cont + JetExpr.variable(n, N, a, (label,))
    comps.append(cont)
    return JetExpr.vector(comps)


def _fluid_evaluator(u: Field, u_t: Field) -> Field:
    grid = u.grid
    n = grid.n
    v = u.with_values(u.values[:n])
    v_t = u_t.with_values(u_t.values[:n], t=u.t, eta=u.eta)
    p = u.with_values(u.values[n : n + 1])
    momentum = acceleration(v, v_t) + gradient(p)
    return Field.from_components([momentum, divergence(v)])


def fluid_core(n: int) -> CoreFunction:
    """Incompressible advection core (momentum residual, continuity)."""
    if n not in (1, 2):
        raise ValueError(f"spatial dimension must be 1 or 2, got {n}")
    return CoreFunction(
        name="fluid",
        n=n,
        N=n + 1,
        symbolic=_fluid_symbolic(n),
        evaluator=_fluid_evaluator,
    )


def fluid_core_eval(state: FluidState, v_t: Field) -> Field:
    """Evaluate the fluid core on a state and a velocity time derivative."""
    u = state.as_field()
    zero_p_t = np.zeros((1,) + state.grid.shape)
    u_t = Field(
        state.grid,
        np.concatenate([v_t.values, zero_p_t]),
        t=state.v.t,
        eta=state.v.eta,
    )
    return _fluid_evaluator(u, u_t)


def core_by_name(name: str, n: int) -> CoreFunction:
    if name == "burgers":
        if n != 1:
            raise ValueError("the burgers core is one dimensional")
        return burgers_core()
    if name == "fluid":
        return fluid_core(n)
    raise ValueError(f"unknown core {name!r} (choose 'burgers' or 'fluid')")
