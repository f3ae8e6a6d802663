"""Macroscopic fluid core: advection residual, filter stress and source.

A core is its jet polynomial.  The fluid core maps a velocity/pressure
slice to the momentum residual v_t + (v . grad) v + grad p together
with the continuity value div v.  Its filter source contracts the stress
sigma^{ab} = sum_c d_c v^a d_c v^b as s = -2 div sigma, with the
pressure component exactly zero.
"""

from __future__ import annotations

import warnings

import numpy as np

from .grid import (
    Field,
    Grid,
    TensorField,
    _dealiased_hat,
    _irfft,
    _rfft,
    _tensor_pairs,
    _with_gradients,
)
from .jets import JetExpr, spatial_labels

DIVERGENCE_WARN_TOL = 1e-8


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


def burgers_core() -> JetExpr:
    """Inviscid Burgers core u_t + u u_x on one component."""
    x1 = JetExpr.variable(1, 1, 1, ("x1",))
    ut = JetExpr.variable(1, 1, 1, ("t",))
    u = JetExpr.variable(1, 1, 1)
    return ut + u * x1


def fluid_core(n: int) -> JetExpr:
    """Incompressible advection core (momentum residual, continuity).

    Component N = n + 1 is the pressure; output N is div v.
    """
    if n not in (1, 2):
        raise ValueError(f"spatial dimension must be 1 or 2, got {n}")
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


def core_by_name(name: str, n: int) -> JetExpr:
    if name == "burgers":
        if n != 1:
            raise ValueError("the burgers core is one dimensional")
        return burgers_core()
    if name == "fluid":
        return fluid_core(n)
    raise ValueError(f"unknown core {name!r} (choose 'burgers' or 'fluid')")
