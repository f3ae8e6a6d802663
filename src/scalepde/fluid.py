"""Macroscopic fluid core: advection residual, filter stress and source.

A core is its jet polynomial.  The fluid core maps a velocity/pressure
slice to the momentum residual v_t + (v . grad) v + grad p together
with the continuity value div v.  Its filter source is the derived
s = (W - L)F, which on a solenoidal slice equals -2 div sigma for the
stress sigma^{ab} = sum_c d_c v^a d_c v^b, with the continuity row
exactly zero.  The stress, the source and the advection are jet
polynomials too, evaluated the way every core is.
"""

from __future__ import annotations

import warnings

import numpy as np

from .grid import Field, _irfft, _rfft, divergence, field_norms
from .jets import JetExpr, JetIndex, JetMonomial, derive_source, spatial_labels
from .residual import exact_residual

DIVERGENCE_WARN_TOL = 1e-8


def _tensor_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The index pairs a <= b by which a symmetric tensor is stored."""
    return tuple((a, b) for a in range(n) for b in range(a, n))


def _leray_hat(leray: np.ndarray, w: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """out = P w for stacked n-component vector fields' coefficients w,
    row j * n + a holding component a of field j, on the layout of the
    projector table ``leray[a, b]`` (the grid's ``rleray`` or a view of it).
    ``scratch``, one row's shape, takes the products."""
    n = len(leray)
    out = np.empty_like(w) if out is None else out
    for j, a in np.ndindex(len(w) // n, n):
        np.multiply(w[j * n], leray[a, 0], out=out[j * n + a])
        for b in range(1, n):
            out[j * n + a] += np.multiply(w[j * n + b], leray[a, b], out=scratch)
    return out


def _check_velocity(v: Field):
    if v.ncomp != v.grid.n:
        raise ValueError(f"expected {v.grid.n} velocity components, got {v.ncomp}")


def _sums_of_products(n: int, N: int, rows) -> JetExpr:
    """The jet polynomial whose output i sums the products of the pairs of
    jet variables in rows[i]."""
    return JetExpr(n, N, tuple(tuple(JetMonomial(1, pair) for pair in row) for row in rows))


def sigma(v: Field) -> Field:
    """Filter stress sigma^{ab} = sum_c d_c v^a d_c v^b, products dealiased,
    one row per pair a <= b in ``_tensor_pairs`` order."""
    _check_velocity(v)
    n = v.grid.n
    rows = [
        [(JetIndex(a + 1, (x,)), JetIndex(b + 1, (x,))) for x in spatial_labels(n)]
        for a, b in _tensor_pairs(n)
    ]
    return exact_residual(_sums_of_products(n, n, rows), v)


def fluid_source(v: Field) -> Field:
    """Filter source s = (W - L)F of the fluid core F on the slice (v, 0),
    one row per momentum component and the continuity row, exactly zero.

    On a solenoidal field s = -2 div sigma.  Warns when the input is
    visibly compressible, where the two forms differ.
    """
    _check_velocity(v)
    grid = v.grid
    div_max = field_norms(divergence(v))[1]
    if div_max > DIVERGENCE_WARN_TOL:
        warnings.warn(
            f"fluid_source called with max |div v| = {div_max:.3e}; "
            "the source equals -2 div sigma on a solenoidal field only",
            stacklevel=2,
        )
    u = Field(grid, np.concatenate([v.values, np.zeros((1,) + grid.shape)]), t=v.t, eta=v.eta)
    return exact_residual(derive_source(fluid_core(grid.n)), u)


def advect(v: Field, w: Field) -> Field:
    """(v . grad) w = sum_b v^b d_b w with dealiased products; t and eta are w's."""
    _check_velocity(v)
    n = v.grid.n
    rows = [
        [(JetIndex(b + 1), JetIndex(n + a + 1, (x,))) for b, x in enumerate(spatial_labels(n))]
        for a in range(w.ncomp)
    ]
    u = Field(v.grid, np.concatenate([v.values, w.values]), t=w.t, eta=w.eta)
    return exact_residual(_sums_of_products(n, n + w.ncomp, rows), u)


def leray_project(w: Field) -> Field:
    """The divergence-free part of w; the mean mode stays in it."""
    _check_velocity(w)
    grid = w.grid
    return w.with_values(_irfft(grid, _leray_hat(grid.rleray, _rfft(grid, w.values))))


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
