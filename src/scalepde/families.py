"""Manufactured fields, filtered families and initial conditions.

These builders supply the experiments and tests with closed-form slices
whose scale and time derivatives are known exactly.  A "filtered"
family satisfies the heat flow in eta by construction; the generic
manufactured families deliberately do not, so their filter defect psi
is a nontrivial known field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fluid import _leray_hat
from .grid import Field, Grid, _irfft, _rfft


def taylor_green(grid: Grid, amplitude: float = 1.0, t: float = 0.0, eta: float = 0.0) -> Field:
    """Steady cellular velocity (sin x cos y, -cos x sin y)."""
    if grid.n != 2:
        raise ValueError("the cellular field needs a two dimensional grid")
    x, y = grid.coords()
    vals = amplitude * np.stack([np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)])
    return Field(grid, vals, t=t, eta=eta)


def taylor_green_pressure(grid: Grid, amplitude: float = 1.0, t: float = 0.0, eta: float = 0.0) -> Field:
    """Pressure A^2/4 (cos 2x + cos 2y) balancing the cellular advection."""
    x, y = grid.coords()
    vals = 0.25 * amplitude**2 * (np.cos(2 * x) + np.cos(2 * y))
    return Field(grid, vals[np.newaxis], t=t, eta=eta)


def sine_field(grid: Grid, t: float = 0.0, eta: float = 0.0) -> Field:
    """Scalar sin(x1)."""
    vals = np.sin(grid.coords()[0])
    return Field(grid, vals[np.newaxis], t=t, eta=eta)


def single_mode_solenoidal(
    grid: Grid, k: tuple[int, int] = (1, 2), amplitude: float = 1.0
) -> Field:
    """One divergence-free Fourier mode: a_perp * cos(k . x)."""
    if grid.n != 2:
        raise ValueError("needs a two dimensional grid")
    kx, ky = k
    norm = math.hypot(kx, ky)
    if norm == 0.0:
        raise ValueError("wavevector must be nonzero")
    x, y = grid.coords()
    phase = np.cos(kx * x + ky * y)
    vals = (amplitude / norm) * np.stack([ky * phase, -kx * phase])
    return Field(grid, vals)


def _random_values(
    grid: Grid, rng: np.random.Generator, ncomp: int, kmax: int, solenoidal: bool
) -> np.ndarray:
    """Standard normal noise confined to |k_axis| <= kmax.  A solenoidal
    draw also drops the Nyquist planes (the half-spectrum Leray projector
    leaves a divergence there) and the mean, and is Leray-projected."""
    noise = rng.standard_normal((ncomp,) + grid.shape)
    coeffs = _rfft(grid, noise, out=np.empty((ncomp,) + grid.rshape, complex))
    k = np.abs(np.fft.fftfreq(grid.size, 1.0 / grid.size))
    kept = (k <= kmax) & (k < grid.size // 2) if solenoidal else k <= kmax
    for axis, size in enumerate(grid.rshape):
        coeffs *= kept[:size].reshape((size,) + (1,) * (grid.n - 1 - axis))
    if solenoidal:
        coeffs[(slice(None),) + (0,) * grid.n] = 0.0
        coeffs = _leray_hat(grid, coeffs)
    return _irfft(grid, coeffs)


def random_band_limited(
    grid: Grid, rng: np.random.Generator, ncomp: int = 1,
    kmax: int = 4, amplitude: float = 1.0,
) -> Field:
    """Smooth random field with modes confined to |k_axis| <= kmax."""
    vals = _random_values(grid, rng, ncomp, kmax, solenoidal=False)
    peak = max(vals.max(), -vals.min())
    if peak > 0.0:
        vals *= amplitude / peak
    return Field(grid, vals)


def random_solenoidal(
    grid: Grid, rng: np.random.Generator, kmax: int = 4, amplitude: float = 1.0
) -> Field:
    """Random divergence-free velocity with zero mean, peak |v| = amplitude.

    In 1-D a divergence-free field is a constant, so nothing is left once
    the mean is removed; that raises ValueError.
    """
    vals = _random_values(grid, rng, grid.n, kmax, solenoidal=True)
    peak = max(vals.max(), -vals.min())
    if not peak > 1e-12:
        raise ValueError(
            f"no divergence-free part with zero mean exists on a {grid.n}-D grid"
        )
    vals *= amplitude / peak
    return Field(grid, vals)


@dataclass(frozen=True)
class ManufacturedSlice:
    """One (t, eta) sample of a manufactured family with exact derivatives."""

    u: Field
    u_t: Field
    psi: Field
    psi_t: Field


def manufactured_burgers(grid: Grid, t: float, eta: float) -> ManufacturedSlice:
    """Scalar family g(t, eta) sin x that is not heat filtered.

    g = (1 + eta/2 + eta^3)(1 + t/3), so psi = (g_eta + g) sin x.
    """
    x = grid.coords()[0]
    base = np.sin(x)[np.newaxis]
    g_eta_part = 1.0 + 0.5 * eta + eta**3
    dg_eta_part = 0.5 + 3.0 * eta**2
    g_t_part = 1.0 + t / 3.0
    u = Field(grid, g_eta_part * g_t_part * base, t=t, eta=eta)
    u_t = Field(grid, g_eta_part * (1.0 / 3.0) * base, t=t, eta=eta)
    psi = Field(grid, (dg_eta_part + g_eta_part) * g_t_part * base, t=t, eta=eta)
    psi_t = Field(
        grid, (dg_eta_part + g_eta_part) * (1.0 / 3.0) * base, t=t, eta=eta
    )
    return ManufacturedSlice(u=u, u_t=u_t, psi=psi, psi_t=psi_t)


def manufactured_fluid(grid: Grid, t: float, eta: float) -> ManufacturedSlice:
    """Three-component (v, p) family with nonzero filter defect.

    The velocity part is deliberately compressible so every Frechet
    entry of the advection core is exercised.
    """
    if grid.n != 2:
        raise ValueError("needs a two dimensional grid")
    x, y = grid.coords()
    m1 = np.sin(x) * np.cos(y)
    m2 = np.cos(x) * np.sin(y)
    m3 = np.cos(x)
    # coefficient, d/d(eta), d/dt factors for each component
    a_eta, da_eta = 1.0 + 0.5 * eta + eta**2, 0.5 + 2.0 * eta
    b_eta, db_eta = 1.0 - eta + eta**3, -1.0 + 3.0 * eta**2
    c_eta, dc_eta = eta + eta**2, 1.0 + 2.0 * eta
    a_t, da_t = 1.0 + t / 4.0, 0.25
    b_t, db_t = 1.0 - t / 5.0, -0.2
    c_t, dc_t = 1.0 + t / 3.0, 1.0 / 3.0
    # laplacian eigenvalues of the three spatial shapes
    lam1, lam2, lam3 = -2.0, -2.0, -1.0

    def stack(f1, f2, f3):
        return np.stack([f1 * m1, f2 * m2, f3 * m3])

    u = Field(grid, stack(a_eta * a_t, b_eta * b_t, c_eta * c_t), t=t, eta=eta)
    u_t = Field(grid, stack(a_eta * da_t, b_eta * db_t, c_eta * dc_t), t=t, eta=eta)
    psi = Field(
        grid,
        stack(
            (da_eta - lam1 * a_eta) * a_t,
            (db_eta - lam2 * b_eta) * b_t,
            (dc_eta - lam3 * c_eta) * c_t,
        ),
        t=t,
        eta=eta,
    )
    psi_t = Field(
        grid,
        stack(
            (da_eta - lam1 * a_eta) * da_t,
            (db_eta - lam2 * b_eta) * db_t,
            (dc_eta - lam3 * c_eta) * dc_t,
        ),
        t=t,
        eta=eta,
    )
    return ManufacturedSlice(u=u, u_t=u_t, psi=psi, psi_t=psi_t)


def _scalar_2d_modes(grid: Grid) -> tuple[np.ndarray, ...]:
    if grid.n != 2:
        raise ValueError("needs a two dimensional grid")
    x, y = grid.coords()
    return np.sin(x) * np.cos(y), np.cos(x), np.sin(2 * x) * np.cos(y)


def _scalar_2d_slice(grid: Grid, modes, weights, t: float, eta: float) -> Field:
    (m1, m2, m3), (w1, w2, w3) = modes, weights
    return Field(grid, (w1 * m1 + w2 * m2 + w3 * m3)[np.newaxis], t=t, eta=eta)


def _scalar_2d_weights(eta: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Mode weights of u and of psi at scale eta."""
    a, da = 1.0 + eta, 1.0
    b, db = math.exp(-eta), -math.exp(-eta)
    c, dc = math.cos(eta), -math.sin(eta)
    return (a, b, c), (da + 2.0 * a, db + b, dc + 5.0 * c)


def manufactured_scalar_2d(grid: Grid, eta: float, t: float = 0.0) -> tuple[Field, Field]:
    """Scalar 2d family (u, psi) for deviation experiments.

    u = a(eta) sin x cos y + b(eta) cos x + c(eta) sin 2x cos y with
    coefficients that do not follow the heat flow.
    """
    modes = _scalar_2d_modes(grid)
    u_weights, psi_weights = _scalar_2d_weights(eta)
    return (
        _scalar_2d_slice(grid, modes, u_weights, t, eta),
        _scalar_2d_slice(grid, modes, psi_weights, t, eta),
    )


def manufactured_scalar_2d_ladder(grid: Grid, etas, t: float = 0.0) -> list[Field]:
    """The u part of manufactured_scalar_2d at each eta; modes formed once."""
    modes = _scalar_2d_modes(grid)
    return [
        _scalar_2d_slice(grid, modes, _scalar_2d_weights(eta)[0], t, eta)
        for eta in etas
    ]


def filtered_taylor_green(grid: Grid, t: float, eta: float) -> tuple[Field, Field]:
    """Heat-filtered cellular family (u, u_t) with g(t) = 1 + t / 2.

    u stacks (v, p) with v = g e^{-2 eta} (sin x cos y, -cos x sin y)
    and the matching quadratic pressure; u_t is its exact time
    derivative.  Both satisfy the heat flow in eta exactly.
    """
    if grid.n != 2:
        raise ValueError("needs a two dimensional grid")
    x, y = grid.coords()
    dg = 0.5
    g = 1.0 + dg * t
    damp = math.exp(-2.0 * eta)
    damp4 = math.exp(-4.0 * eta)
    v1, v2 = np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)
    pshape = 0.25 * (np.cos(2 * x) + np.cos(2 * y))
    u = np.stack([g * damp * v1, g * damp * v2, g**2 * damp4 * pshape])
    u_t = np.stack(
        [dg * damp * v1, dg * damp * v2, 2.0 * g * dg * damp4 * pshape]
    )
    return Field(grid, u, t=t, eta=eta), Field(grid, u_t, t=t, eta=eta)
