"""Manufactured fields, filtered families and initial conditions.

These builders supply the experiments with closed-form slices whose
scale and time derivatives are known exactly.  A "filtered" family
satisfies the heat flow in eta by construction; the manufactured scalar
ladder deliberately does not, so its filter defect psi is a nontrivial
known field.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .fluid import _leray_hat
from .grid import Field, Grid, _band_irfft, _peak, _rfft


def taylor_green(grid: Grid, amplitude: float = 1.0) -> Field:
    """Steady cellular velocity (sin x cos y, -cos x sin y)."""
    if grid.n != 2:
        raise ValueError("the cellular field needs a two dimensional grid")
    x, y = grid.coords()
    vals = amplitude * np.stack([np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)])
    return Field(grid, vals)


def sine_field(grid: Grid) -> Field:
    """Scalar sin(x1)."""
    vals = np.sin(grid.coords()[0])
    return Field(grid, vals[np.newaxis])


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
    leaves a divergence there) and the mean, and is Leray-projected.  Only
    the kept columns k_last <= kmax are transformed along axis -2 and back,
    each on its own, so the values are the whole-grid pair's bit for bit."""
    cols = min(kmax, grid.size // 2) + 1
    coeffs = np.fft.rfft(rng.standard_normal((ncomp,) + grid.shape), axis=-1)[..., :cols]
    coeffs = np.fft.fft(coeffs, axis=-2) if grid.n == 2 else coeffs
    k = np.abs(np.fft.fftfreq(grid.size, 1.0 / grid.size))
    kept = (k <= kmax) & (k < grid.size // 2) if solenoidal else k <= kmax
    for axis, size in enumerate(coeffs.shape[1:]):
        coeffs *= kept[:size].reshape((size,) + (1,) * (grid.n - 1 - axis))
    if solenoidal:
        coeffs[(slice(None),) + (0,) * grid.n] = 0.0
        coeffs = _leray_hat(grid.rleray[..., :cols], coeffs)
    return _band_irfft(grid, coeffs)


def random_band_limited(
    grid: Grid, rng: np.random.Generator, ncomp: int = 1,
    kmax: int = 4, amplitude: float = 1.0,
) -> Field:
    """Smooth random field with modes confined to |k_axis| <= kmax."""
    vals = _random_values(grid, rng, ncomp, kmax, solenoidal=False)
    peak = _peak(vals)
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
    peak = _peak(vals)
    if not peak > 1e-12:
        raise ValueError(
            f"no divergence-free part with zero mean exists on a {grid.n}-D grid"
        )
    vals *= amplitude / peak
    return Field(grid, vals)


def manufactured_scalar_2d_ladder(grid: Grid, etas) -> Iterator[np.ndarray]:
    """Half spectra (1, *grid.rshape) of a scalar 2d family u at each eta,
    for deviation experiments.

    u = a(eta) sin x cos y + b(eta) cos x + c(eta) sin 2x cos y with
    a = 1 + eta, b = e^{-eta} and c = cos(eta), coefficients that do not
    follow the heat flow.  The three modes are transformed once, in one
    call, and each spectrum is their combination ((1 + eta) m1 + b m2) + c m3,
    made as the caller takes it in one new array and one scratch spectrum.
    """
    if grid.n != 2:
        raise ValueError("needs a two dimensional grid")
    x, y = grid.coords()
    modes = np.stack([np.sin(x) * np.cos(y), np.cos(x), np.sin(2 * x) * np.cos(y)])
    m1, m2, m3 = _rfft(grid, modes)

    def spectra():
        scratch = np.empty_like(m1)
        for eta in etas:
            u_hat = np.multiply(1.0 + eta, m1)
            u_hat += np.multiply(math.exp(-eta), m2, out=scratch)
            u_hat += np.multiply(math.cos(eta), m3, out=scratch)
            yield u_hat[np.newaxis]

    return spectra()


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
