"""Periodic spectral grids and fields.

Everything lives on the uniform grid over the 2*pi-periodic torus in one
or two spatial dimensions.  Differentiation, dealiasing and mode surgery
all happen in Fourier space; fields themselves are stored in physical
space with a leading component axis.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


class NonFiniteFieldError(ValueError):
    """Raised when field values contain NaN or infinity."""


def _axis_wavenumbers(size: int) -> np.ndarray:
    # Integer lattice {-size/2 + 1, ..., size/2}.  The Nyquist mode is
    # stored with positive sign; it only ever enters even multipliers or
    # is zeroed outright, so the choice of sign is immaterial.
    k = np.fft.fftfreq(size, d=1.0 / size)
    k[size // 2] = size // 2
    return k


def _derivative(k: np.ndarray, axis: int, size: int) -> np.ndarray:
    """The multiplier i*k of d/dx_axis, zero on that axis's Nyquist plane
    so that the derivative of a real field stays real."""
    odd = 1j * k
    odd[(slice(None),) * axis + (size // 2,)] = 0.0
    return odd


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, 2*pi)^n with cached wavenumber arrays."""

    n: int
    size: int

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"spatial dimension must be 1 or 2, got {self.n}")
        if self.size < 4 or self.size % 2 != 0:
            raise ValueError(f"grid size must be even and >= 4, got {self.size}")
        shape = (self.size,) * self.n
        k1d = _axis_wavenumbers(self.size)
        wavenumbers = []
        for axis in range(self.n):
            view = [1] * self.n
            view[axis] = self.size
            wavenumbers.append(k1d.reshape(view))
        ksq = np.zeros(shape)
        for k in wavenumbers:
            ksq = ksq + k**2
        # 2/3 rule: with every kept |k| < size/3 a product of kept modes
        # aliases onto dropped ones only; the bound is strict, so a size
        # divisible by 3 drops its |k| = size/3 modes too
        cutoff = self.size / 3.0
        for name, value in (
            ("shape", shape),
            ("spacing", TWO_PI / self.size),
            ("ksq", ksq),  # on the complex layout, for heat_propagate_many alone
            *self._half_spectrum(k1d, cutoff),
        ):
            object.__setattr__(self, name, value)

    def _half_spectrum(self, k1d: np.ndarray, cutoff: float):
        """Multipliers on the ``rfftn`` layout, whose last axis keeps k >= 0.
        Its first ``band`` columns hold the k_last < size/3 of the 2/3 band.

        Each multiplier is the mean of its values at a mode and at its
        conjugate partner, as the real part of a complex transform would
        give; on a Nyquist plane the partner has the same stored
        wavenumber.  So the derivative multipliers i*k_a (``rderivatives``)
        vanish on the Nyquist plane of axis a, and the Leray projector
        ``rleray[a, b]`` = delta_ab - k_a k_b / |k|^2 (identity on the
        mean) keeps its even terms there; in 1-D it keeps only the mean.
        """
        n, half = self.n, self.size // 2 + 1
        rshape = (self.size,) * (n - 1) + (half,)
        k_last = np.arange(half, dtype=float)
        rwavenumbers, rderivatives = [], []
        for axis in range(n):
            view = [1] * n
            view[axis] = rshape[axis]
            k = (k1d if axis < n - 1 else k_last).reshape(view)
            rwavenumbers.append(k)
            rderivatives.append(_derivative(k, axis, self.size))
        rksq = np.zeros(rshape)
        mask = np.ones(rshape, dtype=bool)
        for k in rwavenumbers:
            rksq = rksq + k**2
            mask &= np.abs(k) < cutoff
        partner = [np.where(np.abs(k) == self.size // 2, k, -k) for k in rwavenumbers]
        safe_ksq = np.where(rksq > 0.0, rksq, 1.0)
        leray = np.zeros((n, n) + rshape)
        for a in range(n):
            for b in range(n):
                kk = 0.5 * (rwavenumbers[a] * rwavenumbers[b] + partner[a] * partner[b])
                leray[a, b] = float(a == b) - kk / safe_ksq
            leray[(a, a) + (0,) * n] = 1.0
        return (
            ("rshape", rshape),
            ("band", int(np.count_nonzero(k_last < cutoff))),
            ("rderivatives", tuple(rderivatives)),
            ("rksq", rksq),
            ("rdealias_mask", mask),
            ("rleray", leray),
        )

    @property
    def num_points(self) -> int:
        return self.size**self.n

    def coords(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays of shape ``self.shape``, one per axis."""
        x = np.arange(self.size) * self.spacing
        if self.n == 1:
            return (x,)
        return tuple(np.meshgrid(x, x, indexing="ij"))


@functools.lru_cache(maxsize=8, typed=True)
def make_grid(n: int, size: int) -> Grid:
    """A validated periodic grid; recent ones are kept, with their tables."""
    return Grid(n=n, size=size)


def _finite(values: np.ndarray) -> np.ndarray:
    """The values, once checked to hold no NaN or infinity, as a Field's are."""
    if not np.all(np.isfinite(values)):
        raise NonFiniteFieldError("field values must be finite")
    return values


def _as_field_values(grid: Grid, values) -> np.ndarray:
    arr = np.array(values, dtype=float, order="C")
    if arr.shape == grid.shape:
        arr = arr[np.newaxis]
    if arr.ndim != grid.n + 1 or arr.shape[1:] != grid.shape:
        raise ValueError(
            f"values of shape {arr.shape} do not fit grid shape {grid.shape}"
        )
    _finite(arr)
    arr.flags.writeable = False
    return arr


def _check_eta(eta):
    if not eta >= 0.0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    return eta


@dataclass(frozen=True)
class Field:
    """Physical-space field with shape (components, *grid.shape).

    Single-component input of shape ``grid.shape`` is promoted to one
    component.  ``t`` is slice time and ``eta`` the filter scale.
    """

    grid: Grid
    values: np.ndarray
    t: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "values", _as_field_values(self.grid, self.values))
        _check_eta(self.eta)

    @property
    def ncomp(self) -> int:
        return self.values.shape[0]

    def component(self, c: int) -> np.ndarray:
        return self.values[c]

    def with_values(self, values=None, *, t=None, eta=None) -> "Field":
        """This field with new values, t or eta.  Without new values the
        read-only, already checked array is shared, not copied."""
        t = self.t if t is None else t
        eta = self.eta if eta is None else eta
        if values is not None:
            return Field(self.grid, values, t=t, eta=eta)
        shared = copy.copy(self)
        object.__setattr__(shared, "t", t)
        object.__setattr__(shared, "eta", _check_eta(eta))
        return shared

    def _check_compatible(self, other: "Field"):
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")
        if self.ncomp != other.ncomp:
            raise ValueError("fields have different component counts")

    def __add__(self, other: "Field") -> "Field":
        self._check_compatible(other)
        return self.with_values(self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        self._check_compatible(other)
        return self.with_values(self.values - other.values)

    def __rmul__(self, scalar) -> "Field":
        return self.with_values(self.values * float(scalar))


def _rfft(grid: Grid, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Batched real forward transform over the trailing spatial axes.  In
    1-D it is the one-axis call, ``rfftn``'s result to the last bit without
    its n-D wrapper, which would cost as much as a short transform."""
    if grid.n == 1:
        return np.fft.rfft(values, axis=-1, out=out)
    return np.fft.rfftn(values, axes=(-2, -1), out=out)


def _irfft(grid: Grid, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of ``_rfft`` onto the grid shape, one-axis in 1-D likewise."""
    if grid.n == 1:
        return np.fft.irfft(coeffs, n=grid.size, axis=-1, out=out)
    return np.fft.irfftn(coeffs, s=grid.shape, axes=(-2, -1), out=out)


def _fft(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Complex forward transform over the trailing spatial axes, one-axis in
    1-D like ``_rfft``: the very call ``fftn`` would make, without its
    wrapper.  ``heat_propagate_many`` alone takes it."""
    if grid.n == 1:
        return np.fft.fft(values, axis=-1)
    return np.fft.fftn(values, axes=(-2, -1))


def _ifft(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Inverse of ``_fft``, one-axis in 1-D likewise."""
    if grid.n == 1:
        return np.fft.ifft(coeffs, axis=-1)
    return np.fft.ifftn(coeffs, axes=(-2, -1))


def _band_rfft(
    grid: Grid, values: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """``_rfft`` of a stack of 2-D fields (rows, *grid.shape) on the band
    columns only: ``rfft`` along the last axis into ``scratch``, a half
    spectrum of the stack, then the complex pass along axis -2 on the first
    ``grid.band`` columns.  Rows past the 2/3 cut are kept."""
    band = np.fft.rfft(values, axis=-1, out=scratch)[..., : grid.band]
    return np.fft.fft(band, axis=-2, out=out)


def _band_irfft(grid: Grid, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of ``_band_rfft``, and in 1-D of ``_rfft``'s first columns:
    the columns past those given are taken as zero.  In 2-D the complex
    pass runs in place, so ``coeffs`` are overwritten; ``irfft`` zero-pads
    the short rows itself."""
    if grid.n == 2:
        np.fft.ifft(coeffs, axis=-2, out=coeffs)
    return np.fft.irfft(coeffs, n=grid.size, axis=-1, out=out)


def _dealias_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """The 2/3-rule cut of values on the half spectrum, back in physical
    space.  Trailing axes are spatial; a leading component axis is optional."""
    coeffs = _rfft(grid, values)
    coeffs *= grid.rdealias_mask
    return _irfft(grid, coeffs)


def spectral_derivative(f: Field, axis: int) -> Field:
    """Exact Fourier derivative along a spatial axis, one real transform each way.

    The Nyquist mode of that axis is zeroed so the result stays real.
    """
    grid = f.grid
    if not 0 <= axis < grid.n:
        raise ValueError(f"axis {axis} out of range for {grid.n}-dimensional grid")
    coeffs = _rfft(grid, f.values)
    coeffs *= grid.rderivatives[axis]
    return f.with_values(_irfft(grid, coeffs))


def laplacian(f: Field) -> Field:
    """Sum of second derivatives over the spatial axes."""
    coeffs = _rfft(f.grid, f.values)
    coeffs *= -f.grid.rksq
    return f.with_values(_irfft(f.grid, coeffs))


def divergence(f: Field) -> Field:
    """Divergence of an n-component field, one transform each way."""
    grid = f.grid
    if f.ncomp != grid.n:
        raise ValueError(
            f"divergence expects {grid.n} components, got {f.ncomp}"
        )
    coeffs = _rfft(grid, f.values)
    return f.with_values(_irfft(grid, sum(d * c for d, c in zip(grid.rderivatives, coeffs))))


def _peak(values: np.ndarray) -> np.floating:
    """max |values| from the max and the min, with no temporary |values|."""
    return max(values.max(), -values.min())


def _value_norms(grid: Grid, values: np.ndarray) -> tuple[float, float]:
    """``field_norms`` of a stack of component values, with no temporaries."""
    mean_sq = float(np.vdot(values, values)) / grid.num_points
    return float(np.sqrt(mean_sq) * TWO_PI**grid.n), float(_peak(values))


def field_norms(f: Field) -> tuple[float, float]:
    """(l2, max): root-mean-square over points times the domain measure,
    and the max absolute value over all components and points."""
    return _value_norms(f.grid, f.values)
