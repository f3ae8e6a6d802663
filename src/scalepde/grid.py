"""Periodic spectral grids and fields.

Everything lives on the uniform grid over the 2*pi-periodic torus in one
or two spatial dimensions.  Differentiation, dealiasing and mode surgery
all happen in Fourier space; fields themselves are stored in physical
space with a leading component axis.
"""

from __future__ import annotations

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
        cutoff = self.size / 3.0
        mask = np.ones(shape, dtype=bool)
        for k in wavenumbers:
            mask &= np.abs(k) <= cutoff
        for name, value in (
            ("shape", shape),
            ("spacing", TWO_PI / self.size),
            ("wavenumbers", tuple(wavenumbers)),
            ("ksq", ksq),
            ("dealias_mask", mask),
            *self._half_spectrum(k1d, cutoff),
        ):
            object.__setattr__(self, name, value)

    def _half_spectrum(self, k1d: np.ndarray, cutoff: float):
        """Multipliers on the ``rfftn`` layout, whose last axis keeps k >= 0.

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
            odd = 1j * k
            odd[(slice(None),) * axis + (self.size // 2,)] = 0.0
            rwavenumbers.append(k)
            rderivatives.append(odd)
        rksq = np.zeros(rshape)
        mask = np.ones(rshape, dtype=bool)
        for k in rwavenumbers:
            rksq = rksq + k**2
            mask &= np.abs(k) <= cutoff
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


def make_grid(n: int, size: int) -> Grid:
    """Build a validated periodic grid."""
    return Grid(n=n, size=size)


def _as_field_values(grid: Grid, values) -> np.ndarray:
    arr = np.array(values, dtype=float, order="C")
    if arr.shape == grid.shape:
        arr = arr[np.newaxis]
    if arr.ndim != grid.n + 1 or arr.shape[1:] != grid.shape:
        raise ValueError(
            f"values of shape {arr.shape} do not fit grid shape {grid.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise NonFiniteFieldError("field values must be finite")
    arr.flags.writeable = False
    return arr


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
        if not self.eta >= 0.0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")

    @property
    def ncomp(self) -> int:
        return self.values.shape[0]

    def component(self, c: int) -> np.ndarray:
        return self.values[c]

    def with_values(self, values=None, *, t=None, eta=None) -> "Field":
        return Field(
            grid=self.grid,
            values=self.values if values is None else values,
            t=self.t if t is None else t,
            eta=self.eta if eta is None else eta,
        )

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

    def __neg__(self) -> "Field":
        return self.with_values(-self.values)

    def __mul__(self, scalar) -> "Field":
        return self.with_values(self.values * float(scalar))

    __rmul__ = __mul__


def _spatial_axes(grid: Grid) -> tuple[int, ...]:
    return tuple(range(1, grid.n + 1))


def _rfft(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Batched real forward transform over the trailing spatial axes."""
    return np.fft.rfftn(values, axes=tuple(range(-grid.n, 0)))


def _irfft(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Inverse of ``_rfft`` onto the grid shape."""
    return np.fft.irfftn(coeffs, s=grid.shape, axes=tuple(range(-grid.n, 0)))


def _dealiased_hat(grid: Grid, products: np.ndarray) -> np.ndarray:
    """Half-spectrum coefficients of products, 2/3-rule masked."""
    coeffs = _rfft(grid, products)
    coeffs *= grid.rdealias_mask
    return coeffs


def _with_gradients(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Half-spectrum stack of m components followed by their gradients.

    Entry m + a*n + b holds d_b of component a, so after ``_irfft`` the
    tail reshapes to ``(m, n) + grid.shape``.
    """
    m = coeffs.shape[0]
    out = np.empty((m * (grid.n + 1),) + grid.rshape, dtype=complex)
    out[:m] = coeffs
    grads = out[m:].reshape((m, grid.n) + grid.rshape)
    for b, d in enumerate(grid.rderivatives):
        np.multiply(coeffs, d, out=grads[:, b])
    return out


def _dealias_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    # trailing axes are spatial; a leading component axis is optional
    axes = tuple(range(values.ndim - grid.n, values.ndim))
    coeffs = np.fft.fftn(values, axes=axes)
    coeffs *= grid.dealias_mask
    return np.fft.ifftn(coeffs, axes=axes).real


def dealiased(f: Field) -> Field:
    """Physical-space round trip through the 2/3-rule mask."""
    return f.with_values(_dealias_values(f.grid, f.values))


def spectral_derivative(f: Field, axis: int, order: int = 1) -> Field:
    """Exact Fourier derivative along a spatial axis.

    Odd-order derivatives zero the Nyquist mode of that axis so the
    result stays real.
    """
    grid = f.grid
    if not 0 <= axis < grid.n:
        raise ValueError(f"axis {axis} out of range for {grid.n}-dimensional grid")
    if order < 1:
        raise ValueError(f"derivative order must be >= 1, got {order}")
    coeffs = np.fft.fftn(f.values, axes=_spatial_axes(grid))
    coeffs *= (1j * grid.wavenumbers[axis]) ** order
    if order % 2 == 1:
        idx = [slice(None)] * (grid.n + 1)
        idx[axis + 1] = grid.size // 2
        coeffs[tuple(idx)] = 0.0
    vals = np.fft.ifftn(coeffs, axes=_spatial_axes(grid)).real
    return f.with_values(vals)


def laplacian(f: Field) -> Field:
    """Sum of second derivatives over the spatial axes."""
    coeffs = np.fft.fftn(f.values, axes=_spatial_axes(f.grid))
    coeffs *= -f.grid.ksq
    return f.with_values(np.fft.ifftn(coeffs, axes=_spatial_axes(f.grid)).real)


def divergence(f: Field) -> Field:
    """Divergence of an n-component field."""
    if f.ncomp != f.grid.n:
        raise ValueError(
            f"divergence expects {f.grid.n} components, got {f.ncomp}"
        )
    vals = np.zeros(f.grid.shape)
    for axis in range(f.grid.n):
        comp = f.with_values(f.values[axis : axis + 1])
        vals = vals + spectral_derivative(comp, axis).component(0)
    return f.with_values(vals[np.newaxis])


def field_norms(f: Field) -> tuple[float, float]:
    """(l2, max): root-mean-square over points times the domain measure,
    and the max absolute value over all components and points."""
    measure = TWO_PI ** f.grid.n
    mean_sq = float(np.mean(np.sum(f.values**2, axis=0)))
    l2 = float(np.sqrt(mean_sq) * measure)
    vmax = float(np.max(np.abs(f.values)))
    return l2, vmax


def restrict_to_grid(f: Field, coarse: Grid) -> Field:
    """Spectral restriction onto a coarser grid of the same dimension.

    Modes representable on the coarse grid are copied; the coarse
    Nyquist mode is left at zero.
    """
    fine = f.grid
    if coarse.n != fine.n:
        raise ValueError("grids have different dimensions")
    if coarse.size > fine.size:
        raise ValueError("target grid must not be finer than the source")
    if coarse.size == fine.size:
        return Field(coarse, f.values, t=f.t, eta=f.eta)
    half = coarse.size // 2
    src = list(range(half)) + list(range(fine.size - half + 1, fine.size))
    dst = list(range(half)) + list(range(half + 1, coarse.size))
    coeffs = np.fft.fftn(f.values, axes=_spatial_axes(fine))
    out = np.zeros((f.ncomp,) + coarse.shape, dtype=complex)
    comp = range(f.ncomp)
    if fine.n == 1:
        out[np.ix_(comp, dst)] = coeffs[np.ix_(comp, src)]
    else:
        out[np.ix_(comp, dst, dst)] = coeffs[np.ix_(comp, src, src)]
    out *= (coarse.size / fine.size) ** fine.n
    vals = np.fft.ifftn(out, axes=_spatial_axes(coarse)).real
    return Field(coarse, vals, t=f.t, eta=f.eta)


def _tensor_pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((a, b) for a in range(n) for b in range(a, n))


@dataclass(frozen=True)
class TensorField:
    """Symmetric rank-2 tensor field stored by unordered index pair."""

    grid: Grid
    values: np.ndarray
    t: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        arr = _as_field_values(self.grid, self.values)
        npairs = len(_tensor_pairs(self.grid.n))
        if arr.shape[0] != npairs:
            raise ValueError(
                f"expected {npairs} tensor components for n={self.grid.n}, "
                f"got {arr.shape[0]}"
            )
        object.__setattr__(self, "values", arr)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return _tensor_pairs(self.grid.n)

    def component(self, a: int, b: int) -> np.ndarray:
        lo, hi = min(a, b), max(a, b)
        return self.values[self.pairs.index((lo, hi))]
