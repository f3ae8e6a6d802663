"""Grid, field and spectral-operator behavior."""

import numpy as np
import pytest

from scalepde import (
    Field,
    NonFiniteFieldError,
    divergence,
    field_norms,
    laplacian,
    make_grid,
    spectral_derivative,
)
from scalepde.grid import (
    TWO_PI,
    _axis_wavenumbers,
    _band_irfft,
    _band_rfft,
    _dealias_values,
    _irfft,
    _rfft,
)

from oracles import _complex_ops, complex_dealias, fd_derivative


def dealiased(f: Field) -> Field:
    """The half-spectrum 2/3 cut of a field, back in physical space."""
    return f.with_values(_dealias_values(f.grid, f.values))


class TestGridValidation:
    """make_grid rejects unsupported dimensions and sizes."""

    @pytest.mark.parametrize("n", [0, 3, -1])
    def test_bad_dimension(self, n):
        with pytest.raises(ValueError, match="dimension"):
            make_grid(n, 64)

    @pytest.mark.parametrize("size", [2, 63, -8])
    def test_bad_size(self, size):
        with pytest.raises(ValueError, match="size"):
            make_grid(2, size)

    def test_wavenumber_lattice(self):
        k = np.sort(_axis_wavenumbers(8))
        assert np.array_equal(k, np.arange(-3, 5))

    def test_ksq_even_in_k(self, grid2d):
        # |k|^2 must not depend on the Nyquist sign convention
        assert grid2d.ksq.max() == 2 * (grid2d.size // 2) ** 2
        assert grid2d.ksq[0, 0] == 0.0


class TestFieldValidation:
    def test_shape_promotion(self, grid1d):
        f = Field(grid1d, np.zeros(grid1d.shape))
        assert f.values.shape == (1, grid1d.size)

    def test_shape_mismatch(self, grid1d):
        with pytest.raises(ValueError, match="shape"):
            Field(grid1d, np.zeros(17))

    def test_non_finite_rejected(self, grid1d):
        vals = np.zeros(grid1d.shape)
        vals[3] = np.nan
        with pytest.raises(NonFiniteFieldError):
            Field(grid1d, vals)

    def test_negative_eta_rejected(self, grid1d):
        with pytest.raises(ValueError, match="eta"):
            Field(grid1d, np.zeros(grid1d.shape), eta=-0.1)

    def test_values_read_only(self, grid1d):
        f = Field(grid1d, np.zeros(grid1d.shape))
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0

    def test_with_values_builds_a_checked_field(self, grid1d):
        f = Field(grid1d, np.sin(grid1d.coords()[0]), t=0.5, eta=0.1)
        g = f.with_values(eta=0.05)
        assert g is not f and np.array_equal(g.values, f.values)
        assert (g.t, g.eta, f.t, f.eta) == (0.5, 0.05, 0.5, 0.1)
        assert not g.values.flags.writeable
        with pytest.raises(ValueError, match="eta"):
            f.with_values(eta=-0.1)
        with pytest.raises(NonFiniteFieldError):
            f.with_values(np.full(grid1d.shape, np.inf))


class TestSpectralDerivative:
    def test_sin_to_cos(self, grid1d):
        x = grid1d.coords()[0]
        d = spectral_derivative(Field(grid1d, np.sin(x)), 0)
        assert np.max(np.abs(d.values[0] - np.cos(x))) <= 1e-12

    def test_against_fd_oracle(self, grid1d):
        x = grid1d.coords()[0]
        vals = np.sin(x) + 0.3 * np.cos(3 * x)
        d = spectral_derivative(Field(grid1d, vals), 0)
        oracle = fd_derivative(vals, 0, grid1d.spacing)
        # agreement limited only by the 4th-order FD truncation error,
        # h^4/30 * max|f^(5)| ~ 1.5e-5 here
        assert np.max(np.abs(d.values[0] - oracle)) <= 5e-5

    def test_second_order(self, grid1d):
        x = grid1d.coords()[0]
        d2 = spectral_derivative(spectral_derivative(Field(grid1d, np.sin(x)), 0), 0)
        assert np.max(np.abs(d2.values[0] + np.sin(x))) <= 1e-12

    def test_constant_derivative_zero(self, grid2d):
        f = Field(grid2d, np.full(grid2d.shape, 2.5))
        d = spectral_derivative(f, 1)
        assert np.max(np.abs(d.values)) <= 1e-13

    def test_linearity(self, grid2d, rng):
        a = rng.standard_normal(grid2d.shape)
        b = rng.standard_normal(grid2d.shape)
        left = spectral_derivative(Field(grid2d, 2.0 * a - 3.0 * b), 0)
        right = 2.0 * spectral_derivative(Field(grid2d, a), 0).values - 3.0 * spectral_derivative(
            Field(grid2d, b), 0
        ).values
        assert np.allclose(left.values, right, atol=1e-10)

    def test_mixed_partials_commute(self, grid2d, rng):
        f = Field(grid2d, rng.standard_normal(grid2d.shape))
        dxy = spectral_derivative(spectral_derivative(f, 0), 1)
        dyx = spectral_derivative(spectral_derivative(f, 1), 0)
        assert np.max(np.abs(dxy.values - dyx.values)) <= 1e-12 * np.max(np.abs(dxy.values) + 1)

    def test_bad_axis(self, grid1d):
        with pytest.raises(ValueError, match="axis"):
            spectral_derivative(Field(grid1d, np.zeros(grid1d.shape)), 1)


class TestLaplacian:
    def test_sin_eigenfunction(self, grid1d):
        x = grid1d.coords()[0]
        lap = laplacian(Field(grid1d, np.sin(2 * x)))
        assert np.max(np.abs(lap.values[0] + 4.0 * np.sin(2 * x))) <= 1e-11

    def test_matches_sum_of_second_derivatives(self, grid2d, rng):
        # first derivatives zero the Nyquist modes, so keep none
        f = dealiased(Field(grid2d, rng.standard_normal(grid2d.shape)))
        dxx, dyy = (spectral_derivative(spectral_derivative(f, a), a) for a in (0, 1))
        assert np.allclose(laplacian(f).values, dxx.values + dyy.values, atol=1e-9)


class TestDealias:
    def test_keeps_low_kills_high(self):
        g = make_grid(1, 64)
        x = g.coords()[0]
        f = Field(g, np.sin(x) + np.sin(31 * x))
        clean = dealiased(f)
        assert np.max(np.abs(clean.values[0] - np.sin(x))) <= 1e-12

    def test_idempotent(self, grid2d, rng):
        f = Field(grid2d, rng.standard_normal(grid2d.shape))
        once = dealiased(f)
        twice = dealiased(once)
        assert np.max(np.abs(once.values - twice.values)) <= 1e-13
        assert np.max(np.abs(once.values - complex_dealias(f.values))) <= 1e-13


class TestNorms:
    def test_sin_l2(self, grid1d):
        f = Field(grid1d, np.sin(grid1d.coords()[0]))
        l2, vmax = field_norms(f)
        assert abs(l2 - np.pi * np.sqrt(2.0)) <= 1e-10
        assert abs(vmax - 1.0) <= 1e-14

    def test_zero_field(self, grid2d):
        assert field_norms(Field(grid2d, np.zeros(grid2d.shape))) == (0.0, 0.0)

    def test_parseval(self, grid2d, rng):
        f = Field(grid2d, rng.standard_normal((2,) + grid2d.shape))
        l2, _ = field_norms(f)
        coeffs = np.fft.fftn(f.values, axes=(1, 2))
        measure = TWO_PI ** grid2d.n
        spectral_l2 = (
            np.sqrt(np.sum(np.abs(coeffs) ** 2)) / grid2d.num_points * measure
        )
        assert abs(l2 - spectral_l2) <= 1e-10 * l2


class TestSpectralRoundTrip:
    def test_round_trip(self, grid2d, rng):
        values = rng.standard_normal((2,) + grid2d.shape)
        coeffs = _rfft(grid2d, values)
        assert coeffs.shape == (2,) + grid2d.rshape
        assert np.max(np.abs(_irfft(grid2d, coeffs) - values)) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("size", [4, 6, 64])
    @pytest.mark.parametrize("lead", [(1,), (3,), (2, 2)])
    def test_equal_to_the_n_d_transforms(self, n, size, lead, rng):
        """Bit for bit the numpy n-D real transforms over the trailing axes,
        given an output array or not, and the input left as it was."""
        grid = make_grid(n, size)
        axes = tuple(range(-n, 0))
        values = rng.standard_normal(lead + grid.shape)
        want = np.fft.rfftn(values, axes=axes)
        np.testing.assert_array_equal(_rfft(grid, values), want)
        out = np.empty(lead + grid.rshape, complex)
        assert _rfft(grid, values, out=out) is out
        np.testing.assert_array_equal(out, want)
        back = np.fft.irfftn(want, s=grid.shape, axes=axes)
        coeffs = want.copy()
        np.testing.assert_array_equal(_irfft(grid, coeffs), back)
        phys = np.empty(lead + grid.shape)
        assert _irfft(grid, coeffs, out=phys) is phys
        np.testing.assert_array_equal(phys, back)
        np.testing.assert_array_equal(coeffs, want)


class TestBandTransforms:
    """The band transforms are the half-spectrum ones restricted to the
    columns k_last < size/3 of the 2/3 band."""

    SIZES = [(4, 2), (6, 2), (30, 10), (32, 11), (48, 16), (64, 22)]

    @staticmethod
    def _band_limited(n, size, band, rng):
        grid = make_grid(n, size)
        # a size divisible by 3 drops its |k| = size/3 column
        assert grid.band == band
        assert grid.rdealias_mask[..., band - 1].any() and not grid.rdealias_mask[..., band:].any()
        values = _dealias_values(grid, rng.standard_normal((3,) + grid.shape))
        return grid, values, _rfft(grid, values) * grid.rdealias_mask

    @pytest.mark.parametrize("size, band", SIZES)
    def test_match_masked_half_spectrum(self, size, band, rng):
        """The forward transform serves the 2-D kernel alone."""
        grid, values, want = self._band_limited(2, size, band, rng)
        coeffs = _band_rfft(grid, values)
        assert coeffs.shape == (3,) + grid.rshape[:-1] + (band,)
        assert np.max(np.abs(coeffs - want[..., :band])) <= 1e-14 * np.max(np.abs(want))
        back = _band_irfft(grid, coeffs)
        assert np.max(np.abs(back - _irfft(grid, want))) <= 1e-14 * np.max(np.abs(values))
        assert np.max(np.abs(back - values)) <= 1e-14 * np.max(np.abs(values))

    @pytest.mark.parametrize("size, band", SIZES)
    def test_inverse_zero_pads_the_band_in_1d(self, size, band, rng):
        grid, values, want = self._band_limited(1, size, band, rng)
        back = _band_irfft(grid, want[..., :band].copy())
        assert np.max(np.abs(back - _irfft(grid, want))) <= 1e-14 * np.max(np.abs(values))
        assert np.max(np.abs(back - values)) <= 1e-14 * np.max(np.abs(values))


class TestVectorCalculus:
    def test_gradient_divergence(self, grid2d):
        x, y = grid2d.coords()
        p = Field(grid2d, np.sin(x) * np.cos(y))
        grad = Field(grid2d, np.stack([spectral_derivative(p, a).values[0] for a in range(2)]))
        assert np.max(np.abs(grad.values[0] - np.cos(x) * np.cos(y))) <= 1e-12
        assert np.max(np.abs(grad.values[1] + np.sin(x) * np.sin(y))) <= 1e-12
        div = divergence(grad)
        lap = laplacian(p)
        assert np.allclose(div.values, lap.values, atol=1e-11)

    @pytest.mark.parametrize("n", [1, 2])
    def test_divergence_matches_complex_derivatives(self, n, rng):
        """One half-spectrum round trip equals the per-axis complex
        derivatives, Nyquist content included."""
        grid = make_grid(n, 16)
        values = rng.standard_normal((n,) + grid.shape)
        assert np.max(np.abs(_rfft(grid, values)[(slice(None),) * n + (grid.size // 2,)])) > 0.1
        _, _, deriv, _ = _complex_ops(n, grid.size)
        want = sum(deriv(values[a], a) for a in range(n))
        div = divergence(Field(grid, values, t=0.3, eta=0.1))
        assert div.values.shape == (1,) + grid.shape and (div.t, div.eta) == (0.3, 0.1)
        assert np.max(np.abs(div.values[0] - want)) <= 1e-13
