"""Grid, field and spectral-operator behavior."""

import numpy as np
import pytest

from scalepde import (
    Field,
    NonFiniteFieldError,
    TensorField,
    dealiased,
    divergence,
    field_norms,
    laplacian,
    make_grid,
    restrict_to_grid,
    spectral_derivative,
)
from scalepde.grid import TWO_PI, _irfft, _rfft

from oracles import fd_derivative


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
        g = make_grid(1, 8)
        k = np.sort(g.wavenumbers[0].ravel())
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

    def test_arithmetic(self, grid1d):
        x = grid1d.coords()[0]
        f = Field(grid1d, np.sin(x), t=0.5, eta=0.1)
        g = Field(grid1d, np.cos(x), t=0.5, eta=0.1)
        total = f + 2.0 * g - g
        assert np.allclose(total.values, np.sin(x) + np.cos(x), atol=1e-15)
        assert total.t == 0.5 and total.eta == 0.1


class TestSpectralDerivative:
    def test_sin_to_cos(self, grid1d):
        x = grid1d.coords()[0]
        d = spectral_derivative(Field(grid1d, np.sin(x)), 0)
        assert np.max(np.abs(d.component(0) - np.cos(x))) <= 1e-12

    def test_against_fd_oracle(self, grid1d):
        x = grid1d.coords()[0]
        vals = np.sin(x) + 0.3 * np.cos(3 * x)
        d = spectral_derivative(Field(grid1d, vals), 0)
        oracle = fd_derivative(vals, 0, grid1d.spacing)
        # agreement limited only by the 4th-order FD truncation error,
        # h^4/30 * max|f^(5)| ~ 1.5e-5 here
        assert np.max(np.abs(d.component(0) - oracle)) <= 5e-5

    def test_second_order(self, grid1d):
        x = grid1d.coords()[0]
        d2 = spectral_derivative(Field(grid1d, np.sin(x)), 0, order=2)
        assert np.max(np.abs(d2.component(0) + np.sin(x))) <= 1e-12

    def test_constant_derivative_zero(self, grid2d):
        f = Field(grid2d, np.full(grid2d.shape, 2.5))
        d = spectral_derivative(f, 1)
        assert np.max(np.abs(d.values)) <= 1e-13

    def test_linearity(self, grid2d, rng):
        a = rng.standard_normal(grid2d.shape)
        b = rng.standard_normal(grid2d.shape)
        left = spectral_derivative(Field(grid2d, 2.0 * a - 3.0 * b), 0)
        right = 2.0 * spectral_derivative(Field(grid2d, a), 0) - 3.0 * spectral_derivative(
            Field(grid2d, b), 0
        )
        assert np.allclose(left.values, right.values, atol=1e-10)

    def test_mixed_partials_commute(self, grid2d, rng):
        f = Field(grid2d, rng.standard_normal(grid2d.shape))
        dxy = spectral_derivative(spectral_derivative(f, 0), 1)
        dyx = spectral_derivative(spectral_derivative(f, 1), 0)
        assert np.max(np.abs(dxy.values - dyx.values)) <= 1e-12 * np.max(np.abs(dxy.values) + 1)

    def test_bad_axis(self, grid1d):
        with pytest.raises(ValueError, match="axis"):
            spectral_derivative(Field(grid1d, np.zeros(grid1d.shape)), 1)

    def test_bad_order(self, grid1d):
        with pytest.raises(ValueError, match="order"):
            spectral_derivative(Field(grid1d, np.zeros(grid1d.shape)), 0, order=0)


class TestLaplacian:
    def test_sin_eigenfunction(self, grid1d):
        x = grid1d.coords()[0]
        lap = laplacian(Field(grid1d, np.sin(2 * x)))
        assert np.max(np.abs(lap.component(0) + 4.0 * np.sin(2 * x))) <= 1e-11

    def test_matches_sum_of_second_derivatives(self, grid2d, rng):
        f = Field(grid2d, rng.standard_normal(grid2d.shape))
        explicit = spectral_derivative(f, 0, order=2) + spectral_derivative(f, 1, order=2)
        assert np.allclose(laplacian(f).values, explicit.values, atol=1e-9)


class TestDealias:
    def test_keeps_low_kills_high(self):
        g = make_grid(1, 64)
        x = g.coords()[0]
        f = Field(g, np.sin(x) + np.sin(31 * x))
        clean = dealiased(f)
        assert np.max(np.abs(clean.component(0) - np.sin(x))) <= 1e-12

    def test_idempotent(self, grid2d, rng):
        f = Field(grid2d, rng.standard_normal(grid2d.shape))
        once = dealiased(f)
        twice = dealiased(once)
        assert np.max(np.abs(once.values - twice.values)) <= 1e-13


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


class TestVectorCalculus:
    def test_gradient_divergence(self, grid2d):
        x, y = grid2d.coords()
        p = Field(grid2d, np.sin(x) * np.cos(y))
        grad = Field(grid2d, np.stack([spectral_derivative(p, a).component(0) for a in range(2)]))
        assert np.max(np.abs(grad.component(0) - np.cos(x) * np.cos(y))) <= 1e-12
        assert np.max(np.abs(grad.component(1) + np.sin(x) * np.sin(y))) <= 1e-12
        div = divergence(grad)
        lap = laplacian(p)
        assert np.allclose(div.values, lap.values, atol=1e-11)


class TestRestrict:
    def test_low_modes_preserved(self):
        fine = make_grid(1, 256)
        coarse = make_grid(1, 64)
        xf = fine.coords()[0]
        xc = coarse.coords()[0]
        f = Field(fine, np.sin(xf) + 0.5 * np.cos(7 * xf), t=0.1, eta=0.2)
        r = restrict_to_grid(f, coarse)
        assert np.max(np.abs(r.component(0) - (np.sin(xc) + 0.5 * np.cos(7 * xc)))) <= 1e-12
        assert r.t == 0.1 and r.eta == 0.2

    def test_high_modes_dropped(self):
        fine = make_grid(1, 256)
        coarse = make_grid(1, 64)
        xf = fine.coords()[0]
        r = restrict_to_grid(Field(fine, np.sin(40 * xf)), coarse)
        assert np.max(np.abs(r.values)) <= 1e-13

    def test_2d(self):
        fine = make_grid(2, 128)
        coarse = make_grid(2, 32)
        xf, yf = fine.coords()
        xc, yc = coarse.coords()
        f = Field(fine, np.sin(xf) * np.cos(2 * yf))
        r = restrict_to_grid(f, coarse)
        assert np.max(np.abs(r.component(0) - np.sin(xc) * np.cos(2 * yc))) <= 1e-12


class TestTensorField:
    def test_symmetric_storage(self, grid2d):
        vals = np.stack(
            [np.ones(grid2d.shape), 2 * np.ones(grid2d.shape), 3 * np.ones(grid2d.shape)]
        )
        tf = TensorField(grid2d, vals)
        assert tf.pairs == ((0, 0), (0, 1), (1, 1))
        assert np.array_equal(tf.component(1, 0), tf.component(0, 1))

    def test_component_count_checked(self, grid2d):
        with pytest.raises(ValueError, match="tensor components"):
            TensorField(grid2d, np.zeros((2,) + grid2d.shape))
