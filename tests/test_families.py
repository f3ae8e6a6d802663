"""Manufactured families: analytic derivatives checked by finite differences."""

import numpy as np
import pytest

from scalepde import (
    Field,
    divergence,
    field_norms,
    heat_propagate,
    laplacian,
    make_grid,
)
from scalepde.families import (
    filtered_taylor_green,
    random_band_limited,
    random_solenoidal,
    single_mode_solenoidal,
    taylor_green,
)
from oracles import (
    full_grid_random,
    manufactured_burgers,
    manufactured_fluid,
    manufactured_scalar_2d,
    taylor_green_pressure,
)


def _eta_defect_fd(build_u, eta, delta=1e-4):
    """(u(eta+d) - u(eta-d)) / 2d - laplacian(u(eta)): an O(d^2) psi oracle."""
    up, um, u0 = build_u(eta + delta), build_u(eta - delta), build_u(eta)
    d_eta = (up.values - um.values) / (2.0 * delta)
    return d_eta - laplacian(u0).values


class TestBasicFields:
    def test_cellular_is_solenoidal(self, grid2d):
        v = taylor_green(grid2d, amplitude=2.5)
        assert field_norms(divergence(v))[1] <= 1e-12
        assert np.max(np.abs(v.values)) == pytest.approx(2.5)

    def test_pressure_zero_mean(self, grid2d):
        p = taylor_green_pressure(grid2d, amplitude=1.5)
        assert abs(p.values.mean()) <= 1e-13

    def test_single_mode_properties(self, grid2d):
        v = single_mode_solenoidal(grid2d, k=(1, 2), amplitude=0.7)
        assert field_norms(divergence(v))[1] <= 1e-12
        coeffs = np.fft.fftn(v.values[0])
        live = np.argwhere(np.abs(coeffs) > 1e-10 * grid2d.num_points)
        assert {tuple(ij) for ij in live} <= {(1, 2), (63, 62)}

    def test_band_limited_spectrum(self, grid2d, rng):
        f = random_band_limited(grid2d, rng, kmax=3, amplitude=1.2)
        coeffs = np.fft.fftn(f.values[0])
        k = np.abs(np.fft.fftfreq(grid2d.size, 1.0 / grid2d.size))
        for outside in (k[:, np.newaxis] > 3, k[np.newaxis, :] > 3):
            assert np.max(np.abs(np.broadcast_to(outside, coeffs.shape) * coeffs)) <= 1e-10
        assert np.max(np.abs(f.values)) == pytest.approx(1.2)

    def test_random_solenoidal_properties(self, grid2d, rng):
        v = random_solenoidal(grid2d, rng, kmax=5, amplitude=0.9)
        assert field_norms(divergence(v))[1] <= 1e-11
        assert abs(v.values.mean()) <= 1e-13
        assert np.max(np.abs(v.values)) == pytest.approx(0.9)

    @pytest.mark.parametrize("size", [4, 8, 16])
    def test_random_solenoidal_up_to_nyquist(self, size):
        # kmax = size/2 reaches the Nyquist planes, which the draw leaves out
        grid = make_grid(2, size)
        v = random_solenoidal(grid, np.random.default_rng(size), kmax=size // 2)
        assert field_norms(divergence(v))[1] <= 1e-13
        coeffs = np.fft.fftn(v.values, axes=(1, 2))
        assert np.max(np.abs(coeffs[:, size // 2, :])) <= 1e-12
        assert np.max(np.abs(coeffs[:, :, size // 2])) <= 1e-12


class TestDrawsOnTheirColumns:
    """A random draw transforms only its kept columns along axis -2 and
    back; each column is transformed on its own, so its values are those
    of the whole-grid transform pair bit for bit (a grid divisible by 3
    included, and kmax at or past N/2)."""

    CASES = [
        (1, 64, 4), (1, 16, 8), (2, 8, 4), (2, 12, 4),
        (2, 64, 4), (2, 128, 8), (2, 256, 4), (2, 48, 30), (2, 96, 6),
    ]

    @pytest.mark.parametrize("n, size, kmax", CASES)
    def test_band_limited(self, n, size, kmax):
        grid = make_grid(n, size)
        got = random_band_limited(grid, np.random.default_rng(size), 2, kmax, amplitude=1.3)
        want = full_grid_random(grid, np.random.default_rng(size), 2, kmax, 1.3, solenoidal=False)
        assert np.array_equal(got.values, want)

    @pytest.mark.parametrize("n, size, kmax", [case for case in CASES if case[0] == 2])
    def test_solenoidal(self, n, size, kmax):
        grid = make_grid(n, size)
        got = random_solenoidal(grid, np.random.default_rng(size), kmax, amplitude=0.7)
        want = full_grid_random(grid, np.random.default_rng(size), n, kmax, 0.7, solenoidal=True)
        assert np.array_equal(got.values, want)


class TestManufacturedBurgers:
    def test_psi_matches_fd_oracle(self, grid1d):
        eta = 0.08
        slice_ = manufactured_burgers(grid1d, 0.3, eta)
        oracle = _eta_defect_fd(
            lambda e: manufactured_burgers(grid1d, 0.3, e).u, eta
        )
        assert np.max(np.abs(slice_.psi.values - oracle)) <= 1e-6

    def test_u_t_exact_for_linear_time_dependence(self, grid1d):
        eta, d = 0.08, 1e-3
        up = manufactured_burgers(grid1d, 0.3 + d, eta).u
        um = manufactured_burgers(grid1d, 0.3 - d, eta).u
        fd = (up.values - um.values) / (2.0 * d)
        assert np.max(np.abs(fd - manufactured_burgers(grid1d, 0.3, eta).u_t.values)) <= 1e-10

    def test_psi_t_consistent(self, grid1d):
        eta, d = 0.08, 1e-3
        pp = manufactured_burgers(grid1d, 0.3 + d, eta).psi
        pm = manufactured_burgers(grid1d, 0.3 - d, eta).psi
        fd = (pp.values - pm.values) / (2.0 * d)
        got = manufactured_burgers(grid1d, 0.3, eta).psi_t.values
        assert np.max(np.abs(fd - got)) <= 1e-10

    def test_defect_is_nontrivial(self, grid1d):
        assert field_norms(manufactured_burgers(grid1d, 0.0, 0.1).psi)[1] > 0.1


class TestManufacturedFluid:
    def test_psi_matches_fd_oracle(self, grid2d):
        eta = 0.08
        slice_ = manufactured_fluid(grid2d, 0.2, eta)
        oracle = _eta_defect_fd(
            lambda e: manufactured_fluid(grid2d, 0.2, e).u, eta
        )
        assert np.max(np.abs(slice_.psi.values - oracle)) <= 1e-6

    def test_u_t_exact(self, grid2d):
        eta, d = 0.08, 1e-3
        up = manufactured_fluid(grid2d, 0.2 + d, eta).u
        um = manufactured_fluid(grid2d, 0.2 - d, eta).u
        fd = (up.values - um.values) / (2.0 * d)
        got = manufactured_fluid(grid2d, 0.2, eta).u_t.values
        assert np.max(np.abs(fd - got)) <= 1e-10

    def test_velocity_part_is_compressible(self, grid2d):
        # compressibility is deliberate: it exercises every Frechet entry
        u = manufactured_fluid(grid2d, 0.0, 0.05).u
        v = Field(grid2d, u.values[:2])
        assert field_norms(divergence(v))[1] > 0.1


class TestManufacturedScalar2d:
    def test_psi_matches_fd_oracle(self, grid2d):
        eta = 0.06
        u, psi = manufactured_scalar_2d(grid2d, eta)
        oracle = _eta_defect_fd(
            lambda e: manufactured_scalar_2d(grid2d, e)[0], eta
        )
        assert np.max(np.abs(psi.values - oracle)) <= 1e-6

    def test_metadata(self, grid2d):
        u, psi = manufactured_scalar_2d(grid2d, 0.06, t=0.4)
        assert u.eta == pytest.approx(0.06)
        assert u.t == pytest.approx(0.4)
        assert psi.eta == pytest.approx(0.06)


class TestFilteredTaylorGreen:
    def test_heat_flow_exact(self, grid2d):
        # filtered family: advancing eta by the propagator reproduces the
        # family at the larger scale exactly
        u0, _ = filtered_taylor_green(grid2d, t=0.3, eta=0.02)
        u1, _ = filtered_taylor_green(grid2d, t=0.3, eta=0.09)
        moved = heat_propagate(u0, 0.07)
        assert np.max(np.abs(moved.values - u1.values)) <= 1e-12

    def test_u_t_exact(self, grid2d):
        d = 1e-3
        up, _ = filtered_taylor_green(grid2d, t=0.3 + d, eta=0.05)
        um, _ = filtered_taylor_green(grid2d, t=0.3 - d, eta=0.05)
        fd = (up.values - um.values) / (2.0 * d)
        _, u_t = filtered_taylor_green(grid2d, t=0.3, eta=0.05)
        assert np.max(np.abs(fd - u_t.values)) <= 1e-10

    def test_components(self, grid2d):
        u, u_t = filtered_taylor_green(grid2d, t=0.0, eta=0.05)
        assert u.ncomp == 3 and u_t.ncomp == 3
        v = Field(grid2d, u.values[:2])
        assert field_norms(divergence(v))[1] <= 1e-12
