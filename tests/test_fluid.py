"""Filter stress, divergence-form source, Leray projection and the cores."""

import numpy as np
import pytest

from scalepde import (
    Field,
    advect,
    burgers_core,
    core_by_name,
    divergence,
    exact_residual,
    field_norms,
    fluid_core,
    fluid_source,
    leray_project,
    make_grid,
    sigma,
    spectral_derivative,
)
from scalepde.families import random_band_limited, random_solenoidal, taylor_green
from scalepde.fluid import _tensor_pairs
from oracles import (
    burgers_core_twin,
    burgers_residual,
    complex_advect,
    complex_sigma,
    complex_source,
    fd_fluid_source,
    fd_sigma,
    fluid_core_twin,
    fluid_residual,
    taylor_green_pressure,
)


def _stack(fields):
    """One field holding the components of each field in turn."""
    return Field(fields[0].grid, np.concatenate([f.values for f in fields]))


def _gradient(f):
    return _stack([spectral_derivative(f, a) for a in range(f.grid.n)])


# sigma stores one row per pair a <= b: (0, 0), (0, 1), (1, 1)
_ROW = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}


class TestSigma:
    def test_cellular_closed_form(self, grid2d):
        # for v = (sin x cos y, -cos x sin y) both diagonal entries equal
        # (1 + cos2x cos2y)/2 and sigma12 = sin2x sin2y / 2
        v = taylor_green(grid2d)
        x, y = grid2d.coords()
        stress = sigma(v)
        c2 = np.cos(2 * x) * np.cos(2 * y)
        s2 = np.sin(2 * x) * np.sin(2 * y)
        assert np.max(np.abs(stress.values[_ROW[0, 0]] - 0.5 * (1 + c2))) <= 1e-12
        assert np.max(np.abs(stress.values[_ROW[1, 1]] - 0.5 * (1 + c2))) <= 1e-12
        assert np.max(np.abs(stress.values[_ROW[0, 1]] - 0.5 * s2)) <= 1e-12

    def test_symmetry(self, grid2d, rng):
        # swapping the velocity components swaps the diagonal rows and
        # keeps sigma^{01} = sigma^{10}
        v = random_band_limited(grid2d, rng, ncomp=2, kmax=6)
        stress = sigma(v)
        assert stress.values.shape == (3,) + grid2d.shape
        assert (stress.t, stress.eta) == (v.t, v.eta)
        swapped = sigma(v.with_values(v.values[::-1]))
        assert np.array_equal(swapped.values, stress.values[::-1])

    def test_against_fd_oracle(self, grid2d, rng):
        # agreement is limited by the oracle's own 4th-order truncation,
        # roughly |grad v| * k (kh)^4 / 30 ~ 1e-2 at kmax=5 on 64 points
        v = random_band_limited(grid2d, rng, ncomp=2, kmax=5)
        stress = sigma(v)
        oracle = fd_sigma(v.values, grid2d.spacing)
        scale = max(np.max(np.abs(oracle[(a, b)])) for a in range(2) for b in range(2))
        for a in range(2):
            for b in range(2):
                err = np.max(np.abs(stress.values[_ROW[a, b]] - oracle[(a, b)]))
                assert err <= 1e-2 * scale

    def test_positive_semidefinite(self, grid2d, rng):
        # sigma = G G^T pointwise, so eigenvalues are nonnegative
        stress = sigma(random_solenoidal(grid2d, rng, kmax=5))
        s11 = stress.values[_ROW[0, 0]]
        s22 = stress.values[_ROW[1, 1]]
        s12 = stress.values[_ROW[0, 1]]
        trace = s11 + s22
        det = s11 * s22 - s12 * s12
        min_eig = 0.5 * (trace - np.sqrt(np.maximum(trace * trace - 4 * det, 0.0)))
        assert min_eig.min() >= -1e-10

    def test_component_count_checked(self, grid2d):
        scalar = Field(grid2d, np.zeros(grid2d.shape))
        for call in (sigma, fluid_source, leray_project, lambda f: advect(f, f)):
            with pytest.raises(ValueError, match="expected 2 velocity components, got 1"):
                call(scalar)


class TestFluidSource:
    def test_cellular_flow_annihilated(self, grid2d):
        s = fluid_source(taylor_green(grid2d))
        assert s.ncomp == 3
        assert np.max(np.abs(s.values)) <= 1e-11

    def test_compressible_input_warns(self, grid2d, rng):
        w = random_band_limited(grid2d, rng, ncomp=2, kmax=4)
        with pytest.warns(UserWarning, match="solenoidal"):
            fluid_source(w)

    def test_against_fd_oracle(self, grid2d, rng):
        # the divergence step differentiates product modes up to 2*kmax=8,
        # where the 4th-order oracle itself is only (8h)^4/30 ~ 1.3% accurate
        v = random_solenoidal(grid2d, rng, kmax=4)
        s = fluid_source(v)
        oracle = fd_fluid_source(v.values, grid2d.spacing)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(s.values[:2] - oracle)) <= 3e-2 * scale


class TestAdvection:
    def test_cellular_acceleration(self, grid2d):
        # (v . grad) v = (sin2x, sin2y)/2 for the steady cellular flow
        v = taylor_green(grid2d)
        x, y = grid2d.coords()
        a = advect(v, v)
        assert np.max(np.abs(a.values[0] - 0.5 * np.sin(2 * x))) <= 1e-12
        assert np.max(np.abs(a.values[1] - 0.5 * np.sin(2 * y))) <= 1e-12

    def test_advect_constant_field(self, grid2d, rng):
        v = random_solenoidal(grid2d, rng, kmax=4)
        w = Field(grid2d, np.full((1,) + grid2d.shape, 2.5))
        assert np.max(np.abs(advect(v, w).values)) <= 1e-12


def _assert_close(got, want):
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _velocity(n, size, rng, kmax):
    """A band-limited velocity: solenoidal in 2-D; in 1-D, where a
    solenoidal field is a constant, compressible."""
    grid = make_grid(n, size)
    if n == 2:
        return random_solenoidal(grid, rng, kmax=kmax)
    return random_band_limited(grid, rng, kmax=kmax)


_VELOCITIES = pytest.mark.parametrize(
    "n, size, kmax", [(2, 32, 6), (2, 64, 12), (1, 128, 20)], ids=["32x32", "64x64", "1d"]
)


class TestAgainstComplexOracles:
    """The stress, source and advection, evaluated jet polynomials, against
    their hand-written forms on plain complex transforms."""

    @_VELOCITIES
    def test_sigma(self, rng, n, size, kmax):
        v = _velocity(n, size, rng, kmax)
        want = complex_sigma(v.values)
        _assert_close(sigma(v).values, np.stack([want[a, b] for a, b in _tensor_pairs(n)]))

    @_VELOCITIES
    def test_fluid_source(self, rng, n, size, kmax):
        v = _velocity(n, size, rng, kmax)
        v = Field(v.grid, v.values, t=0.3, eta=0.02)
        if n == 2:
            s = fluid_source(v)
            _assert_close(s.values[:n], complex_source(v.values))
        else:
            # the derived source is -2 v_x v_xx, half of -2 div sigma = -4 v_x v_xx;
            # the two agree on solenoidal fields only, so this one warns
            with pytest.warns(UserWarning, match="solenoidal"):
                s = fluid_source(v)
            _assert_close(s.values[:n], 0.5 * complex_source(v.values))
        assert not s.values[n].any()
        assert (s.t, s.eta) == (0.3, 0.02)

    @_VELOCITIES
    @pytest.mark.parametrize("m", [1, 2])
    def test_advect(self, rng, n, size, kmax, m):
        v = _velocity(n, size, rng, kmax)
        w = random_band_limited(v.grid, rng, ncomp=m, kmax=kmax)
        w = Field(w.grid, w.values, t=0.3, eta=0.02)
        got = advect(v, w)
        assert (got.t, got.eta) == (0.3, 0.02)
        _assert_close(got.values, complex_advect(v.values, w.values))


def _assert_gradient(g, tol):
    """g is curl-free with zero mean, so it is a gradient on the torus."""
    curl = spectral_derivative(g.with_values(g.values[1:]), 0).values - spectral_derivative(
        g.with_values(g.values[:1]), 1
    ).values
    assert np.max(np.abs(curl)) <= tol
    assert np.max(np.abs(g.values.mean(axis=(1, 2)))) <= tol


class TestLeray:
    def test_solenoidal_fixed_point(self, grid2d, rng):
        v = random_solenoidal(grid2d, rng, kmax=6)
        sol = leray_project(v)
        assert np.max(np.abs(sol.values - v.values)) <= 1e-11

    def test_pure_gradient_removed(self, grid2d):
        x, y = grid2d.coords()
        phi = Field(grid2d, np.sin(x) * np.cos(2 * y))
        g = _gradient(phi)
        sol = leray_project(g)
        assert field_norms(sol)[1] <= 1e-12
        _assert_gradient(g.with_values(g.values - sol.values), 1e-12)

    def test_reconstruction_and_idempotence(self, grid2d, rng):
        w = random_band_limited(grid2d, rng, ncomp=2, kmax=6)
        sol = leray_project(w)
        assert field_norms(divergence(sol))[1] <= 1e-10
        _assert_gradient(w.with_values(w.values - sol.values), 1e-10)
        again = leray_project(sol)
        assert np.max(np.abs(again.values - sol.values)) <= 1e-12

    def test_mean_mode_stays_solenoidal(self, grid2d):
        w = Field(grid2d, np.stack([np.full(grid2d.shape, 1.5), np.full(grid2d.shape, -0.5)]))
        sol = leray_project(w)
        assert np.max(np.abs(sol.values - w.values)) <= 1e-13


class TestFluidState:
    """A fluid state is the (v, p) slice the fluid core reads as u."""

    def test_pressure_gauged(self, grid2d):
        # grad p ignores the mean of p, so the residual does too
        v, p = taylor_green(grid2d), taylor_green_pressure(grid2d)
        u_t = Field(grid2d, np.zeros((3,) + grid2d.shape))
        r = exact_residual(fluid_core(2), _stack([v, p]), u_t)
        shifted = p.with_values(p.values + 4.0)
        r4 = exact_residual(fluid_core(2), _stack([v, shifted]), u_t)
        assert np.max(np.abs(r4.values - r.values)) <= 1e-12

    def test_pressure_shape_rejected(self, grid2d):
        v = taylor_green(grid2d)
        with pytest.raises(ValueError, match="component count"):
            exact_residual(fluid_core(2), v, v)

    def test_steady_cellular_flow_satisfies_core(self, grid2d):
        # v_t + (v.grad)v + grad p = 0 with p = (cos2x + cos2y)/4
        u = _stack([taylor_green(grid2d), taylor_green_pressure(grid2d)])
        u_t = u.with_values(np.zeros_like(u.values))
        assert field_norms(exact_residual(fluid_core(2), u, u_t))[1] <= 1e-12


class TestCoreFunctions:
    def test_burgers_symbolic_text(self):
        core = burgers_core()
        assert (core.n, core.N) == (1, 1)
        # canonical monomial order sorts the quadratic term first
        assert str(core) == "u1*u1_x1 + u1_t"

    @pytest.mark.parametrize("n", [1, 2])
    def test_fluid_core_equals_its_twin(self, n):
        # the parsed core text against the table written out in the oracles
        assert fluid_core(n) == fluid_core_twin(n)

    def test_fluid_core_refuses_other_dimensions(self):
        with pytest.raises(ValueError, match="spatial dimension must be 1 or 2, got 3"):
            fluid_core(3)

    def test_burgers_core_equals_its_twin(self):
        assert burgers_core() == burgers_core_twin()

    def test_fluid_symbolic_component_count(self):
        core = fluid_core(2)
        assert core.N == 3
        assert core.num_outputs == 3
        assert core.max_order == 1

    def test_numeric_matches_symbolic(self, grid1d, grid2d, rng):
        # exact_residual evaluates the jet polynomial; the oracles are the
        # hand-written cores on plain complex transforms
        x = grid1d.coords()[0]
        u = Field(grid1d, np.sin(x))
        u_t = Field(grid1d, 0.3 * np.cos(2 * x))
        r = exact_residual(burgers_core(), u, u_t)
        assert np.max(np.abs(r.values - burgers_residual(u.values, u_t.values))) <= 1e-12

        v = random_solenoidal(grid2d, rng, kmax=4)
        p = random_band_limited(grid2d, rng, kmax=4)
        v_t = random_solenoidal(grid2d, rng, kmax=4)
        u2 = _stack([v, p])
        u2_t = Field(grid2d, np.concatenate([v_t.values, np.zeros((1,) + grid2d.shape)]))
        r2 = exact_residual(fluid_core(2), u2, u2_t)
        assert np.max(np.abs(r2.values - fluid_residual(u2.values, u2_t.values))) <= 1e-10

    def test_core_by_name(self):
        assert core_by_name("burgers", 1) == burgers_core()
        assert core_by_name("fluid", 2) == fluid_core(2)
        with pytest.raises(ValueError, match="unknown core"):
            core_by_name("kdv", 1)
        with pytest.raises(ValueError, match="one dimensional"):
            core_by_name("burgers", 2)
