"""Residual transport: defect measurement, closure solve and contraction."""

import numpy as np
import pytest

from scalepde import (
    Field,
    ScaleStack,
    burgers_core,
    closure_error_bound,
    derive_source,
    exact_residual,
    field_norms,
    fluid_core,
    frechet_contraction,
    jet_evaluate,
    jet_values,
    laplacian,
    make_grid,
    parse_core,
    residual_defect,
    solve_residual_closure,
)
from scalepde.families import random_band_limited, taylor_green
from oracles import manufactured_burgers, manufactured_fluid, taylor_green_pressure


def _field_stack(grid, nodes, value_fn):
    return ScaleStack(grid, nodes, [value_fn(float(e))[np.newaxis] for e in nodes])


class TestExactResidual:
    def test_steady_cellular_flow(self, grid2d):
        vp = [taylor_green(grid2d).values, taylor_green_pressure(grid2d).values]
        u = Field(grid2d, np.concatenate(vp))
        u_t = u.with_values(np.zeros_like(u.values))
        r = exact_residual(fluid_core(2), u, u_t)
        assert field_norms(r)[1] <= 1e-12

    def test_burgers_closed_form(self, grid1d):
        x = grid1d.coords()[0]
        u = Field(grid1d, np.sin(x))
        u_t = Field(grid1d, 0.2 * np.cos(x))
        r = exact_residual(burgers_core(), u, u_t)
        expected = 0.2 * np.cos(x) + 0.5 * np.sin(2 * x)
        assert np.max(np.abs(r.component(0) - expected)) <= 1e-12

    def test_builds_one_field(self, grid2d, rng, transform_counts):
        # the jet table holds arrays; r is the one Field, where they are checked
        u, u_t = (Field(grid2d, rng.standard_normal((3,) + grid2d.shape)) for _ in range(2))
        transform_counts["fields"] = 0
        r = exact_residual(fluid_core(2), u, u_t)
        assert transform_counts["fields"] == 1
        assert (r.grid, r.ncomp) == (grid2d, 3)


class TestResidualDefect:
    def test_constant_residual_zero_source(self, grid1d):
        nodes = np.linspace(0.02, 0.1, 9)
        stack = _field_stack(grid1d, nodes, lambda e: np.full(grid1d.shape, 1.7))
        s = np.zeros((1,) + grid1d.shape)
        e = residual_defect(stack, s, 4)
        assert np.max(np.abs(e)) <= 1e-13

    def test_forms_e_on_the_rows(self, grid1d, transform_counts):
        # s and e are rows of the stack's shape: no Field is built
        nodes = np.linspace(0.02, 0.1, 9)
        stack = _field_stack(grid1d, nodes, lambda e: e * np.ones(grid1d.shape))
        s = np.zeros((1,) + grid1d.shape)
        transform_counts["fields"] = 0
        e = residual_defect(stack, s, 4)
        assert transform_counts["fields"] == 0
        assert type(e) is np.ndarray and e.shape == (1,) + grid1d.shape
        np.testing.assert_allclose(e, 1.0, rtol=1e-12)

    def test_source_must_match_the_stack(self, grid1d):
        # a one-component s, or a grid-shaped one, would broadcast over a
        # two-component residual
        rows = [np.zeros((2,) + grid1d.shape)] * 5
        stack = ScaleStack(grid1d, np.linspace(0.02, 0.1, 5), rows)
        for s in (np.zeros((1,) + grid1d.shape), np.zeros(grid1d.shape), np.zeros((2, 32))):
            with pytest.raises(ValueError, match="grid or component count"):
                residual_defect(stack, s, 2)

    def test_transport_solution_converges_second_order(self, grid1d):
        # r = g(eta) sin x solves the transport equation with
        # s = (g' + g) sin x, so the defect is pure eta-differencing error
        x = grid1d.coords()[0]
        base = np.sin(x)

        def g(e):
            return np.exp(0.7 * e) + e**3

        def dg(e):
            return 0.7 * np.exp(0.7 * e) + 3 * e**2

        errors = []
        for K in (9, 17, 33):
            nodes = np.linspace(0.02, 0.1, K)
            stack = _field_stack(grid1d, nodes, lambda e: g(e) * base)
            mid = K // 2
            eta = float(nodes[mid])
            s = ((dg(eta) + g(eta)) * base)[np.newaxis]
            errors.append(np.max(np.abs(residual_defect(stack, s, mid))))
        orders = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert min(orders) >= 1.9


class TestClosureSolve:
    def test_single_mode_exact(self, grid1d):
        x = grid1d.coords()[0]
        s = Field(grid1d, np.sin(x))
        r = solve_residual_closure(s, 0.25)
        expected = np.sin(x) / (1.0 + 1.0 / 0.25)
        assert np.max(np.abs(r.component(0) - expected)) <= 1e-12
        assert r.eta == pytest.approx(0.25)

    def test_constant_mode(self, grid2d):
        s = Field(grid2d, np.full(grid2d.shape, 0.7))
        r = solve_residual_closure(s, 0.3)
        assert np.max(np.abs(r.values - 0.7 * 0.3)) <= 1e-12

    def test_back_substitution(self, grid2d, rng):
        s = random_band_limited(grid2d, rng, kmax=8)
        for eta in (0.05, 0.5):
            r = solve_residual_closure(s, eta)
            balance = laplacian(r).values - r.values / eta + s.values
            assert np.max(np.abs(balance)) <= 1e-10 * field_norms(s)[1]

    def test_vanishing_scale_limit(self, grid1d):
        # |r| -> 0 monotonically as eta -> 0 for fixed s
        x = grid1d.coords()[0]
        s = Field(grid1d, np.sin(3 * x))
        maxima = [
            field_norms(solve_residual_closure(s, eta))[1]
            for eta in (0.2, 0.1, 0.05, 0.025)
        ]
        assert all(a > b for a, b in zip(maxima, maxima[1:]))
        assert maxima[-1] <= 0.025

    def test_eta_validated(self, grid1d):
        s = Field(grid1d, np.zeros(grid1d.shape))
        with pytest.raises(ValueError, match="eta"):
            solve_residual_closure(s, 0.0)


class TestClosureErrorBound:
    def test_linear_in_eta_residual(self, grid1d):
        # r = eta g(x): lhs = |g - g| = 0 and the curvature side vanishes
        x = grid1d.coords()[0]
        nodes = np.linspace(0.05, 0.15, 9)
        stack = _field_stack(grid1d, nodes, lambda e: e * np.sin(x))
        lhs, rhs = closure_error_bound(stack, 4)
        assert lhs <= 1e-12
        assert rhs <= 1e-10

    def test_manufactured_bound_holds_interior(self, grid1d):
        x = grid1d.coords()[0]
        nodes = np.linspace(0.01, 0.2, 33)
        stack = _field_stack(
            grid1d, nodes, lambda e: e * np.exp(-2.0 * e) * np.sin(x)
        )
        for node in range(1, 32):
            lhs, rhs = closure_error_bound(stack, node)
            assert lhs <= rhs * 1.10

    def test_boundary_rejected(self, grid1d):
        nodes = np.linspace(0.05, 0.15, 9)
        stack = _field_stack(grid1d, nodes, lambda e: np.zeros(grid1d.shape))
        with pytest.raises(ValueError, match="stencil"):
            closure_error_bound(stack, 0)


class TestFrechetContraction:
    def test_burgers_hand_expansion(self, grid1d):
        # prediction = psi_t + u_x psi + u psi_x for the advection core
        x = grid1d.coords()[0]
        u = Field(grid1d, np.sin(x))
        u_t = Field(grid1d, np.zeros(grid1d.shape))
        psi = Field(grid1d, np.cos(x))
        psi_t = Field(grid1d, 0.4 * np.sin(x))
        out = frechet_contraction(burgers_core(), u, psi, u_t, psi_t)
        expected = 0.4 * np.sin(x) + np.cos(x) * np.cos(x) + np.sin(x) * (-np.sin(x))
        assert np.max(np.abs(out.component(0) - expected)) <= 1e-12

    def test_time_entry_requires_psi_t(self, grid1d):
        x = grid1d.coords()[0]
        u = Field(grid1d, np.sin(x))
        psi = Field(grid1d, np.cos(x))
        with pytest.raises(ValueError, match="psi_t"):
            frechet_contraction(burgers_core(), u, psi, u.with_values(np.zeros_like(u.values)))

    def test_t_entry_in_a_coefficient_requires_u_t(self, grid1d):
        # the linearization of u u_t has the coefficient u_t of psi
        x = grid1d.coords()[0]
        u = Field(grid1d, np.sin(x))
        psi = Field(grid1d, np.cos(x))
        with pytest.raises(ValueError, match="u_t"):
            frechet_contraction(parse_core("u1*u1_t"), u, psi, psi_t=psi)

    @pytest.mark.parametrize("which", ["burgers", "fluid"])
    def test_predicts_measured_defect(self, which):
        # the contraction of the defect psi reproduces the measured
        # residual defect e up to eta-differencing error
        if which == "burgers":
            grid = make_grid(1, 128)
            core = burgers_core()
            family = manufactured_burgers
        else:
            grid = make_grid(2, 64)
            core = fluid_core(2)
            family = manufactured_fluid
        K = 33
        nodes = np.linspace(0.05, 0.15, K)
        slices = [family(grid, 0.0, float(e)) for e in nodes]
        r_rows = [exact_residual(core, s.u, s.u_t).values for s in slices]
        r_stack = ScaleStack(grid, nodes, r_rows)
        mid = K // 2
        source = derive_source(core)
        s_mid = jet_evaluate(
            source, jet_values(source, slices[mid].u, slices[mid].u_t), slices[mid].u
        )
        measured = residual_defect(r_stack, s_mid, mid)
        predicted = frechet_contraction(
            core,
            slices[mid].u,
            slices[mid].psi,
            slices[mid].u_t,
            slices[mid].psi_t,
        )
        rel = np.max(np.abs(measured - predicted.values)) / field_norms(predicted)[1]
        assert rel <= 1e-3
