"""Heat propagation, scale stacks, defects and the Duhamel integral."""

import numpy as np
import pytest

from scalepde import (
    Field,
    ScaleStack,
    build_scale_stack,
    divergence,
    duhamel_integral,
    eta_derivative,
    field_norms,
    filter_defect,
    heat_propagate,
    laplacian,
    make_grid,
)
from scalepde.families import (
    manufactured_scalar_2d,
    random_band_limited,
    random_solenoidal,
    taylor_green,
)


class TestHeatPropagate:
    def test_identity_at_zero(self, grid1d, rng):
        f = Field(grid1d, rng.standard_normal(grid1d.shape))
        out = heat_propagate(f, 0.0)
        assert np.max(np.abs(out.values - f.values)) <= 1e-13

    def test_negative_rejected(self, grid1d):
        with pytest.raises(ValueError, match="delta_eta"):
            heat_propagate(Field(grid1d, np.zeros(grid1d.shape)), -0.01)

    def test_single_mode_decay(self, grid1d):
        x = grid1d.coords()[0]
        out = heat_propagate(Field(grid1d, np.sin(x)), 0.25)
        assert np.max(np.abs(out.component(0) - np.exp(-0.25) * np.sin(x))) <= 1e-12

    def test_constant_unchanged(self, grid2d):
        f = Field(grid2d, np.full(grid2d.shape, 3.7))
        out = heat_propagate(f, 0.8)
        assert np.max(np.abs(out.values - 3.7)) <= 1e-13

    def test_semigroup_composition(self, grid2d, rng):
        f = random_band_limited(grid2d, rng, kmax=8)
        once = heat_propagate(f, 0.042)
        twice = heat_propagate(heat_propagate(f, 0.013), 0.029)
        assert np.max(np.abs(once.values - twice.values)) <= 1e-12

    def test_mean_preserved(self, grid2d, rng):
        f = random_band_limited(grid2d, rng, kmax=6)
        out = heat_propagate(f, 0.3)
        assert abs(out.values.mean() - f.values.mean()) <= 1e-13

    def test_commutes_with_derivative(self, grid2d, rng):
        from scalepde import spectral_derivative

        f = random_band_limited(grid2d, rng, kmax=6)
        a = spectral_derivative(heat_propagate(f, 0.1), 0)
        b = heat_propagate(spectral_derivative(f, 0), 0.1)
        assert np.max(np.abs(a.values - b.values)) <= 1e-12

    def test_divergence_preserved(self, grid2d, rng):
        v = random_solenoidal(grid2d, rng, kmax=6)
        out = heat_propagate(v, 0.2)
        assert field_norms(divergence(out))[1] <= 1e-10

    def test_mode_multiplier_exact(self, grid1d):
        x = grid1d.coords()[0]
        f = Field(grid1d, np.cos(5 * x))
        out = heat_propagate(f, 0.07)
        coeffs = np.fft.fftn(out.values, axes=(1,))
        amp = 2.0 * abs(coeffs[0, 5]) / grid1d.size
        assert abs(amp - np.exp(-0.07 * 25.0)) <= 1e-13

    def test_eta_bookkeeping(self, grid1d):
        f = Field(grid1d, np.zeros(grid1d.shape), eta=0.05)
        assert heat_propagate(f, 0.02).eta == pytest.approx(0.07)


class TestScaleStack:
    def test_build_taylor_green_decay(self, grid2d):
        v = taylor_green(grid2d)
        stack = build_scale_stack(v, 0.02, 0.1, 9)
        assert stack.K == 9
        assert stack.epsilon == pytest.approx(0.02)
        assert stack.eta0 == pytest.approx(0.1)
        for j, eta in enumerate(stack.eta_nodes):
            expected = np.exp(-2.0 * (eta - 0.02)) * v.values
            assert np.max(np.abs(stack.fields[j].values - expected)) <= 1e-12

    def test_build_validation(self, grid1d):
        f = Field(grid1d, np.zeros(grid1d.shape))
        with pytest.raises(ValueError, match="epsilon"):
            build_scale_stack(f, 0.1, 0.05, 9)
        with pytest.raises(ValueError, match="nodes"):
            build_scale_stack(f, 0.01, 0.1, 4)
        with pytest.raises(ValueError, match="eta0"):
            build_scale_stack(f, 0.01, 1.5, 9)

    def test_nonuniform_rejected(self, grid1d):
        nodes = np.array([0.01, 0.02, 0.05, 0.06, 0.07])
        fields = tuple(
            Field(grid1d, np.zeros(grid1d.shape), eta=float(e)) for e in nodes
        )
        with pytest.raises(ValueError, match="uniform"):
            ScaleStack(nodes, fields)

    def test_eta_mismatch_rejected(self, grid1d):
        nodes = np.linspace(0.01, 0.05, 5)
        fields = tuple(Field(grid1d, np.zeros(grid1d.shape), eta=0.99) for _ in nodes)
        with pytest.raises(ValueError, match="eta"):
            ScaleStack(nodes, fields)


class TestEtaDerivative:
    def test_boundary_rejected(self, grid2d):
        stack = build_scale_stack(taylor_green(grid2d), 0.02, 0.1, 9)
        with pytest.raises(ValueError, match="stencil"):
            eta_derivative(stack, 0)
        with pytest.raises(ValueError, match="stencil"):
            eta_derivative(stack, 8)

    @pytest.mark.parametrize("order", [1, 2])
    def test_convergence_second_order(self, grid2d, order):
        # d/d(eta) of the filtered cellular family is exactly -2 u
        v = taylor_green(grid2d)
        errors = []
        for K in (9, 17):
            stack = build_scale_stack(v, 0.02, 0.1, K)
            mid = K // 2
            d = eta_derivative(stack, mid, order=order)
            exact = ((-2.0) ** order) * stack.fields[mid].values
            errors.append(np.max(np.abs(d.values - exact)))
        rate = np.log2(errors[0] / errors[1])
        assert rate >= 1.9

    def test_invalid_order(self, grid2d):
        stack = build_scale_stack(taylor_green(grid2d), 0.02, 0.1, 9)
        with pytest.raises(ValueError, match="order"):
            eta_derivative(stack, 3, order=3)


class TestFilterDefect:
    def test_filtered_stack_defect_small(self, grid2d):
        stack = build_scale_stack(taylor_green(grid2d), 0.02, 0.1, 33)
        psi = filter_defect(stack, 16)
        # members of the filter-map set have psi = O(delta_eta^2) only
        assert field_norms(psi)[1] <= 1e-4

    def test_filtered_stack_defect_order(self, grid2d):
        errors = []
        for K in (9, 17, 33):
            stack = build_scale_stack(taylor_green(grid2d), 0.02, 0.1, K)
            errors.append(field_norms(filter_defect(stack, K // 2))[1])
        orders = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert min(orders) >= 1.9

    def test_eta_constant_stack(self, grid1d):
        # fields constant in eta: d/d(eta) vanishes exactly, psi = -laplacian u
        x = grid1d.coords()[0]
        nodes = np.linspace(0.01, 0.05, 5)
        fields = tuple(Field(grid1d, np.sin(x), eta=float(e)) for e in nodes)
        stack = ScaleStack(nodes, fields)
        psi = filter_defect(stack, 2)
        assert np.max(np.abs(psi.component(0) - np.sin(x))) <= 1e-12

    def test_manufactured_defect_matches_analytic(self, grid2d):
        nodes = np.linspace(0.04, 0.12, 33)
        fields = [manufactured_scalar_2d(grid2d, float(e))[0] for e in nodes]
        stack = ScaleStack.from_fields(fields)
        psi = filter_defect(stack, 16)
        analytic = manufactured_scalar_2d(grid2d, float(nodes[16]))[1]
        err = field_norms(psi - analytic)[1]
        assert err <= 5e-4  # second-order eta differencing floor


class TestDuhamel:
    def test_zero_defect(self, grid1d):
        nodes = np.linspace(0.02, 0.1, 9)
        zeros = tuple(Field(grid1d, np.zeros(grid1d.shape), eta=float(e)) for e in nodes)
        stack = ScaleStack(nodes, zeros)
        out = duhamel_integral(stack, 8)
        assert np.max(np.abs(out.values)) == 0.0
        assert out.eta == pytest.approx(0.1)

    def test_constant_defect(self, grid1d):
        # psi = c constant in space and scale integrates to (eta - epsilon) c
        nodes = np.linspace(0.02, 0.1, 9)
        fields = tuple(
            Field(grid1d, np.full(grid1d.shape, 1.3), eta=float(e)) for e in nodes
        )
        stack = ScaleStack(nodes, fields)
        out = duhamel_integral(stack, 8)
        assert np.max(np.abs(out.values - 1.3 * 0.08)) <= 1e-13

    def test_target_validation(self, grid1d):
        nodes = np.linspace(0.02, 0.1, 9)
        zeros = tuple(Field(grid1d, np.zeros(grid1d.shape), eta=float(e)) for e in nodes)
        stack = ScaleStack(nodes, zeros)
        with pytest.raises(ValueError, match="target"):
            duhamel_integral(stack, 0)
        with pytest.raises(ValueError, match="target"):
            duhamel_integral(stack, 9)

    def test_reconstructs_deviation(self, grid2d):
        # extended ladder so anchor and target stay at fixed scales
        eps, eta0, K = 0.04, 0.12, 17
        h = (eta0 - eps) / (K - 1)
        big_nodes = [eps + (j - 1) * h for j in range(K + 2)]
        big = ScaleStack.from_fields(
            [manufactured_scalar_2d(grid2d, float(e))[0] for e in big_nodes]
        )
        psi_stack = ScaleStack.from_fields(
            [filter_defect(big, j) for j in range(1, K + 1)]
        )
        anchor, target = big.fields[1], big.fields[K]
        direct = target - heat_propagate(anchor, target.eta - anchor.eta)
        quad = duhamel_integral(psi_stack, K - 1)
        assert field_norms(direct - quad)[1] <= 1e-4
