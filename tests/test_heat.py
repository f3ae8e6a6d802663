"""Heat propagation, scale stacks, defects and the Duhamel integral."""

import numpy as np
import pytest

from scalepde import (
    Field,
    NonFiniteFieldError,
    ScaleStack,
    SpectralStack,
    build_scale_stack,
    divergence,
    duhamel_integral,
    eta_derivative,
    field_norms,
    filter_defect,
    filter_deviation,
    heat_propagate,
    laplacian,
    make_grid,
)
from scalepde.families import random_band_limited, random_solenoidal, taylor_green
from scalepde.heat import heat_propagate_many
from oracles import (
    manufactured_scalar_2d,
    node_fields,
    per_node_duhamel,
    spectral_stack,
    stack_field,
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

    def test_one_dimensional_makes_one_axis_calls(
        self, grid1d, rng, transform_counts, forbid_nd_transforms
    ):
        f = Field(grid1d, rng.standard_normal((2,) + grid1d.shape))
        deltas = (0.0, 0.01, 0.3)
        coeffs = np.fft.fftn(f.values, axes=(-1,))
        want = [np.fft.ifftn(coeffs * np.exp(-d * grid1d.ksq), axes=(-1,)).real for d in deltas]
        transform_counts.update(calls=0, complex=0, transforms=0)
        forbid_nd_transforms()
        for got, w in zip(heat_propagate_many(f, deltas), want):
            np.testing.assert_array_equal(got.values, w)
        # one forward and one inverse per delta, each of both rows
        assert (transform_counts["calls"], transform_counts["complex"]) == (4, 4)
        assert transform_counts["transforms"] == 8

    def test_eta_bookkeeping(self, grid1d):
        f = Field(grid1d, np.zeros(grid1d.shape), eta=0.05)
        assert heat_propagate(f, 0.02).eta == pytest.approx(0.07)


class TestScaleStack:
    def test_build_taylor_green_decay(self, grid2d):
        v = taylor_green(grid2d)
        stack = build_scale_stack(v, 0.02, 0.1, 9)
        assert stack.K == 9
        assert stack.eta_nodes[0] == pytest.approx(0.02)
        assert stack.eta_nodes[-1] == pytest.approx(0.1)
        assert stack.grid == grid2d
        for j, eta in enumerate(stack.eta_nodes):
            expected = np.exp(-2.0 * (eta - 0.02)) * v.values
            assert np.max(np.abs(stack.values[j] - expected)) <= 1e-12

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
        with pytest.raises(ValueError, match="uniform"):
            ScaleStack(grid1d, nodes, [np.zeros((1,) + grid1d.shape)] * 5)

    def test_component_count_mismatch_rejected(self, grid1d):
        # a centred difference would broadcast one component into two
        nodes = np.linspace(0.01, 0.05, 5)
        rows = [np.zeros((1 if j else 2,) + grid1d.shape) for j in range(5)]
        with pytest.raises(ValueError, match="one row per node, all one shape"):
            ScaleStack(grid1d, nodes, rows)

    def test_rows_must_fit_the_grid(self, grid1d):
        # one (ncomp, *grid.shape) row per node, no row without its component axis
        nodes = np.linspace(0.01, 0.05, 5)
        for rows in (
            [np.zeros((1,) + grid1d.shape)] * 4,
            [np.zeros(grid1d.shape)] * 5,
            [np.zeros((1, 64))] * 5,
        ):
            with pytest.raises(ValueError, match=r"\(ncomp, \*grid.shape\)"):
                ScaleStack(grid1d, nodes, rows)

    def test_non_finite_rejected(self, grid1d):
        rows = [np.zeros((1,) + grid1d.shape) for _ in range(5)]
        rows[3][0, 7] = np.nan
        with pytest.raises(NonFiniteFieldError, match="finite"):
            ScaleStack(grid1d, np.linspace(0.01, 0.05, 5), rows)

    def test_rows_are_read_only_and_shared(self, grid1d):
        # windows of one ladder hold its arrays, not copies
        rows = [np.full((1,) + grid1d.shape, float(j)) for j in range(5)]
        full = ScaleStack(grid1d, np.linspace(0.01, 0.05, 5), rows)
        window = ScaleStack(grid1d, full.eta_nodes[1:4], full.values[1:4])
        assert all(w is r for w, r in zip(window.values, rows[1:4]))
        with pytest.raises(ValueError, match="read-only"):
            window.values[0][0, 0] = 1.0


class TestEtaDerivative:
    def test_boundary_rejected(self, grid2d):
        stack = build_scale_stack(taylor_green(grid2d), 0.02, 0.1, 9)
        with pytest.raises(ValueError, match="stencil"):
            eta_derivative(stack, 0)
        with pytest.raises(ValueError, match="stencil"):
            eta_derivative(stack, 8)

    def test_convergence_second_order(self, grid2d):
        # d/d(eta) of the filtered cellular family is exactly -2 u
        v = taylor_green(grid2d)
        errors = []
        for K in (9, 17):
            stack = build_scale_stack(v, 0.02, 0.1, K)
            mid = K // 2
            d = eta_derivative(stack, mid)
            exact = -2.0 * stack.values[mid]
            errors.append(np.max(np.abs(d - exact)))
        rate = np.log2(errors[0] / errors[1])
        assert rate >= 1.9


class TestFilterDefect:
    def test_filtered_stack_defect_small(self, grid2d):
        stack = build_scale_stack(taylor_green(grid2d), 0.02, 0.1, 33)
        psi = stack_field(filter_defect(spectral_stack(node_fields(stack))), 15)
        # members of the filter-map set have psi = O(delta_eta^2) only
        assert field_norms(psi)[1] <= 1e-4

    def test_filtered_stack_defect_order(self, grid2d):
        errors = []
        for K in (9, 17, 33):
            stack = build_scale_stack(taylor_green(grid2d), 0.02, 0.1, K)
            psi = filter_defect(spectral_stack(node_fields(stack)))
            errors.append(field_norms(stack_field(psi, K // 2 - 1))[1])
        orders = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert min(orders) >= 1.9

    def test_eta_constant_stack(self, grid1d):
        # fields constant in eta: d/d(eta) vanishes exactly, psi = -laplacian u
        x = grid1d.coords()[0]
        nodes = np.linspace(0.01, 0.05, 5)
        fields = [Field(grid1d, np.sin(x), eta=float(e)) for e in nodes]
        psi = stack_field(filter_defect(spectral_stack(fields)), 1)
        assert np.max(np.abs(psi.component(0) - np.sin(x))) <= 1e-12

    def test_manufactured_defect_matches_analytic(self, grid2d):
        nodes = np.linspace(0.04, 0.12, 33)
        fields = [manufactured_scalar_2d(grid2d, float(e))[0] for e in nodes]
        psi = stack_field(filter_defect(spectral_stack(fields)), 15)
        analytic = manufactured_scalar_2d(grid2d, float(nodes[16]))[1]
        err = field_norms(psi - analytic)[1]
        assert err <= 5e-4  # second-order eta differencing floor


class TestDuhamel:
    def test_zero_defect(self, grid1d):
        nodes = np.linspace(0.02, 0.1, 9)
        zeros = [Field(grid1d, np.zeros(grid1d.shape), eta=float(e)) for e in nodes]
        out = duhamel_integral(spectral_stack(zeros), 8)
        assert out.shape == (1,) + grid1d.shape
        assert np.max(np.abs(out)) == 0.0

    def test_constant_defect(self, grid1d):
        # psi = c constant in space and scale integrates to (eta - epsilon) c
        nodes = np.linspace(0.02, 0.1, 9)
        fields = [Field(grid1d, np.full(grid1d.shape, 1.3), eta=float(e)) for e in nodes]
        out = duhamel_integral(spectral_stack(fields), 8)
        assert np.max(np.abs(out - 1.3 * 0.08)) <= 1e-13

    def test_target_validation(self, grid1d):
        nodes = np.linspace(0.02, 0.1, 9)
        zeros = [Field(grid1d, np.zeros(grid1d.shape), eta=float(e)) for e in nodes]
        stack = spectral_stack(zeros)
        with pytest.raises(ValueError, match="target"):
            duhamel_integral(stack, 0)
        with pytest.raises(ValueError, match="target"):
            duhamel_integral(stack, 9)

    @pytest.mark.parametrize("n, size", [(1, 64), (2, 32)])
    def test_matches_per_node_propagation(self, n, size):
        # white noise defects, Nyquist planes included
        grid = make_grid(n, size)
        nodes = np.linspace(0.02, 0.1, 9)
        psi = np.random.default_rng(size).standard_normal((9, 2) + grid.shape)
        stack = spectral_stack(Field(grid, p, eta=float(e)) for p, e in zip(psi, nodes))
        for target in (1, 4, 8):
            got = duhamel_integral(stack, target)
            want = per_node_duhamel(psi, nodes, target)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_reconstructs_deviation(self, grid2d):
        # extended ladder so anchor and target stay at fixed scales
        eps, eta0, K = 0.04, 0.12, 17
        h = (eta0 - eps) / (K - 1)
        big_nodes = [eps + (j - 1) * h for j in range(K + 2)]
        big = [manufactured_scalar_2d(grid2d, float(e))[0] for e in big_nodes]
        anchor, target = big[1], big[K]
        direct = target - heat_propagate(anchor, target.eta - anchor.eta)
        quad = duhamel_integral(filter_defect(spectral_stack(big)), K - 1)
        assert np.max(np.abs(direct.values - quad)) <= 1e-4


def _white_noise_stack(n, size, K=9):
    grid = make_grid(n, size)
    nodes = np.linspace(0.02, 0.1, K)
    values = np.random.default_rng(size + n).standard_normal((K, 2) + grid.shape)
    return ScaleStack(grid, nodes, values)


def _physical_defects(stack):
    fields = node_fields(stack)
    return np.stack(
        [
            eta_derivative(stack, j) - laplacian(fields[j]).values
            for j in range(1, stack.K - 1)
        ]
    )


def _assert_close(got, want):
    scale = max(np.max(np.abs(w)) for w in want)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-12 * scale


@pytest.mark.parametrize("n, size", [(1, 64), (2, 32)])
class TestHalfSpectrumAgainstPhysical:
    """psi, the deviations and the quadrature are formed on the ladder's
    half spectra; white-noise ladders, Nyquist planes included, against
    their physical forms."""

    def test_defect_is_a_spectral_ladder_on_the_interior_nodes(
        self, n, size, transform_counts
    ):
        stack = _white_noise_stack(n, size)
        spectral = spectral_stack(node_fields(stack))
        transform_counts.update(calls=0, complex=0, transforms=0, fields=0)
        psi = filter_defect(spectral)
        # formed on the half spectra alone: no transform and no Field
        assert transform_counts == {"calls": 0, "complex": 0, "transforms": 0, "fields": 0}
        assert isinstance(psi, SpectralStack)
        np.testing.assert_array_equal(psi.eta_nodes, stack.eta_nodes[1:-1])
        assert psi.grid == stack.grid
        assert {row.shape for row in psi.values} == {(2,) + stack.grid.rshape}

    def test_defect_is_eta_derivative_minus_laplacian(self, n, size):
        stack = _white_noise_stack(n, size)
        psi = filter_defect(spectral_stack(node_fields(stack)))
        assert psi.K == stack.K - 2
        np.testing.assert_array_equal(psi.eta_nodes, stack.eta_nodes[1:-1])
        got = [stack_field(psi, j) for j in range(psi.K)]
        _assert_close([f.values for f in got], _physical_defects(stack))
        for j, f in enumerate(got, start=1):
            assert (f.t, f.eta) == (0.0, stack.eta_nodes[j])

    @pytest.mark.parametrize("anchor", [0, 1])
    def test_deviation_is_difference_from_propagated_anchor(self, n, size, anchor):
        stack = _white_noise_stack(n, size)
        fields = node_fields(stack)
        base = fields[anchor]
        nodes, spectral = range(anchor, stack.K), spectral_stack(fields)
        got = [filter_deviation(spectral, anchor, j) for j in nodes]
        want = [
            (fields[j] - heat_propagate(base, fields[j].eta - base.eta)).values
            for j in nodes
        ]
        assert {row.shape for row in got} == {stack.values[0].shape}
        _assert_close(got, want)
        assert np.max(np.abs(got[0])) == 0.0

    def test_quadrature_matches_per_node_propagation(self, n, size):
        stack = _white_noise_stack(n, size)
        psi = filter_defect(spectral_stack(node_fields(stack)))
        physical = _physical_defects(stack)
        for target in (1, 3, psi.K - 1):
            got = duhamel_integral(psi, target)
            want = per_node_duhamel(physical, psi.eta_nodes, target)
            assert got.shape == want.shape
            _assert_close([got], [want])


def test_deviation_nodes_validated(grid1d):
    nodes = np.linspace(0.02, 0.1, 5)
    stack = spectral_stack(Field(grid1d, np.zeros(grid1d.shape), eta=float(e)) for e in nodes)
    for anchor, node in ((-1, 2), (3, 2), (0, 5)):
        with pytest.raises(ValueError, match="anchor"):
            filter_deviation(stack, anchor, node)


def test_defect_needs_five_nodes(grid1d):
    # psi lives on the interior nodes, a ladder of K - 2 >= 3
    nodes = np.linspace(0.02, 0.1, 4)
    stack = spectral_stack(Field(grid1d, np.zeros(grid1d.shape), eta=float(e)) for e in nodes)
    with pytest.raises(ValueError, match="at least 5 eta nodes, got 4"):
        filter_defect(stack)
