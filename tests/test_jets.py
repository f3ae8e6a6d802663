"""Jet calculus: parsing, total derivatives, the source map and evaluation."""

import random
from fractions import Fraction

import numpy as np
import pytest

from scalepde import (
    CoreSyntaxError,
    Field,
    JetExpr,
    JetIndex,
    JetMonomial,
    derive_source,
    format_expr,
    jet_L,
    jet_W,
    jet_evaluate,
    jet_frechet,
    jet_total_derivative,
    jet_values,
    make_grid,
    parse_core,
    spectral_derivative,
)
from scalepde.families import random_band_limited, taylor_green, taylor_green_pressure
from scalepde.fluid import burgers_core, fluid_core
from scalepde.jets import spatial_labels


def random_expr(rng: random.Random, n: int, N: int, max_outputs: int = 2) -> JetExpr:
    """Random canonical expression of up to second order, eta included:
    up to 4 monomials per output and 3 factors per monomial."""
    coords = list(spatial_labels(n)) + ["t", "eta"]
    outputs = []
    for _ in range(rng.randint(1, max_outputs)):
        monos = []
        for _ in range(rng.randint(0, 4)):
            coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            factors = []
            for _ in range(rng.randint(0, 3)):
                comp = rng.randint(1, N)
                derivs = tuple(rng.choice(coords) for _ in range(rng.randint(0, 2)))
                factors.append(JetIndex(comp, derivs))
            monos.append(JetMonomial(coeff, tuple(factors)))
        outputs.append(tuple(monos))
    return JetExpr(n, N, tuple(outputs))


def u(component, *derivs, n=1, N=1):
    return JetExpr.variable(n, N, component, derivs)


class TestJetIndex:
    def test_canonical_deriv_order(self):
        a = JetIndex(1, ("t", "x2", "x1"))
        b = JetIndex(1, ("x1", "x2", "t"))
        assert a == b
        assert str(a) == "u1_x1x2t"

    def test_order(self):
        assert JetIndex(2).order == 0
        assert JetIndex(2, ("x1", "x1", "eta")).order == 3

    def test_component_positive(self):
        with pytest.raises(ValueError, match="component"):
            JetIndex(0)


class TestJetExpr:
    def test_structural_equality_is_mathematical(self):
        a = u(1) * u(1, "x1") + u(1, "t")
        b = u(1, "t") + u(1, "x1") * u(1)
        assert a == b

    def test_cancellation_gives_zero(self):
        a = u(1) * u(1, "x1")
        assert (a - a).is_zero
        assert (a - a) == JetExpr.zero(1, 1)

    def test_scalar_multiplication(self):
        e = Fraction(3, 2) * (u(1) + u(1))
        assert format_expr(e) == "3*u1"

    def test_vector_and_component(self):
        e = JetExpr.vector([u(1, n=2, N=2), u(2, "x1", n=2, N=2)])
        assert e.num_outputs == 2
        assert e.component(2) == u(2, "x1", n=2, N=2)

    def test_single_output_product(self):
        e = u(1) * u(1, "x1")
        assert format_expr(e) == "u1*u1_x1"
        with pytest.raises(ValueError, match="scalar"):
            JetExpr.vector([u(1), u(1)]) * u(1)

    def test_max_order(self):
        assert (u(1, "x1", "x1") + u(1)).max_order == 2
        assert JetExpr.constant(1, 1, 3).max_order == 0


class TestParse:
    def test_burgers_core(self):
        e = parse_core("u1_t + u1*u1_x1")
        assert e == burgers_core()
        assert e.n == 1 and e.N == 1

    def test_rational_coefficients(self):
        e = parse_core("3/2*u1 - 1/2*u1")
        assert e == u(1)

    def test_component_separator(self):
        e = parse_core("u1_t; u2_t; 0", n=2, N=3)
        assert e.num_outputs == 3
        assert e.component(3).is_zero

    def test_parentheses_and_unary_minus(self):
        assert parse_core("-(u1 - u1_x1)*2") == 2 * u(1, "x1") - 2 * u(1)

    def test_inference(self):
        e = parse_core("u2_x1x2*u1")
        assert e.n == 2 and e.N == 2

    def test_eta_rejected_in_cores(self):
        with pytest.raises(CoreSyntaxError, match="eta"):
            parse_core("u1_eta")

    def test_eta_allowed_for_general_jets(self):
        e = parse_core("u1_eta", allow_eta=True)
        assert e == JetExpr.variable(1, 1, 1, ("eta",))

    def test_unknown_identifier(self):
        with pytest.raises(CoreSyntaxError, match="line 1, column 8"):
            parse_core("u1_t + vorticity")

    def test_error_position_multiline(self):
        with pytest.raises(CoreSyntaxError, match="line 2, column 6"):
            parse_core("u1_t +\n u1* ?")

    def test_component_beyond_declared(self):
        with pytest.raises(CoreSyntaxError, match="N=1"):
            parse_core("u2_x1", N=1)

    def test_axis_beyond_declared(self):
        with pytest.raises(CoreSyntaxError, match="n=1"):
            parse_core("u1_x2", n=1)

    def test_missing_operand(self):
        with pytest.raises(CoreSyntaxError, match="line 1"):
            parse_core("u1 +")

    def test_round_trip_random(self):
        rng = random.Random(2024)
        for _ in range(100):
            n = rng.choice([1, 2])
            N = rng.randint(1, 3)
            e = random_expr(rng, n, N)
            again = parse_core(format_expr(e), n=n, N=N, allow_eta=True)
            assert again == e, format_expr(e)


class TestTotalDerivative:
    def test_product_rule(self):
        e = jet_total_derivative(u(1) * u(1, "x1"), "x1")
        assert e == u(1, "x1") * u(1, "x1") + u(1) * u(1, "x1", "x1")

    def test_leibniz_general(self):
        rng = random.Random(7)
        for _ in range(20):
            f = random_expr(rng, 2, 2, max_outputs=1)
            g = random_expr(rng, 2, 2, max_outputs=1)
            lhs = jet_total_derivative(f * g, "x2")
            rhs = jet_total_derivative(f, "x2") * g + f * jet_total_derivative(g, "x2")
            assert lhs == rhs

    def test_derivatives_commute(self):
        rng = random.Random(8)
        for _ in range(20):
            e = random_expr(rng, 2, 2, max_outputs=1)
            for a, b in (("x1", "x2"), ("x1", "t"), ("t", "eta")):
                ab = jet_total_derivative(jet_total_derivative(e, a), b)
                ba = jet_total_derivative(jet_total_derivative(e, b), a)
                assert ab == ba

    def test_invalid_coordinate(self):
        with pytest.raises(ValueError, match="coordinate"):
            jet_total_derivative(u(1), "x2")

    def test_numeric_chain_rule(self, grid2d, rng):
        # V_x1 of a polynomial evaluated on a slice equals the spectral
        # x1-derivative of its evaluation, for band-limited data
        expr = u(1, n=2, N=1) * u(1, "x2", n=2, N=1)
        f = random_band_limited(grid2d, rng, kmax=5)
        lhs = jet_evaluate(jet_total_derivative(expr, "x1"), jet_values(jet_total_derivative(expr, "x1"), f))
        rhs = spectral_derivative(jet_evaluate(expr, jet_values(expr, f)), 0)
        assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-8


class TestSourceMap:
    def test_L_on_variable(self):
        assert jet_L(u(1, n=2, N=1)) == u(1, "x1", "x1", n=2, N=1) + u(1, "x2", "x2", n=2, N=1)

    def test_W_matches_L_on_linear(self):
        core = parse_core("u1_t + 3*u1_x1", n=1, N=1)
        assert jet_W(core) == jet_L(core)

    def test_linear_core_has_zero_source(self):
        assert derive_source(parse_core("u1_t + 3*u1_x1")).is_zero
        assert derive_source(parse_core("u1_t; u2_t", n=2, N=2)).is_zero

    def test_burgers_source(self):
        s = derive_source(burgers_core())
        assert format_expr(s) == "-2*u1_x1*u1_x1x1"
        assert s == parse_core("-2*u1_x1*u1_x1x1")

    def test_quadratic_core_source_counts_cross_terms(self):
        # W(u*u) = 2 u*u_xx while L(u*u) = 2 u*u_xx + 2 u_x*u_x
        s = derive_source(u(1) * u(1) + u(1, "t"))
        assert s == Fraction(-2) * (u(1, "x1") * u(1, "x1"))

    def test_second_order_core_rejected(self):
        with pytest.raises(ValueError, match="first order"):
            derive_source(u(1, "x1", "x1") + u(1, "t"))

    def test_fluid_source_matches_expected_polynomial(self):
        expected = parse_core(
            "-2*u1_x1*u1_x1x1 - 2*u2_x1*u1_x1x2 - 2*u1_x2*u1_x1x2 - 2*u2_x2*u1_x2x2;"
            "-2*u1_x1*u2_x1x1 - 2*u2_x1*u2_x1x2 - 2*u1_x2*u2_x1x2 - 2*u2_x2*u2_x2x2;"
            "0",
            n=2,
            N=3,
        )
        assert derive_source(fluid_core(2)) == expected


class TestFrechet:
    def test_burgers_table(self):
        table = jet_frechet(burgers_core())
        one = JetExpr.constant(1, 1, 1)
        assert table.zero_order == {(1, 1): u(1, "x1")}
        assert table.first_order[(1, 1, "x1")] == u(1)
        assert table.first_order[(1, 1, "t")] == one
        assert set(table.first_order) == {(1, 1, "x1"), (1, 1, "t")}

    def test_power_rule(self):
        table = jet_frechet(u(1) * u(1) * u(1))
        assert table.zero_order[(1, 1)] == 3 * (u(1) * u(1))

    def test_second_order_rejected(self):
        with pytest.raises(ValueError, match="first order"):
            jet_frechet(u(1, "x1", "x1"))


class TestNumericEvaluation:
    def test_burgers_source_on_single_mode(self, grid1d):
        # s = -2 u_x u_xx with u = sin x gives exactly sin(2x)
        x = grid1d.coords()[0]
        f = Field(grid1d, np.sin(x))
        s = derive_source(burgers_core())
        out = jet_evaluate(s, jet_values(s, f))
        assert np.max(np.abs(out.component(0) - np.sin(2 * x))) <= 1e-10

    def test_fluid_source_vanishes_on_cellular_flow(self, grid2d):
        v = taylor_green(grid2d)
        p = taylor_green_pressure(grid2d)
        state = Field(grid2d, np.stack([v.component(0), v.component(1), p.component(0)]))
        s = derive_source(fluid_core(2))
        out = jet_evaluate(s, jet_values(s, state))
        assert np.max(np.abs(out.values)) <= 1e-11

    def test_time_derivative_requires_u_t(self, grid1d):
        x = grid1d.coords()[0]
        f = Field(grid1d, np.sin(x))
        core = burgers_core()
        with pytest.raises(ValueError, match="u_t"):
            jet_values(core, f)
        f_t = Field(grid1d, np.cos(x))
        vals = jet_values(core, f, f_t)
        out = jet_evaluate(core, vals)
        expected = np.cos(x) + np.sin(x) * np.cos(x)
        assert np.max(np.abs(out.component(0) - expected)) <= 1e-12

    def test_eta_derivative_not_evaluable(self, grid1d):
        e = parse_core("u1_eta", allow_eta=True)
        f = Field(grid1d, np.zeros(grid1d.shape))
        with pytest.raises(ValueError, match="eta"):
            jet_values(e, f)

    def test_constant_needs_grid(self, grid1d):
        e = JetExpr.constant(1, 1, Fraction(5, 2))
        with pytest.raises(ValueError, match="grid"):
            jet_evaluate(e, {})
        out = jet_evaluate(e, {}, grid=grid1d)
        assert np.all(out.values == 2.5)

    def test_missing_jet_value(self, grid1d):
        e = u(1, "x1")
        with pytest.raises(ValueError, match="missing"):
            jet_evaluate(e, {}, grid=grid1d)
