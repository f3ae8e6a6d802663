"""Jet calculus: parsing, total derivatives, the source map and evaluation."""

import importlib
import random
import re
from fractions import Fraction
from pathlib import Path

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
    jet_linearize,
    jet_total_derivative,
    jet_values,
    make_grid,
    parse_core,
    spectral_derivative,
)
from scalepde.families import random_band_limited, taylor_green
from scalepde.fluid import burgers_core, fluid_core
from scalepde.jets import spatial_labels
from scalepde.residual import exact_residual
from oracles import (
    burgers_core_twin,
    chained_jet_values,
    formal_frechet,
    pairwise_jet_evaluate,
    taylor_green_pressure,
)


def random_expr(rng: random.Random, n: int, N: int, max_outputs: int = 2, eta: bool = True) -> JetExpr:
    """Random canonical expression of up to second order, eta included
    unless ``eta`` is false: up to 4 monomials per output and 3 factors
    per monomial."""
    coords = list(spatial_labels(n)) + ["t"] + ["eta"] * eta
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
    return JetExpr(n, N, ((JetMonomial(1, (JetIndex(component, derivs),)),),))


def product(n, N, *factors):
    """The product of single-output expressions, read back from core text."""
    return JetExpr(n, N, parse_core("*".join(f"({f})" for f in factors), n=n).terms)


def assert_table_matches_formal_partials(core: JetExpr):
    # equal entries in the same order: derive-source prints the table in it
    table, oracle = jet_frechet(core), formal_frechet(core)
    for got, want in ((table.zero_order, oracle.zero_order), (table.first_order, oracle.first_order)):
        assert got == want
        assert list(got) == list(want)


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

    def test_sort_key_made_once_and_not_compared(self):
        a = JetIndex(2, ("t", "x2", "x1"))
        assert a.sort_key() == (2, 3, ((0, 1), (0, 2), (1, 0)))
        assert a.sort_key() is a.sort_key()
        assert a == JetIndex(2, ("x1", "x2", "t")) and hash(a) == hash(JetIndex(2, ("x1", "x2", "t")))
        assert repr(a) == "JetIndex(component=2, derivs=('x1', 'x2', 't'))"

    @pytest.mark.parametrize(
        "derivs, label",
        [((), "x1"), (("x2", "t"), "x1"), (("x1", "eta"), "t"), (("x1",), "x1"),
         (("t",), "x3"), (("x1", "x2"), "x0")],
    )
    def test_with_deriv_equals_a_fresh_index(self, derivs, label):
        if label == "x0":  # outside the label grammar: both refuse it
            with pytest.raises(ValueError, match="'x0' is not a coordinate label"):
                JetIndex(2, derivs).with_deriv(label)
            with pytest.raises(ValueError, match="'x0' is not a coordinate label"):
                JetIndex(2, derivs + (label,))
            return
        derived = JetIndex(2, derivs).with_deriv(label)
        fresh = JetIndex(2, derivs + (label,))
        assert derived == fresh and hash(derived) == hash(fresh)
        assert repr(derived) == repr(fresh)
        assert derived.sort_key() == fresh.sort_key()
        assert derived._reach == fresh._reach

    @pytest.mark.parametrize("label", ["x3", "x0", "x-1", "x 1", "x01", "x", "T", "etat", ""])
    def test_coordinate_outside_n_names_it(self, label):
        # labels are x<k> with k >= 1 and no leading zero, t or eta; no index holds another
        if label != "x3":
            with pytest.raises(ValueError, match=re.escape(f"{label!r} is not a coordinate label")):
                JetIndex(1, ("x1", label))
            return
        bad = JetIndex(1, ("x1", label))
        with pytest.raises(ValueError, match=f"uses coordinate {label} outside n=2"):
            JetExpr(2, 1, ((JetMonomial(1, (bad,)),),))


class TestJetExpr:
    def test_structural_equality_is_mathematical(self):
        a = parse_core("u1*u1_x1 + u1_t")
        b = parse_core("u1_t + u1_x1*u1")
        assert a == b
        assert a == u(1, "t") + parse_core("u1_x1*u1")

    def test_cancellation_gives_zero(self):
        a = parse_core("u1*u1_x1")
        assert (a - a) == JetExpr.zero(1, 1)

    def test_canonicalizes_given_monomials(self):
        # a JetMonomial keeps what it is given; JetExpr converts, sorts, merges, drops zeros
        u1, u1_x1, u1_t = JetIndex(1), JetIndex(1, ("x1",)), JetIndex(1, ("t",))
        assert JetMonomial(2, (u1_x1, u1)).factors == (u1_x1, u1)
        given = (
            JetMonomial(2, (u1_x1, u1)),
            JetMonomial(0.5, (u1, u1_x1)),
            JetMonomial(1, (u1_t,)),
            JetMonomial(-1.0, (u1_t,)),
        )
        (m,) = JetExpr(1, 1, (given,)).terms[0]
        assert m == JetMonomial(Fraction(5, 2), (u1, u1_x1))
        assert type(m.coeff) is Fraction

    def test_max_order(self):
        assert (u(1, "x1", "x1") + u(1)).max_order == 2
        assert JetExpr(1, 1, ((JetMonomial(3),),)).max_order == 0


class TestParse:
    def test_burgers_core(self):
        e = burgers_core()
        assert e == burgers_core_twin()
        assert e.n == 1 and e.N == 1

    @pytest.mark.parametrize("text, col", [("u1*u1_x01", 4), ("u1_x0", 1), ("u1_t + u1_xt", 8)])
    def test_suffix_outside_the_label_grammar_names_position(self, text, col):
        # x<k> has no leading zero, so u1_x01 is no other name for u1_x1
        with pytest.raises(CoreSyntaxError, match=f"line 1, column {col}: bad derivative suffix"):
            parse_core(text)

    def test_rational_coefficients(self):
        e = parse_core("3/2*u1 - 1/2*u1")
        assert e == u(1)

    def test_component_separator(self):
        e = parse_core("u1_t; u2_t; 0", n=2)
        assert e.num_outputs == 3
        assert JetExpr(2, 3, (e.terms[2],)) == JetExpr.zero(2, 3)

    def test_parentheses_and_unary_minus(self):
        assert parse_core("-(u1 - u1_x1)*2") == parse_core("2*u1_x1 - 2*u1")

    def test_inference(self):
        e = parse_core("u2_x1x2*u1")
        assert e.n == 2 and e.N == 2

    def test_eta_rejected_in_cores(self):
        with pytest.raises(CoreSyntaxError, match="eta"):
            parse_core("u1_eta")

    def test_eta_allowed_for_general_jets(self):
        e = u(1, "eta")
        assert format_expr(e) == "u1_eta"

    def test_unknown_identifier(self):
        with pytest.raises(CoreSyntaxError, match="line 1, column 8"):
            parse_core("u1_t + vorticity")

    def test_error_position_multiline(self):
        with pytest.raises(CoreSyntaxError, match="line 2, column 6"):
            parse_core("u1_t +\n u1* ?")

    def test_component_count_is_the_largest_used(self):
        # n may be given; N is always read off the text
        assert parse_core("u2_x1", n=2).N == 2

    def test_axis_beyond_declared(self):
        with pytest.raises(CoreSyntaxError, match="n=1"):
            parse_core("u1_x2", n=1)

    def test_missing_operand(self):
        with pytest.raises(CoreSyntaxError, match="line 1"):
            parse_core("u1 +")

    @pytest.mark.parametrize(
        "text, where",
        [
            ("2/0*u1", "line 1, column 1: division by zero"),
            ("u1 + 3/0", "line 1, column 6: division by zero"),
            ("(" * 400 + "u1" + ")" * 400, "line 1, column 101: parentheses nest"),
        ],
    )
    def test_malformed_text_names_position(self, text, where):
        with pytest.raises(CoreSyntaxError, match=where):
            parse_core(text)

    def test_sign_runs_and_long_sums_parse(self):
        # a run of signs is as valid after '*' as at the start of a term
        assert parse_core("u1*" + "-" * 2000 + "u1") == parse_core("u1*u1")
        assert parse_core("u1*" + "-" * 2001 + "u1") == parse_core("-u1*u1")
        assert parse_core("(" * 100 + "u1" + ")" * 100) == u(1)
        assert parse_core(" + ".join(["u1"] * 20000)) == parse_core("20000*u1")

    def test_round_trip_random(self):
        rng = random.Random(2024)
        for _ in range(100):
            n = rng.choice([1, 2])
            N = rng.randint(1, 3)
            e = random_expr(rng, n, N)
            if any("eta" in idx.derivs for idx in e.jet_indices()):
                with pytest.raises(CoreSyntaxError, match="eta derivatives are not allowed"):
                    parse_core(format_expr(e), n=n)
                continue
            # N is the largest component used, at most the drawn N
            again = JetExpr(n, N, parse_core(format_expr(e), n=n).terms)
            assert again == e, format_expr(e)


class TestTotalDerivative:
    def test_product_rule(self):
        e = jet_total_derivative(parse_core("u1*u1_x1"), "x1")
        assert e == parse_core("u1_x1*u1_x1 + u1*u1_x1x1")

    def test_leibniz_general(self):
        rng = random.Random(7)
        for _ in range(20):
            # no eta, so the product can be read from core text
            f = random_expr(rng, 2, 2, max_outputs=1, eta=False)
            g = random_expr(rng, 2, 2, max_outputs=1, eta=False)
            f_x2, g_x2 = (jet_total_derivative(e, "x2") for e in (f, g))
            lhs = jet_total_derivative(product(2, 2, f, g), "x2")
            assert lhs == product(2, 2, f_x2, g) + product(2, 2, f, g_x2)

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
        expr = parse_core("u1*u1_x2")
        f = random_band_limited(grid2d, rng, kmax=5)
        v_expr = jet_total_derivative(expr, "x1")
        lhs = jet_evaluate(v_expr, jet_values(v_expr, grid2d, f.values), grid2d)
        rhs = spectral_derivative(exact_residual(expr, f), 0)
        assert np.max(np.abs(lhs - rhs.values)) <= 1e-8


class TestSourceMap:
    def test_L_on_variable(self):
        assert jet_L(u(1, n=2, N=1)) == parse_core("u1_x1x1 + u1_x2x2")

    def test_W_matches_L_on_linear(self):
        core = parse_core("u1_t + 3*u1_x1", n=1)
        assert jet_W(core) == jet_L(core)

    def test_linear_core_has_zero_source(self):
        assert derive_source(parse_core("u1_t + 3*u1_x1")) == JetExpr.zero(1, 1)
        assert derive_source(parse_core("u1_t; u2_t", n=2)) == JetExpr.zero(2, 2, 2)

    def test_burgers_source(self):
        s = derive_source(burgers_core())
        assert format_expr(s) == "-2*u1_x1*u1_x1x1"
        assert s == parse_core("-2*u1_x1*u1_x1x1")

    def test_quadratic_core_source_counts_cross_terms(self):
        # W(u*u) = 2 u*u_xx while L(u*u) = 2 u*u_xx + 2 u_x*u_x
        s = derive_source(parse_core("u1*u1 + u1_t"))
        assert s == parse_core("-2*u1_x1*u1_x1")

    def test_second_order_core_rejected(self):
        with pytest.raises(ValueError, match="first order"):
            derive_source(parse_core("u1_x1x1 + u1_t"))

    def test_fluid_source_matches_expected_polynomial(self):
        # the pressure, u3, appears in no term of the source
        expected = JetExpr(2, 3, parse_core(
            "-2*u1_x1*u1_x1x1 - 2*u2_x1*u1_x1x2 - 2*u1_x2*u1_x1x2 - 2*u2_x2*u1_x2x2;"
            "-2*u1_x1*u2_x1x1 - 2*u2_x1*u2_x1x2 - 2*u1_x2*u2_x1x2 - 2*u2_x2*u2_x2x2;"
            "0",
            n=2,
        ).terms)
        assert derive_source(fluid_core(2)) == expected


class TestFrechet:
    def test_burgers_table(self):
        table = jet_frechet(burgers_core())
        one = JetExpr(1, 1, ((JetMonomial(1),),))
        assert table.zero_order == {(1, 1): u(1, "x1")}
        assert table.first_order[(1, 1, "x1")] == u(1)
        assert table.first_order[(1, 1, "t")] == one
        assert set(table.first_order) == {(1, 1, "x1"), (1, 1, "t")}

    def test_power_rule(self):
        table = jet_frechet(parse_core("u1*u1*u1"))
        assert table.zero_order[(1, 1)] == parse_core("3*u1*u1")

    def test_second_order_rejected(self):
        with pytest.raises(ValueError, match="first order"):
            jet_frechet(u(1, "x1", "x1"))

    def test_visits_only_the_variables_of_each_output(self):
        big = 10**20
        table = jet_frechet(parse_core(f"u{big}_x1"))
        assert table.zero_order == {}
        assert table.first_order == {(1, big, "x1"): JetExpr(1, big, ((JetMonomial(1),),))}

    def test_entries_in_component_then_coordinate_order(self):
        # derive-source prints the table in this order
        table = jet_frechet(fluid_core(2))
        assert list(table.zero_order) == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert list(table.first_order) == [
            (1, 1, "x1"), (1, 1, "x2"), (1, 1, "t"), (1, 3, "x1"),
            (2, 2, "x1"), (2, 2, "x2"), (2, 2, "t"), (2, 3, "x2"),
            (3, 1, "x1"), (3, 2, "x2"),
        ]

    @pytest.mark.parametrize(
        "core",
        [
            burgers_core(),
            fluid_core(1),
            fluid_core(2),
            parse_core("u1*u1*u2_x2 + 3*u2_t*u1; u1_x1*u2_x1 - u2"),
            parse_core("u1*u1*u1"),
            parse_core("u1*u1_x1 + u2_x1*u1 - u1_x1*u1 + u1_t; u2*u2 - u2*u2 + u1_x2"),
        ],
        ids=["burgers", "fluid_1d", "fluid_2d", "cubic", "power", "cancelling"],
    )
    def test_table_matches_formal_partials(self, core):
        assert_table_matches_formal_partials(core)

    def test_table_matches_formal_partials_on_benchmark_cores(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
        for seed in range(10):
            assert_table_matches_formal_partials(parse_core(workloads.core_text(seed)))

    def test_linearize_burgers(self):
        assert jet_linearize(burgers_core()) == parse_core("u2_t + u1_x1*u2 + u1*u2_x1")

    @pytest.mark.parametrize(
        "core",
        [fluid_core(1), fluid_core(2), parse_core("u1*u1*u2_x2 + 3*u2_t*u1; u1_x1*u2_x1 - u2")],
        ids=["fluid_1d", "fluid_2d", "cubic"],
    )
    def test_linearize_contracts_the_frechet_table(self, core):
        # sum over the table of (partial of F^alpha) * (psi^beta jet), psi^beta = u^{N + beta}
        n, N = core.n, core.N
        table = formal_frechet(core)
        rows = [["0"] for _ in range(core.num_outputs)]
        for key, partial in (*table.zero_order.items(), *table.first_order.items()):
            alpha, beta, derivs = key[0], key[1], key[2:]
            rows[alpha - 1].append(f"({partial})*{JetIndex(N + beta, derivs)}")
        text = "; ".join(" + ".join(row) for row in rows)
        assert jet_linearize(core) == JetExpr(n, 2 * N, parse_core(text, n=n).terms)


class TestNumericEvaluation:
    def test_burgers_source_on_single_mode(self, grid1d):
        # s = -2 u_x u_xx with u = sin x gives exactly sin(2x)
        x = grid1d.coords()[0]
        f = Field(grid1d, np.sin(x))
        s = derive_source(burgers_core())
        out = jet_evaluate(s, jet_values(s, grid1d, f.values), grid1d)
        assert np.max(np.abs(out[0] - np.sin(2 * x))) <= 1e-10

    def test_fluid_source_vanishes_on_cellular_flow(self, grid2d):
        v = taylor_green(grid2d)
        p = taylor_green_pressure(grid2d)
        state = np.stack([v.values[0], v.values[1], p.values[0]])
        s = derive_source(fluid_core(2))
        out = jet_evaluate(s, jet_values(s, grid2d, state), grid2d)
        assert np.max(np.abs(out)) <= 1e-11

    def test_time_derivative_requires_u_t(self, grid1d):
        x = grid1d.coords()[0]
        f = np.sin(x)[np.newaxis]
        core = burgers_core()
        with pytest.raises(ValueError, match="u_t"):
            jet_values(core, grid1d, f)
        f_t = np.cos(x)[np.newaxis]
        vals = jet_values(core, grid1d, f, f_t)
        out = jet_evaluate(core, vals, grid1d)
        expected = np.cos(x) + np.sin(x) * np.cos(x)
        assert np.max(np.abs(out[0] - expected)) <= 1e-12

    def test_eta_derivative_not_evaluable(self, grid1d):
        e = u(1, "eta")
        with pytest.raises(ValueError, match="eta"):
            jet_values(e, grid1d, np.zeros((1,) + grid1d.shape))

    def test_row_off_the_grid_shape_names_both_shapes(self, grid2d, rng):
        # the check a Field made of its values: the trailing shape is the grid's
        core = parse_core("u1_t + u1*u1_x1", n=2)
        fits = rng.standard_normal((1, 64, 64))
        small = rng.standard_normal((1, 32, 32))
        flat = rng.standard_normal((1, 64))
        stacked_small = rng.standard_normal((2, 1, 32, 32))
        for u, u_t, bad, shape in (
            (small, fits, "u", "(1, 32, 32)"),
            (fits, small, "u_t", "(1, 32, 32)"),
            (flat, fits, "u", "(1, 64)"),
            (fits, flat, "u_t", "(1, 64)"),
            (stacked_small, fits, "u", "(2, 1, 32, 32)"),
        ):
            with pytest.raises(ValueError) as err:
                jet_values(core, grid2d, u, u_t)
            assert str(err.value) == f"{bad} of shape {shape} does not fit grid shape (64, 64)"
        # rows that fit are read, and stacks of them node by node
        assert len(jet_values(core, grid2d, fits, fits)) == 3
        stacked = rng.standard_normal((5, 1, 64, 64))
        assert {v.shape for v in jet_values(core, grid2d, stacked, stacked).values()} == {
            (5, 64, 64)
        }
        # u_t stacks the nodes u stacks
        for u_t in (fits, stacked[:4]):
            with pytest.raises(ValueError) as err:
                jet_values(core, grid2d, stacked, u_t)
            assert str(err.value) == (
                f"u_t of shape {u_t.shape} has other nodes than u, (5, 1, 64, 64)"
            )
        # the component count is read on the component axis, not the node axis
        with pytest.raises(ValueError, match="u2 exceeds field component count 1$"):
            jet_values(parse_core("u2", n=2), grid2d, stacked)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("kind", ["no-u_t", "u_t", "constant"])
    def test_node_stack_matches_single_nodes(self, rng, n, kind):
        grid = make_grid(n, 64 if n == 1 else 16)
        texts = {
            1: "u1*u1_x1 + u2_x1x1; 2*u1*u2*u2_x1 + u2 + 3",
            2: "u1*u1_x1 + u2*u1_x2 + u1_x1x2; u1*u2*u2_x2 + 3; u1_x1 + u2_x2",
        }
        with_t = kind == "u_t"
        text = texts[n] + ("; u1_t + u2*u2_t" if with_t else "")
        if kind == "constant":
            # no jet to read the node axes off: a constant on K nodes is K rows
            text = "3; -1/2"
        expr = JetExpr(n, 2, parse_core(text, n=n).terms)
        K = 4
        u = rng.standard_normal((K, 2) + grid.shape)
        u_t = rng.standard_normal((K, 2) + grid.shape) if with_t else None
        jets = jet_values(expr, grid, u, u_t)
        out = jet_evaluate(expr, jets, grid)
        assert out.shape == (K, expr.num_outputs) + grid.shape
        for k in range(K):
            one = jet_values(expr, grid, u[k], None if u_t is None else u_t[k])
            assert one.keys() == jets.keys()
            for idx, vals in one.items():
                np.testing.assert_array_equal(jets[idx][k], vals)
            np.testing.assert_array_equal(out[k], jet_evaluate(expr, one, grid))

    def test_axis_beyond_the_grid_names_jet_and_dimension(self, grid1d):
        u = Field(grid1d, np.zeros((3,) + grid1d.shape))
        with pytest.raises(ValueError, match=r"u1_x2 differentiates along x2.*1-dimensional"):
            exact_residual(fluid_core(2), u, u)

    def test_one_dimensional_makes_one_axis_calls(
        self, grid1d, rng, transform_counts, forbid_nd_transforms
    ):
        u = rng.standard_normal((1,) + grid1d.shape)
        expr = parse_core("u1_x1 + u1*u1_x1x1", n=1)
        d = grid1d.rderivatives[0]
        spectrum = np.fft.rfftn(u, axes=(-1,))
        want = {
            JetIndex(1): u,
            JetIndex(1, ("x1",)): np.fft.irfftn(spectrum * d, grid1d.shape, axes=(-1,)),
            JetIndex(1, ("x1", "x1")): np.fft.irfftn(spectrum * d * d, grid1d.shape, axes=(-1,)),
        }
        transform_counts.update(calls=0, complex=0, transforms=0)
        forbid_nd_transforms()
        got = jet_values(expr, grid1d, u)
        assert got.keys() == want.keys()
        for idx, w in want.items():
            np.testing.assert_array_equal(got[idx], w[0])
        # one rfft of u1, one irfft per differentiated jet, no complex call
        assert (transform_counts["calls"], transform_counts["complex"]) == (3, 0)
        assert transform_counts["transforms"] == 3

    def test_two_dimensional_makes_real_calls_only(self, rng, transform_counts, monkeypatch):
        grid = make_grid(2, 32)
        u = rng.standard_normal((2,) + grid.shape)
        expr = parse_core("u1*u1_x1 + u2*u1_x2 + u1_x1x2; u2_x2x2*u1 + u2", n=2)
        transform_counts.update(calls=0, complex=0, transforms=0)
        for name in ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2"):

            def refuse(*args, _name=name, **kwargs):
                raise AssertionError(f"numpy.fft.{_name} called")

            monkeypatch.setattr(np.fft, name, refuse)
        got = jet_values(expr, grid, u)
        assert len(got) == 6
        # one rfftn of each of u1 and u2, one irfftn per differentiated
        # jet (u1_x1, u1_x2, u1_x1x2, u2_x2x2)
        assert (transform_counts["calls"], transform_counts["complex"]) == (6, 0)
        assert transform_counts["transforms"] == 6

    def test_constant_evaluates_to_its_constant(self, grid2d):
        # the grid is given, not read off a jet value, and the residual's
        # t and eta come from the slice
        e = JetExpr(2, 1, ((JetMonomial(Fraction(5, 2)),),))
        f = Field(grid2d, np.zeros(grid2d.shape), t=0.3, eta=0.1)
        assert jet_values(e, grid2d, f.values) == {}
        np.testing.assert_array_equal(
            jet_evaluate(e, {}, grid2d), np.full((1,) + grid2d.shape, 2.5)
        )
        r = exact_residual(e, f)
        assert (r.grid, r.t, r.eta) == (grid2d, 0.3, 0.1)
        np.testing.assert_array_equal(r.values, np.full((1,) + grid2d.shape, 2.5))

    def test_jet_values_are_arrays_on_the_slice_grid(self, grid2d, rng):
        f = Field(grid2d, rng.standard_normal((2,) + grid2d.shape))
        got = jet_values(parse_core("u2 + u1_x2", n=2), grid2d, f.values)
        for idx, vals in got.items():
            assert type(vals) is np.ndarray and vals.shape == grid2d.shape, idx
        # a jet of no derivative is a view of u's row, read-only as a Field's are
        assert np.shares_memory(got[JetIndex(2)], f.values)
        assert not got[JetIndex(2)].flags.writeable

    def test_missing_jet_value(self, grid1d):
        e = u(1, "x1")
        with pytest.raises(ValueError, match="missing"):
            jet_evaluate(e, {JetIndex(1): np.zeros(grid1d.shape)}, grid1d)


class TestAgainstChainedTransforms:
    """jet_values and jet_evaluate against transform chains on white noise,
    which fills the Nyquist planes: a first-order jet is one real round
    trip, and the complex chain (one complex round trip per derivative and
    per dealiased product) is an independent reference."""

    CORES = {
        1: "u1_t + u1*u1_x1 - 3*u1_x1x1*u1_x1 + 2/3*u1*u1_x1*u1_x1x1 + u1_x1t + 5",
        2: (
            "u1_t + u1*u1_x1 + u2*u1_x2 - 3*u1_x1x1*u2 + u1*u2*u1_x2x2 + 2*u2_x1x2"
            " + u1_x2t; u2_t*u1 + u1_x2*u2_x1 - 1/2*u2_x2x2*u1_x1*u2 + 5"
        ),
    }

    @pytest.fixture(params=[1, 2], ids=["1d_64", "2d_32"])
    def case(self, request):
        n = request.param
        grid = make_grid(n, 64 if n == 1 else 32)
        rng = np.random.default_rng(20 + n)
        u, u_t = (Field(grid, rng.standard_normal((n,) + grid.shape)) for _ in range(2))
        expr = parse_core(self.CORES[n], n=n)
        return expr, u, u_t, jet_values(expr, grid, u.values, u_t.values)

    @staticmethod
    def _spatial_order(idx):
        return sum(d.startswith("x") for d in idx.derivs)

    def test_first_order_jets_bit_for_bit(self, case):
        # rfftn, times grid.rderivatives, irfftn
        expr, u, u_t, values = case
        grid = u.grid
        axes = tuple(range(-grid.n, 0))
        first = [idx for idx in values if self._spatial_order(idx) <= 1]
        assert any(self._spatial_order(idx) == 1 for idx in first)
        for idx in first:
            want = (u_t if "t" in idx.derivs else u).values[idx.component - 1]
            for d in idx.derivs:
                if d.startswith("x"):
                    coeffs = np.fft.rfftn(want, axes=axes) * grid.rderivatives[int(d[1:]) - 1]
                    want = np.fft.irfftn(coeffs, grid.shape, axes=axes)
            np.testing.assert_array_equal(values[idx], want)

    def test_first_order_jets_match_the_complex_chain(self, case):
        expr, u, u_t, values = case
        oracle = chained_jet_values(values, u.values, u_t.values)
        first = [idx for idx in values if self._spatial_order(idx) == 1]
        assert first
        for idx in first:
            want = oracle[idx]
            err = np.max(np.abs(values[idx] - want))
            assert err <= 1e-13 * np.max(np.abs(want)), idx

    def test_second_order_jets(self, case):
        expr, u, u_t, values = case
        oracle = chained_jet_values(values, u.values, u_t.values)
        second = [idx for idx in values if self._spatial_order(idx) == 2]
        assert second
        for idx in second:
            want = oracle[idx]
            err = np.max(np.abs(values[idx] - want))
            assert err <= 1e-12 * np.max(np.abs(want)), idx

    def test_evaluate_matches_pairwise_dealiasing(self, case):
        expr, u, u_t, values = case
        want = pairwise_jet_evaluate(expr.terms, values)
        got = jet_evaluate(expr, values, u.grid)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
