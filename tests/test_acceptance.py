"""Acceptance gate: one test per advertised guarantee of the package.

Each test prints a single PASS/FAIL line (unbuffered past capture) with
the measured quantity and its budget, checks the stated tolerance, and
enforces its runtime cap.
"""

import time

import numpy as np

from scalepde import (
    EvolutionState,
    Field,
    JetExpr,
    RunConfig,
    ScaleStack,
    build_scale_stack,
    burgers_core,
    closure_error_bound,
    derive_source,
    divergence,
    duhamel_integral,
    exact_residual,
    field_norms,
    filter_defect,
    fluid_core,
    frechet_contraction,
    heat_propagate,
    jet_evaluate,
    jet_values,
    laplacian,
    make_grid,
    parse_core,
    reference_burgers,
    residual_defect,
    run_simulation,
    solve_residual_closure,
    spectral_derivative,
    step_rk4,
)
from scalepde.cli import main
from scalepde.families import (
    filtered_taylor_green,
    random_band_limited,
    random_solenoidal,
    single_mode_solenoidal,
    taylor_green,
)
from oracles import (
    manufactured_burgers,
    manufactured_fluid,
    manufactured_scalar_2d,
    node_fields,
    spectral_stack,
    stack_field,
)


def _verdict(capsys, name: str, ok: bool, detail: str, elapsed: float, cap: float):
    with capsys.disabled():
        print(
            f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} "
            f"[{elapsed:.1f}s / {cap:.0f}s]"
        )


def _filtered_stacks(core_name: str, epsilon: float, eta0: float, K: int):
    """(u, u_t, r) stacks for a filtered family of the named core."""
    if core_name == "burgers":
        core = burgers_core()
        grid = make_grid(1, 128)
        u_gen, ut_gen = (Field(grid, g) for g in reference_burgers(grid, [0.5])[0])
    else:
        core = fluid_core(2)
        u_gen, ut_gen = filtered_taylor_green(make_grid(2, 64), t=0.0, eta=0.0)
    u_stack = build_scale_stack(u_gen, epsilon, eta0, K)
    ut_stack = build_scale_stack(ut_gen, epsilon, eta0, K)
    r_rows = [
        exact_residual(core, u, u_t).values
        for u, u_t in zip(node_fields(u_stack), node_fields(ut_stack))
    ]
    return core, u_stack, ut_stack, ScaleStack(u_stack.grid, u_stack.eta_nodes, r_rows)


def _defect_at_mid(core, u_stack, ut_stack, r_stack):
    mid = u_stack.K // 2
    source = derive_source(core)
    u, u_t = (node_fields(stack)[mid] for stack in (u_stack, ut_stack))
    s_mid = jet_evaluate(source, jet_values(source, u.grid, u.values, u_t.values), u.grid)
    return residual_defect(r_stack, s_mid, mid)


class TestAcceptance:
    def test_criterion_1_filter_semigroup(self, capsys):
        t0 = time.monotonic()
        worst = 0.0
        for grid in (make_grid(2, 64), make_grid(1, 128)):
            rng = np.random.default_rng(0)
            f = random_band_limited(grid, rng, kmax=min(8, grid.size // 6))
            scale = float(np.max(np.abs(f.values)))
            a, b = 0.013, 0.029
            comp = heat_propagate(heat_propagate(f, a), b) - heat_propagate(f, a + b)
            worst = max(worst, field_norms(comp)[1] / scale)
            drift = abs(float(heat_propagate(f, a).values.mean() - f.values.mean()))
            worst = max(worst, drift / scale)
            commute = spectral_derivative(heat_propagate(f, a), 0) - heat_propagate(
                spectral_derivative(f, 0), a
            )
            worst = max(worst, field_norms(commute)[1] / scale)
            if grid.n == 2:
                v = random_solenoidal(grid, rng, kmax=6)
            else:
                v = Field(grid, np.full((1,) + grid.shape, 0.8))
            div = field_norms(divergence(heat_propagate(v, a)))[1]
            worst = max(worst, div / float(np.max(np.abs(v.values))))
        elapsed = time.monotonic() - t0
        ok = worst <= 1e-12 and elapsed < 5.0
        _verdict(
            capsys, "filter semigroup suite",
            ok, f"worst relative error {worst:.3e} <= 1e-12", elapsed, 5.0,
        )
        assert worst <= 1e-12
        assert elapsed < 5.0

    def test_criterion_2_symbolic_source(self, capsys):
        t0 = time.monotonic()
        fluid_expected = parse_core(
            "-2*u1_x1*u1_x1x1 - 2*u2_x1*u1_x1x2 - 2*u1_x2*u1_x1x2 - 2*u2_x2*u1_x2x2;"
            "-2*u1_x1*u2_x1x1 - 2*u2_x1*u2_x1x2 - 2*u1_x2*u2_x1x2 - 2*u2_x2*u2_x2x2;"
            "0",
            n=2,
            N=3,
        )
        fluid_ok = derive_source(fluid_core(2)) == fluid_expected
        burgers_ok = derive_source(burgers_core()) == parse_core(
            "-2*u1_x1*u1_x1x1"
        )
        linear_ok = (
            derive_source(parse_core("u1_t + 3*u1_x1")) == JetExpr.zero(1, 1)
            and derive_source(parse_core("u1_t; u2_t; 0", n=2, N=3)) == JetExpr.zero(2, 3, 3)
        )
        elapsed = time.monotonic() - t0
        ok = fluid_ok and burgers_ok and linear_ok and elapsed < 1.0
        _verdict(
            capsys, "symbolic source derivation",
            ok,
            f"fluid exact={fluid_ok}, burgers exact={burgers_ok}, linear zero={linear_ok}",
            elapsed, 1.0,
        )
        assert fluid_ok and burgers_ok and linear_ok
        assert elapsed < 1.0

    def test_criterion_3_defect_convergence(self, capsys):
        t0 = time.monotonic()
        epsilon, eta0 = 0.05, 0.15
        all_orders = {}
        for core_name in ("fluid", "burgers"):
            errors = []
            for K in (9, 17, 33):  # delta_eta in {4h, 2h, h}
                core, u_stack, ut_stack, r_stack = _filtered_stacks(
                    core_name, epsilon, eta0, K
                )
                errors.append(np.max(np.abs(_defect_at_mid(core, u_stack, ut_stack, r_stack))))
            all_orders[core_name] = [
                float(np.log2(a / b)) for a, b in zip(errors, errors[1:])
            ]
        worst = min(min(orders) for orders in all_orders.values())
        elapsed = time.monotonic() - t0
        ok = worst >= 1.9 and elapsed < 60.0
        _verdict(
            capsys, "residual transport defect convergence",
            ok,
            "orders fluid=%s burgers=%s, min %.3f >= 1.9" % (
                ["%.3f" % o for o in all_orders["fluid"]],
                ["%.3f" % o for o in all_orders["burgers"]],
                worst,
            ),
            elapsed, 60.0,
        )
        assert worst >= 1.9
        assert elapsed < 60.0

    def test_criterion_4_frechet_contraction(self, capsys):
        t0 = time.monotonic()
        K = 33
        nodes = np.linspace(0.05, 0.15, K)
        rels = {}
        for core_name in ("burgers", "fluid"):
            if core_name == "burgers":
                grid, core, family = make_grid(1, 128), burgers_core(), manufactured_burgers
            else:
                grid, core, family = make_grid(2, 64), fluid_core(2), manufactured_fluid
            slices = [family(grid, 0.0, float(e)) for e in nodes]
            r_stack = ScaleStack(
                grid, nodes, [exact_residual(core, s.u, s.u_t).values for s in slices]
            )
            mid = K // 2
            source = derive_source(core)
            jets = jet_values(source, grid, slices[mid].u.values, slices[mid].u_t.values)
            s_mid = jet_evaluate(source, jets, grid)
            measured = residual_defect(r_stack, s_mid, mid)
            predicted = frechet_contraction(
                core, slices[mid].u, slices[mid].psi, slices[mid].u_t, slices[mid].psi_t
            )
            miss = np.max(np.abs(measured - predicted.values))
            rels[core_name] = miss / field_norms(predicted)[1]
        worst = max(rels.values())
        elapsed = time.monotonic() - t0
        ok = worst <= 0.05 and elapsed < 30.0
        _verdict(
            capsys, "frechet contraction identity",
            ok,
            f"relative discrepancy burgers={rels['burgers']:.2e} "
            f"fluid={rels['fluid']:.2e}, worst <= 5%",
            elapsed, 30.0,
        )
        assert worst <= 0.05
        assert elapsed < 30.0

    def test_criterion_5_closure_solver(self, capsys):
        t0 = time.monotonic()
        grid = make_grid(2, 64)
        rng = np.random.default_rng(1)
        s = random_band_limited(grid, rng, kmax=8)
        eta = 0.05
        r = solve_residual_closure(s, eta)
        back = laplacian(r).values - r.values / eta + s.values
        back_rel = float(np.max(np.abs(back))) / field_norms(s)[1]

        grid1 = make_grid(1, 128)
        x = grid1.coords()[0]
        sine = Field(grid1, np.sin(x))
        r_sine = solve_residual_closure(sine, 0.25)
        mode_err = float(np.max(np.abs(r_sine.values[0] - np.sin(x) / (1 + 1 / 0.25))))
        const = Field(grid1, np.full(grid1.shape, 0.7))
        r_const = solve_residual_closure(const, 0.3)
        const_err = float(np.max(np.abs(r_const.values - 0.7 * 0.3)))

        elapsed = time.monotonic() - t0
        ok = back_rel <= 1e-10 and max(mode_err, const_err) <= 1e-12 and elapsed < 1.0
        _verdict(
            capsys, "closure solver",
            ok,
            f"back-substitution {back_rel:.2e} <= 1e-10, "
            f"closed forms {max(mode_err, const_err):.2e} <= 1e-12",
            elapsed, 1.0,
        )
        assert back_rel <= 1e-10
        assert mode_err <= 1e-12 and const_err <= 1e-12
        assert elapsed < 1.0

    def test_criterion_6_taylor_bound(self, capsys):
        t0 = time.monotonic()
        K = 33
        worst = 0.0

        # manufactured residual with r -> 0 at vanishing scale
        grid1 = make_grid(1, 128)
        x = grid1.coords()[0]
        nodes = np.linspace(0.01, 0.2, K)
        manu = ScaleStack(
            grid1, nodes, [(e * np.exp(-2.0 * e) * np.sin(x))[np.newaxis] for e in nodes]
        )
        lhs, rhs = closure_error_bound(manu)
        worst = max(worst, float(np.max(lhs / rhs)))

        # exact residuals of the pre-shock filtered reference problem
        _, _, _, r_stack = _filtered_stacks("burgers", 0.05, 0.15, K)
        lhs, rhs = closure_error_bound(r_stack)
        worst = max(worst, float(np.max(lhs / rhs)))

        elapsed = time.monotonic() - t0
        ok = worst <= 1.10 and elapsed < 30.0
        _verdict(
            capsys, "closure taylor bound",
            ok, f"worst lhs/rhs ratio {worst:.3f} <= 1.10 at every interior node",
            elapsed, 30.0,
        )
        assert worst <= 1.10
        assert elapsed < 30.0

    def test_criterion_7_duhamel_reconstruction(self, capsys):
        t0 = time.monotonic()
        grid = make_grid(2, 64)
        epsilon, eta0 = 0.05, 0.15
        errors, margins = [], []
        for K in (9, 17, 33):
            h = (eta0 - epsilon) / (K - 1)
            big_nodes = [epsilon + (j - 1) * h for j in range(K + 2)]
            big = [manufactured_scalar_2d(grid, float(e))[0] for e in big_nodes]
            psi = filter_defect(spectral_stack(big))
            psi_fields = [stack_field(psi, j) for j in range(K)]
            anchor = big[1]
            direct = big[K] - heat_propagate(anchor, big[K].eta - anchor.eta)
            quad = duhamel_integral(psi, K - 1)
            errors.append(np.max(np.abs(direct.values - quad)))
            sup_psi = max(field_norms(p)[1] for p in psi_fields)
            for j in range(1, K + 1):
                dev = big[j] - heat_propagate(anchor, big[j].eta - anchor.eta)
                margins.append(field_norms(dev)[1] / (big_nodes[j] * sup_psi))
        orders = [float(np.log2(a / b)) for a, b in zip(errors, errors[1:])]
        final_order = orders[-1]
        worst_margin = max(margins)
        elapsed = time.monotonic() - t0
        ok = final_order >= 1.5 and worst_margin <= 1.05 and elapsed < 60.0
        _verdict(
            capsys, "duhamel deviation reconstruction",
            ok,
            f"orders {['%.3f' % o for o in orders]} (final >= 1.5), "
            f"deviation/bound {worst_margin:.3f} <= 1.05",
            elapsed, 60.0,
        )
        assert final_order >= 1.5
        assert worst_margin <= 1.05
        assert elapsed < 60.0

    def test_criterion_8_evolution_sanity(self, capsys):
        t0 = time.monotonic()

        # steady cellular flow preserved over 100 steps without closure
        grid = make_grid(2, 64)
        state = EvolutionState(t=0.0, v=taylor_green(grid))
        psi_state = EvolutionState(
            t=0.0, v=taylor_green(grid), psi_v=Field(grid, np.zeros((2,) + grid.shape))
        )
        for _ in range(100):
            state = step_rk4(state, 1e-3)
            psi_state = step_rk4(psi_state, 1e-3)
        drift = float(np.max(np.abs(state.v.values - taylor_green(grid).values)))
        psi_trivial = field_norms(psi_state.psi_v)[1]

        # relative energy drift of a random inviscid run
        config = RunConfig(
            grid_size=32, t_end=1.0, dt=1e-3, closure="none",
            initial_condition={"name": "random_solenoidal", "kmax": 3},
            output_interval=200, seed=7,
        )
        result = run_simulation(config)
        e0 = result.records[0].energy
        energy_drift = max(abs(rec.energy - e0) for rec in result.records) / e0

        # RK self-convergence for the closed macroscopic system and the
        # coupled defect transport
        def integrate(v0, psi0, dt, T, closure):
            s = EvolutionState(t=0.0, v=v0, psi_v=psi0)
            for _ in range(round(T / dt)):
                s = step_rk4(s, dt, closure=closure)
            return s

        small = make_grid(2, 32)
        rng = np.random.default_rng(11)
        T = 0.2
        v0 = random_solenoidal(small, rng, kmax=3, amplitude=1.0).with_values(eta=0.05)
        ref = integrate(v0, None, T / 320, T, "helmholtz")
        errs = [
            float(np.max(np.abs(integrate(v0, None, T / m, T, "helmholtz").v.values - ref.v.values)))
            for m in (20, 40)
        ]
        order_macro = float(np.log2(errs[0] / errs[1]))

        v0b = taylor_green(small).with_values(eta=0.05)
        psi0 = single_mode_solenoidal(small, k=(1, 2), amplitude=0.5).with_values(eta=0.05)
        refp = integrate(v0b, psi0, T / 320, T, "none")
        errs = []
        for m in (20, 40):
            got = integrate(v0b, psi0, T / m, T, "none")
            errs.append(
                max(
                    float(np.max(np.abs(got.v.values - refp.v.values))),
                    float(np.max(np.abs(got.psi_v.values - refp.psi_v.values))),
                )
            )
        order_psi = float(np.log2(errs[0] / errs[1]))

        elapsed = time.monotonic() - t0
        ok = (
            drift <= 1e-8
            and energy_drift <= 1e-8
            and order_macro >= 3.8
            and order_psi >= 3.8
            and psi_trivial <= 1e-12
            and elapsed < 60.0
        )
        _verdict(
            capsys, "evolution sanity",
            ok,
            f"steady drift {drift:.1e} <= 1e-8, energy drift {energy_drift:.1e} <= 1e-8, "
            f"rk orders {order_macro:.2f}/{order_psi:.2f} >= 3.8, "
            f"trivial psi {psi_trivial:.1e} <= 1e-12",
            elapsed, 60.0,
        )
        assert drift <= 1e-8
        assert energy_drift <= 1e-8
        assert order_macro >= 3.8
        assert order_psi >= 3.8
        assert psi_trivial <= 1e-12
        assert elapsed < 60.0

    def test_criterion_9_determinism(self, capsys, tmp_path):
        t0 = time.monotonic()
        args = [
            "--set", "grid_size=32",
            "--set", "t_end=0.02",
            "--set", "closure=helmholtz",
            "--set", "initial_condition.name=random_solenoidal",
            "--set", "output_interval=5",
            "--seed", "3",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        code1 = main(["evolve", "--out", str(out1)] + args)
        code2 = main(["evolve", "--out", str(out2)] + args)
        capsys.readouterr()
        csv1 = (out1 / "diagnostics.csv").read_bytes()
        csv2 = (out2 / "diagnostics.csv").read_bytes()
        ck1 = (out1 / "final_v.ckpt").read_bytes()
        ck2 = (out2 / "final_v.ckpt").read_bytes()
        elapsed = time.monotonic() - t0
        ok = code1 == 0 and code2 == 0 and csv1 == csv2 and ck1 == ck2 and elapsed < 30.0
        _verdict(
            capsys, "determinism",
            ok,
            f"exit codes ({code1}, {code2}), identical csv={csv1 == csv2}, "
            f"identical checkpoint={ck1 == ck2}",
            elapsed, 30.0,
        )
        assert code1 == 0 and code2 == 0
        assert csv1 == csv2
        assert ck1 == ck2
        assert elapsed < 30.0
