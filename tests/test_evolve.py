"""Slice evolution: right-hand sides, RK4 stepping, runs and references."""

import dataclasses
import json

import numpy as np
import pytest

from scalepde import (
    ConfigError,
    EvolutionState,
    Field,
    RunConfig,
    SimulationDiverged,
    build_initial_state,
    cfl_limit,
    divergence,
    field_norms,
    kinetic_energy,
    macroscopic_rhs,
    make_grid,
    psi_rhs,
    read_checkpoint,
    reference_burgers,
    run_simulation,
    step_rk4,
    write_checkpoint,
)
from scalepde.cli import main
from scalepde.families import random_solenoidal, single_mode_solenoidal, taylor_green
from oracles import burgers_characteristics, complex_fft_rhs


class TestRhs:
    def test_cellular_flow_is_steady(self, grid2d):
        v = taylor_green(grid2d)
        rhs = macroscopic_rhs(v, closure="none")
        assert field_norms(rhs)[1] <= 1e-12

    def test_constant_flow_is_steady(self, grid2d):
        v = Field(grid2d, np.stack([np.full(grid2d.shape, 0.3), np.full(grid2d.shape, -1.1)]))
        rhs = macroscopic_rhs(v, closure="none")
        assert field_norms(rhs)[1] <= 1e-13

    def test_rhs_is_solenoidal(self, grid2d, rng):
        v = random_solenoidal(grid2d, rng, kmax=4).with_values(eta=0.05)
        for closure in ("none", "helmholtz"):
            rhs = macroscopic_rhs(v, closure=closure)
            assert field_norms(divergence(rhs))[1] <= 1e-10

    def test_unknown_closure(self, grid2d):
        with pytest.raises(ValueError, match="closure"):
            macroscopic_rhs(taylor_green(grid2d), closure="smagorinsky")

    def test_helmholtz_needs_positive_eta(self, grid2d):
        v = taylor_green(grid2d)  # eta defaults to 0
        with pytest.raises(ValueError, match="eta"):
            macroscopic_rhs(v, closure="helmholtz")

    def test_psi_transport_at_rest_is_forcing(self, grid2d, rng):
        v = Field(grid2d, np.zeros((2,) + grid2d.shape))
        psi = Field(grid2d, np.zeros((2,) + grid2d.shape))
        e_v = random_solenoidal(grid2d, rng, kmax=3)
        out = psi_rhs(psi, v, e_v)
        assert np.max(np.abs(out.values - e_v.values)) <= 1e-11

    def test_psi_zero_stays_zero(self, grid2d):
        v = taylor_green(grid2d)
        psi = Field(grid2d, np.zeros((2,) + grid2d.shape))
        assert field_norms(psi_rhs(psi, v))[1] == 0.0


class TestStepRK4:
    def test_cellular_flow_preserved(self, grid2d):
        state = EvolutionState(t=0.0, v=taylor_green(grid2d))
        for _ in range(10):
            state = step_rk4(state, 1e-3)
        drift = np.max(np.abs(state.v.values - taylor_green(grid2d).values))
        assert drift <= 1e-12
        assert state.step_count == 10
        assert state.t == pytest.approx(0.01)
        assert state.v.t == pytest.approx(state.t)

    def test_divergence_free_preserved(self, grid2d, rng):
        v = random_solenoidal(grid2d, rng, kmax=4).with_values(eta=0.05)
        state = EvolutionState(t=0.0, v=v)
        for _ in range(5):
            state = step_rk4(state, 1e-3, closure="helmholtz")
        assert field_norms(divergence(state.v))[1] <= 1e-10

    def test_trivial_psi_stays_trivial(self, grid2d):
        psi = Field(grid2d, np.zeros((2,) + grid2d.shape))
        state = EvolutionState(t=0.0, v=taylor_green(grid2d), psi_v=psi)
        for _ in range(5):
            state = step_rk4(state, 1e-3)
        assert field_norms(state.psi_v)[1] <= 1e-12

    def test_dt_validated(self, grid2d):
        state = EvolutionState(t=0.0, v=taylor_green(grid2d))
        with pytest.raises(ValueError, match="dt"):
            step_rk4(state, 0.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_raises_diverged(self, grid2d):
        v = taylor_green(grid2d, amplitude=1e200)
        state = EvolutionState(t=0.0, v=v)
        with pytest.raises(SimulationDiverged, match="non-finite values in v at step 1, t="):
            step_rk4(state, 1e-210)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_in_psi_names_psi(self, grid2d):
        # psi stays finite, but its transform coefficients overflow
        psi = taylor_green(grid2d, amplitude=1e306)
        state = EvolutionState(t=0.0, v=taylor_green(grid2d), psi_v=psi, step_count=4)
        with pytest.raises(SimulationDiverged, match="in psi at step 5"):
            step_rk4(state, 1e-3)


class TestAgainstComplexTransforms:
    """The half-spectrum kernel against per-operator complex round trips."""

    def test_macroscopic_rhs(self, grid2d, rng):
        v = random_solenoidal(grid2d, rng, kmax=8).with_values(eta=0.05)
        for closure in ("none", "helmholtz"):
            got = macroscopic_rhs(v, closure=closure).values
            want = complex_fft_rhs(v.values, closure, eta=0.05)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_psi_rhs(self, grid2d, rng):
        v = random_solenoidal(grid2d, rng, kmax=8)
        psi = random_solenoidal(grid2d, rng, kmax=6)
        e_v = Field(grid2d, rng.standard_normal((2,) + grid2d.shape))
        got = psi_rhs(psi, v, e_v).values
        _, want = complex_fft_rhs(v.values, psi=psi.values, e=e_v.values)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_coupled_step(self, grid2d, rng):
        v = random_solenoidal(grid2d, rng, kmax=6).with_values(eta=0.05)
        psi = random_solenoidal(grid2d, rng, kmax=4).with_values(eta=0.05)
        e_v = random_solenoidal(grid2d, rng, kmax=3)
        dt = 0.01
        got = step_rk4(EvolutionState(0.0, v, psi), dt, closure="helmholtz", e_v=e_v)

        def rhs(u):
            kv = complex_fft_rhs(u[0], "helmholtz", 0.05)
            _, kp = complex_fft_rhs(u[0], psi=u[1], e=e_v.values)
            return np.stack([kv, kp])

        u0 = np.stack([v.values, psi.values])
        k1 = rhs(u0)
        k2 = rhs(u0 + dt / 2 * k1)
        k3 = rhs(u0 + dt / 2 * k2)
        k4 = rhs(u0 + dt * k3)
        want = u0 + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.max(np.abs(got.v.values - want[0])) <= 1e-12
        assert np.max(np.abs(got.psi_v.values - want[1])) <= 1e-12


_FFT_ENTRY_POINTS = (
    "fft", "ifft", "fftn", "ifftn", "fft2", "ifft2",
    "rfft", "irfft", "rfftn", "irfftn", "rfft2", "irfft2",
)


class TestTransformBudget:
    """Machine-independent cost of one step: transform calls and Fields."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"calls": 0, "complex": 0, "fields": 0}
        for name in _FFT_ENTRY_POINTS:

            def counted(*args, _orig=getattr(np.fft, name), _real="rfft" in name, **kwargs):
                counts["calls"] += 1
                counts["complex"] += not _real
                return _orig(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        post_init = Field.__post_init__

        def counted_post_init(field):
            counts["fields"] += 1
            post_init(field)

        monkeypatch.setattr(Field, "__post_init__", counted_post_init)
        return counts

    @pytest.mark.parametrize(
        "closure, with_psi, budget",
        [("helmholtz", False, 12), ("none", True, 20), ("helmholtz", True, 20)],
    )
    def test_one_step(self, counts, rng, closure, with_psi, budget):
        grid = make_grid(2, 32)
        v = random_solenoidal(grid, rng, kmax=4).with_values(eta=0.05)
        psi = random_solenoidal(grid, rng, kmax=3) if with_psi else None
        e_v = random_solenoidal(grid, rng, kmax=2) if with_psi else None
        state = EvolutionState(t=0.0, v=v, psi_v=psi)
        counts.update(calls=0, complex=0, fields=0)
        step_rk4(state, 1e-3, closure=closure, e_v=e_v)
        assert counts["calls"] <= budget
        assert counts["complex"] == 0
        assert counts["fields"] <= 2


class TestRunConfig:
    def test_defaults_are_valid(self):
        config = RunConfig()
        assert config.n == 2 and config.closure == "helmholtz"

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"n": 3}, "n must"),
            ({"grid_size": 65}, "grid_size"),
            ({"eta": 0.0}, "eta"),
            ({"t_end": 0.0}, "t_end"),
            ({"dt": -0.1}, "dt"),
            ({"core": "kdv"}, "core"),
            ({"closure": "smagorinsky"}, "closure"),
            ({"epsilon": 0.2, "eta0": 0.1}, "epsilon"),
            ({"nodes": (9, 3)}, "nodes"),
            ({"output_interval": 0}, "output_interval"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            RunConfig(**kwargs)

    def test_explicit_dt_must_divide_t_end(self, grid2d):
        v = taylor_green(grid2d)
        config = RunConfig(dt=0.03, t_end=0.1)
        with pytest.raises(ConfigError, match="integer number"):
            config.resolved_dt(v)

    def test_default_dt_respects_cfl(self, grid2d):
        v = taylor_green(grid2d)
        config = RunConfig(t_end=0.1)
        dt = config.resolved_dt(v)
        assert dt <= 0.8 * cfl_limit(v) * (1 + 1e-12)
        assert round(config.t_end / dt) * dt == pytest.approx(config.t_end)

    def test_cfl_violation_rejected_at_run(self):
        config = RunConfig(t_end=0.1, dt=0.1, closure="none")
        with pytest.raises(ConfigError, match="CFL"):
            run_simulation(config)

    def test_burgers_core_not_evolvable(self):
        config = RunConfig(n=1, core="burgers")
        with pytest.raises(ConfigError, match="fluid"):
            build_initial_state(config)

    def test_unknown_ic_key(self):
        config = RunConfig(initial_condition={"name": "taylor_green", "phase": 1.0})
        with pytest.raises(ConfigError, match="phase"):
            build_initial_state(config)


class TestRunSimulation:
    def test_cellular_flow_diagnostics(self):
        config = RunConfig(
            grid_size=32, t_end=0.05, closure="none", output_interval=5
        )
        result = run_simulation(config)
        first, last = result.records[0], result.records[-1]
        assert first.step == 0
        assert last.t == pytest.approx(0.05)
        assert abs(last.energy - first.energy) <= 1e-10 * first.energy
        assert max(rec.max_div_v for rec in result.records) <= 1e-10
        steps = [rec.step for rec in result.records]
        assert steps == sorted(steps)

    def test_deviation_bound_column(self):
        config = RunConfig(
            grid_size=32,
            t_end=0.02,
            closure="none",
            psi_enabled=True,
            psi_initial={"name": "single_mode", "amplitude": 0.1},
            output_interval=2,
        )
        result = run_simulation(config)
        sups = [rec.psi_sup for rec in result.records]
        assert sups == sorted(sups)  # running sup never decreases
        for rec in result.records:
            assert rec.deviation_bound == pytest.approx(config.eta * rec.psi_sup)
        assert result.records[-1].psi_max > 0

    def test_trivial_psi_columns(self):
        config = RunConfig(grid_size=32, t_end=0.02, psi_enabled=True)
        result = run_simulation(config)
        assert max(rec.psi_max for rec in result.records) <= 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_attaches_partial_records(self):
        grid = make_grid(2, 32)
        v = taylor_green(grid, amplitude=1e200).with_values(eta=0.05)
        state = EvolutionState(t=0.0, v=v)
        config = RunConfig(grid_size=32, t_end=1e-210, dt=1e-210, closure="none")
        with pytest.raises(SimulationDiverged) as excinfo:
            run_simulation(config, initial=state)
        assert excinfo.value.records
        assert excinfo.value.records[0].step == 0


class TestOneDimensional:
    """1-D fluid evolve, pinned to the values of the complex-transform code.

    In 1-D a solenoidal field is a constant.  ``random_solenoidal`` keeps
    the rounding residue of the removed mean and scales it to peak 1, so
    that run evolves a unit constant.
    """

    @pytest.mark.parametrize(
        "ic, energy, l2, vmax",
        [
            ("zero", 0.0, 0.0, 0.0),
            ("random_solenoidal", 3.141592653589792, 6.2831853071795845, 0.9999999999999998),
        ],
    )
    def test_final_energy_and_checkpoint(self, tmp_path, capsys, ic, energy, l2, vmax):
        out = tmp_path / ic
        code = main(
            [
                "evolve", "--out", str(out),
                "--set", "n=1", "--set", "grid_size=32",
                "--set", f"initial_condition.name={ic}",
                "--set", "t_end=0.05", "--set", "closure=helmholtz",
            ]
        )
        capsys.readouterr()
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["energy_final"] == pytest.approx(energy, rel=1e-9, abs=1e-12)
        v, _ = read_checkpoint(out / "final_v.ckpt")
        got_l2, got_max = field_norms(v)
        assert got_l2 == pytest.approx(l2, rel=1e-9, abs=1e-12)
        assert got_max == pytest.approx(vmax, rel=1e-9, abs=1e-12)


class TestBurgersReference:
    def test_initial_condition(self):
        coarse = make_grid(1, 64)
        ref = reference_burgers(coarse, 0.0)
        u, u_t = ref.coarse_slice(0)
        x = coarse.coords()[0]
        assert np.max(np.abs(u.component(0) - np.sin(x))) <= 1e-13
        assert np.max(np.abs(u_t.component(0) + np.sin(x) * np.cos(x))) <= 1e-10

    def test_matches_characteristics_oracle(self):
        coarse = make_grid(1, 128)
        ref = reference_burgers(coarse, 0.5)
        u, _ = ref.coarse_slice(-1)
        x = coarse.coords()[0]
        truth = burgers_characteristics(x, 0.5)
        assert np.max(np.abs(u.component(0) - truth)) <= 1e-8

    def test_u_t_consistent_with_rhs(self):
        coarse = make_grid(1, 128)
        ref = reference_burgers(coarse, 0.3)
        u, u_t = ref.coarse_slice(-1)
        from scalepde import dealiased, spectral_derivative

        du = spectral_derivative(u, 0)
        approx = dealiased(u.with_values(-u.values * du.values))
        assert np.max(np.abs(u_t.values - approx.values)) <= 1e-6

    def test_snapshot_times(self):
        coarse = make_grid(1, 64)
        ref = reference_burgers(coarse, 0.4, snapshot_times=[0.0, 0.2])
        assert ref.times == [0.0, 0.2, 0.4]
        assert [s.t for s in ref.snapshots] == [0.0, 0.2, 0.4]

    def test_shock_time_rejected(self):
        with pytest.raises(ValueError, match="shock"):
            reference_burgers(make_grid(1, 64), 1.0)

    def test_two_dimensional_rejected(self, grid2d):
        with pytest.raises(ValueError, match="one dimensional"):
            reference_burgers(grid2d, 0.1)


class TestCheckpoint:
    def test_round_trip(self, tmp_path, grid2d, rng):
        f = random_solenoidal(grid2d, rng, kmax=5).with_values(t=0.3, eta=0.07)
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, f, extra={"label": "final"})
        g, header = read_checkpoint(path)
        assert np.array_equal(g.values, f.values)
        assert g.t == pytest.approx(0.3)
        assert g.eta == pytest.approx(0.07)
        assert header["label"] == "final"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError, match="checkpoint"):
            read_checkpoint(path)

    def test_deterministic_bytes(self, tmp_path, grid1d):
        x = grid1d.coords()[0]
        f = Field(grid1d, np.sin(x), t=0.1, eta=0.2)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        write_checkpoint(p1, f)
        write_checkpoint(p2, f)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_names_path(self, tmp_path, grid2d, rng):
        path = tmp_path / "short.ckpt"
        write_checkpoint(path, random_solenoidal(grid2d, rng))
        path.write_bytes(path.read_bytes()[:-13])
        with pytest.raises(OSError, match="short.ckpt: truncated checkpoint"):
            read_checkpoint(path)

    def test_non_finite_values_name_path(self, tmp_path, grid1d):
        path = tmp_path / "nan.ckpt"
        write_checkpoint(path, Field(grid1d, np.zeros(grid1d.shape)))
        data = bytearray(path.read_bytes())
        data[-8:] = np.array([np.nan], dtype="<f8").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(OSError, match="nan.ckpt: checkpoint holds non-finite"):
            read_checkpoint(path)

    def test_wrong_version_names_path(self, tmp_path, grid1d):
        path = tmp_path / "future.ckpt"
        write_checkpoint(path, Field(grid1d, np.zeros(grid1d.shape)), extra={"version": 99})
        with pytest.raises(OSError, match="future.ckpt: checkpoint version 99"):
            read_checkpoint(path)
