"""Slice evolution: right-hand sides, RK4 stepping, runs and references."""

import dataclasses
import gc
import json
import math
import sys
import tracemalloc
import weakref

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
    fluid_source,
    leray_project,
    macroscopic_rhs,
    make_grid,
    psi_rhs,
    read_checkpoint,
    reference_burgers,
    run_simulation,
    solve_residual_closure,
    step_rk4,
    write_checkpoint,
)
from scalepde.cli import main
from scalepde.evolve import BURGERS_REFINEMENT, _diagnose, _Stages
from scalepde.grid import _band_irfft
from scalepde.families import (
    random_band_limited,
    random_solenoidal,
    taylor_green,
)
from oracles import (
    burgers_characteristics,
    burgers_physical_rk4,
    complex_dealias,
    complex_fft_rhs,
    restricted_burgers_pair,
)


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

    # every entry to the stage workspace, which checks the closure once
    ENTRIES = {
        "macroscopic_rhs": lambda v, closure: macroscopic_rhs(v, closure),
        "step_rk4": lambda v, closure: step_rk4(EvolutionState(0.0, v), 1e-3, closure),
        "_diagnose": lambda v, closure: _diagnose(EvolutionState(0.0, v), closure, 0.0),
    }

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_unknown_closure(self, grid2d, entry):
        with pytest.raises(ValueError, match="unknown closure 'bogus'"):
            self.ENTRIES[entry](taylor_green(grid2d), "bogus")

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_helmholtz_needs_positive_eta(self, grid2d, entry):
        v = taylor_green(grid2d)  # eta defaults to 0
        with pytest.raises(ValueError, match="the helmholtz closure needs eta > 0"):
            self.ENTRIES[entry](v, "helmholtz")

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_helmholtz_refuses_subnormal_eta(self, grid2d, entry):
        # 1/eta overflows there, the closure multiplier is 0 and v would never move
        v = taylor_green(grid2d).with_values(eta=1e-310)
        with pytest.raises(ValueError, match=r"needs eta > 0, not below 2\.22\d*e-308.*got 1e-310"):
            self.ENTRIES[entry](v, "helmholtz")

    def test_helmholtz_at_the_least_normal_eta_steps_as_none(self, grid2d, rng):
        v = random_solenoidal(grid2d, rng, kmax=4).with_values(eta=sys.float_info.min)
        none, helmholtz = (
            step_rk4(EvolutionState(0.0, v), 0.01, closure).v.values for closure in ("none", "helmholtz")
        )
        assert np.max(np.abs(helmholtz - v.values)) > 1e-3
        np.testing.assert_allclose(helmholtz, none, rtol=0.0, atol=1e-14)

    def test_psi_transport_at_rest_is_forcing(self, grid2d, rng):
        v = Field(grid2d, np.zeros((2,) + grid2d.shape))
        psi = Field(grid2d, np.zeros((2,) + grid2d.shape))
        e_v = random_solenoidal(grid2d, rng, kmax=3)
        out = psi_rhs(psi, v, e_v)
        assert np.max(np.abs(out.values - e_v.values)) <= 1e-11

    def test_psi_forcing_is_cut(self, grid2d, rng):
        """psi_rhs cuts its forcing to the 2/3 band and projects it, as a step does."""
        rest = Field(grid2d, np.zeros((2,) + grid2d.shape))
        e_v = Field(grid2d, rng.standard_normal((2,) + grid2d.shape))
        out = psi_rhs(rest, rest, e_v).values
        want = leray_project(e_v.with_values(complex_dealias(e_v.values))).values
        assert np.max(np.abs(out - want)) <= 1e-12

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

    @pytest.mark.parametrize("eta", [1e-3, 0.05, 1.0])
    def test_macroscopic_rhs(self, grid2d, rng, eta):
        v = random_solenoidal(grid2d, rng, kmax=8).with_values(eta=eta)
        for closure in ("none", "helmholtz"):
            got = macroscopic_rhs(v, closure=closure).values
            want = complex_fft_rhs(v.values, closure, eta=eta)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_psi_rhs(self, grid2d, rng):
        v = random_solenoidal(grid2d, rng, kmax=8)
        psi = random_solenoidal(grid2d, rng, kmax=6)
        e_v = Field(grid2d, rng.standard_normal((2,) + grid2d.shape))
        got = psi_rhs(psi, v, e_v).values
        _, want = complex_fft_rhs(v.values, psi=psi.values, e=complex_dealias(e_v.values))
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

    @pytest.mark.parametrize("eta", [1e-3, 0.05, 1.0])
    @pytest.mark.parametrize("size, kmax", [(32, 14), (48, 16)], ids=["past_cutoff", "size_48"])
    def test_band_limited_inputs(self, rng, size, kmax, eta):
        """The flux form is taken of the solenoidal part within the band, so
        the kernel matches the advective oracle on those parts of
        compressible fields past size/3; at size 48 the |k| = 16 modes
        must go too.  helmholtz scales lap v by 2 eta and divides by
        1 + eta |k|^2, so it runs at both ends of eta's range too."""
        grid = make_grid(2, size)
        v = random_band_limited(grid, rng, ncomp=2, kmax=kmax).with_values(eta=eta)
        psi = random_band_limited(grid, rng, ncomp=2, kmax=kmax)
        e_v = Field(grid, rng.standard_normal((2,) + grid.shape))
        v_cut, psi_cut = (
            leray_project(f.with_values(complex_dealias(f.values))).values for f in (v, psi)
        )
        for closure in ("none", "helmholtz"):
            got = macroscopic_rhs(v, closure=closure).values
            want = complex_fft_rhs(v_cut, closure, eta=eta)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        got = psi_rhs(psi, v, e_v).values
        _, want = complex_fft_rhs(v_cut, psi=psi_cut, e=complex_dealias(e_v.values))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_step_stays_in_band(self, rng):
        """A step from fields and a forcing past the cutoff lands inside it."""
        grid = make_grid(2, 32)
        v = random_solenoidal(grid, rng, kmax=14).with_values(eta=0.05)
        psi = random_solenoidal(grid, rng, kmax=14).with_values(eta=0.05)
        e_v = Field(grid, rng.standard_normal((2,) + grid.shape))
        got = step_rk4(EvolutionState(0.0, v, psi), 0.01, closure="helmholtz", e_v=e_v)
        for f in (got.v, got.psi_v):
            assert np.max(np.abs(f.values - complex_dealias(f.values))) <= 1e-12


class TestTransformBudget:
    """Machine-independent cost of one step: transform calls and Fields.

    A transform of the kernel is a band transform: two numpy.fft calls in
    2-D, counted as one real transform per field."""

    @pytest.mark.parametrize(
        "closure, with_psi, budget",
        [("helmholtz", False, 20), ("none", True, 22), ("helmholtz", True, 22)],
    )
    def test_one_step(self, transform_counts, rng, closure, with_psi, budget):
        counts = transform_counts
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

    @pytest.mark.parametrize(
        "closure, with_psi, first, reused",
        [
            ("none", False, 20, 16),
            ("none", True, 40, 32),
            ("helmholtz", False, 28, 24),
            ("helmholtz", True, 48, 40),
        ],
        ids=["none", "none-psi", "helmholtz", "helmholtz-psi"],
    )
    def test_transforms_per_step(self, transform_counts, rng, closure, with_psi, first, reused):
        """A stage inverts (v, psi) and, with helmholtz, the n rows of
        2 eta lap v, and forward-transforms the two trace-free rows of each
        tensor (helmholtz filters v's tensor, adding none); the forcing is
        transformed once, by the first step that uses it.  A step from the
        last step's result starts from its coefficients, so it skips the
        forward transform of the state, and its first stage takes the
        state's values, so it skips their inverse: 16 calls instead of 20,
        18 with helmholtz, whose rows of 2 eta lap v the first stage still
        inverts."""
        grid = make_grid(2, 32)
        v = random_solenoidal(grid, rng, kmax=4).with_values(eta=0.05)
        psi = random_solenoidal(grid, rng, kmax=3) if with_psi else None
        e_v = random_solenoidal(grid, rng, kmax=2) if with_psi else None
        state = EvolutionState(t=0.0, v=v, psi_v=psi)
        reused_calls = 18 if closure == "helmholtz" else 16
        for transforms, calls, forcing in ((first, 20, 2 * with_psi), (reused, reused_calls, 0)):
            transform_counts.update(calls=0, transforms=0)
            state = step_rk4(state, 1e-3, closure=closure, e_v=e_v)
            assert transform_counts["transforms"] == transforms + forcing
            assert transform_counts["calls"] == calls + forcing

    @pytest.mark.parametrize(
        "closure, fresh, reused", [("none", 3, 1), ("helmholtz", 11, 9)]
    )
    def test_transforms_per_record(self, transform_counts, rng, closure, fresh, reused):
        """A record transforms v on the band, unless v is the last step's
        result, whose coefficients the step kept."""
        grid = make_grid(2, 32)
        v = random_solenoidal(grid, rng, kmax=4).with_values(eta=0.05)
        state = EvolutionState(t=0.0, v=v)
        for transforms in (fresh, reused):
            transform_counts.update(transforms=0)
            record = _diagnose(state, closure, 0.0)
            assert transform_counts["transforms"] == transforms
            assert record.max_div_v <= 1e-12
            state = step_rk4(state, 1e-3, closure=closure)


class TestClosureColumns:
    """A record's r columns are the norms of the closure of the derived
    source: the kernel's specialised -2 div sigma against ``fluid_source``."""

    @staticmethod
    def _closed_source_norms(v):
        s = fluid_source(v)
        return field_norms(solve_residual_closure(s.with_values(s.values[: v.grid.n]), v.eta))

    def test_helmholtz_record(self):
        grid = make_grid(2, 32)
        v = random_solenoidal(grid, np.random.default_rng(1), kmax=6).with_values(eta=0.05)
        state = EvolutionState(0.0, v)
        fresh = _diagnose(state, "helmholtz", 0.0)
        pinned = (18.5996610053242, 1.484220037409008)
        assert (fresh.r_l2, fresh.r_max) == pytest.approx(pinned, rel=1e-9)
        # a fresh Field, then a step's result, whose kept coefficients the record reads
        stepped = step_rk4(state, 0.01, closure="helmholtz")
        for s, record in ((state, fresh), (stepped, _diagnose(stepped, "helmholtz", 0.0))):
            want = self._closed_source_norms(s.v)
            assert (record.r_l2, record.r_max) == pytest.approx(want, rel=1e-12)

    def test_no_closure_record(self, rng):
        v = random_solenoidal(make_grid(2, 32), rng, kmax=6).with_values(eta=0.05)
        record = _diagnose(EvolutionState(0.0, v), "none", 0.0)
        assert (record.r_l2, record.r_max) == (0.0, 0.0)


class TestStepMemory:
    """A warm step works in stage buffers kept from earlier steps."""

    @pytest.mark.parametrize("closure, with_psi", [("helmholtz", False), ("none", True)])
    def test_warm_step_allocates_about_one_state(self, rng, closure, with_psi):
        """Every transform writes into a stage buffer, so a warm 64^2 step
        allocates about the new state's values and no numpy intermediate."""
        grid = make_grid(2, 64)
        v = random_solenoidal(grid, rng, kmax=4).with_values(eta=0.05)
        psi = random_solenoidal(grid, rng, kmax=3) if with_psi else None
        e_v = random_solenoidal(grid, rng, kmax=2) if with_psi else None
        state = step_rk4(EvolutionState(0.0, v, psi), 1e-3, closure=closure, e_v=e_v)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            step_rk4(state, 1e-3, closure=closure, e_v=e_v)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        state_bytes = v.values.nbytes * (1 + with_psi)
        assert peak <= 1.5 * state_bytes

    def test_warm_helmholtz_record_allocates_no_buffer(self, rng):
        """The record multiplies r by the real closure table part by part,
        so numpy casts no table to complex (47 KB at 64^2)."""
        grid = make_grid(2, 64)
        v = random_solenoidal(grid, rng, kmax=4).with_values(eta=0.05)
        state = step_rk4(EvolutionState(0.0, v), 1e-3, closure="helmholtz")
        _diagnose(state, "helmholtz", 0.0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _diagnose(state, "helmholtz", 0.0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 4096


class TestStageTables:
    """The stages multiply by full band-width tables, and the first slope
    of a step from the last result takes the state's values, which are the
    inverse of its coefficients bit for bit."""

    @pytest.mark.parametrize("size", [32, 64])
    def test_derivative_tables_have_the_band_shape(self, size):
        grid = make_grid(2, size)
        eta = 0.05
        ws = _Stages(grid, False, "helmholtz", eta)
        bshape = grid.rshape[:-1] + (grid.band,)
        d0, d1 = (d[..., : grid.band] for d in grid.rderivatives)
        lap = -2.0 * eta * grid.rksq[..., : grid.band]
        for table, want in zip(ws.d + (ws.minus_d1, ws.lap), (d0, d1, -d1, lap)):
            assert table.shape == bshape
            assert table.flags.c_contiguous
            assert np.array_equal(table, np.broadcast_to(want, bshape))

    @pytest.mark.parametrize(
        "closure, with_psi, calls",
        [("none", False, 2), ("none", True, 2), ("helmholtz", False, 4)],
        ids=["none", "psi", "helmholtz"],
    )
    def test_first_slope_from_the_values_is_exact(
        self, transform_counts, rng, closure, with_psi, calls
    ):
        """From the values the first slope inverts helmholtz's two rows of
        2 eta lap v only, and forward-transforms its products."""
        grid = make_grid(2, 32)
        v = random_solenoidal(grid, rng, kmax=6).with_values(eta=0.05)
        psi = random_solenoidal(grid, rng, kmax=4).with_values(eta=0.05) if with_psi else None
        e_v = random_solenoidal(grid, rng, kmax=3) if with_psi else None
        state = step_rk4(EvolutionState(0.0, v, psi), 0.01, closure=closure, e_v=e_v)
        ws = state._ws
        assert ws.e_v is e_v and (ws.e_hat is not None) == with_psi
        ws.load(state.v, state.psi_v)
        slopes = []
        for want_calls in (calls, 4):  # the state's values, then u0 transformed
            np.copyto(ws.spec[: ws.m], ws.u0)
            ws.phys.fill(np.nan)  # as a record may leave it: the slope reads no stale row
            transform_counts.update(calls=0, complex=0)
            slopes.append(ws.slope().copy())
            assert (transform_counts["calls"], transform_counts["complex"]) == (want_calls, 0)
        assert np.array_equal(*slopes)


class TestSpectrumReuse:
    """A step or record of the last step's Fields starts from that step's
    coefficients; any other state is transformed."""

    @staticmethod
    def _state(rng, with_psi):
        grid = make_grid(2, 32)
        v = random_solenoidal(grid, rng, kmax=6).with_values(eta=0.05)
        psi = random_solenoidal(grid, rng, kmax=4).with_values(eta=0.05) if with_psi else None
        e_v = random_solenoidal(grid, rng, kmax=3) if with_psi else None
        return EvolutionState(0.0, v, psi), e_v

    @staticmethod
    def _copy(state):
        """The same state in new Field objects."""
        def copy(f):
            return None if f is None else Field(f.grid, f.values.copy(), t=f.t, eta=f.eta)

        return dataclasses.replace(state, v=copy(state.v), psi_v=copy(state.psi_v))

    @pytest.mark.parametrize(
        "closure, with_psi",
        [("none", False), ("none", True), ("helmholtz", False), ("helmholtz", True)],
    )
    def test_reuse_matches_a_copy(self, rng, closure, with_psi):
        state, e_v = self._state(rng, with_psi)
        state = step_rk4(state, 0.01, closure=closure, e_v=e_v)
        copied = self._copy(state)
        reused = step_rk4(state, 0.01, closure=closure, e_v=e_v)
        record = _diagnose(reused, closure, 0.0)
        want = _diagnose(self._copy(reused), closure, 0.0)
        assert record.max_div_v <= 1e-12
        assert record.r_l2 == pytest.approx(want.r_l2, rel=1e-13)
        fresh = step_rk4(copied, 0.01, closure=closure, e_v=e_v)
        # state is no longer the last result: stepping it again transforms it
        again = step_rk4(state, 0.01, closure=closure, e_v=e_v)
        for other in (fresh, again):
            for got, want in ((reused.v, other.v), (reused.psi_v, other.psi_v)):
                if want is not None:
                    scale = np.max(np.abs(want.values))
                    assert np.max(np.abs(got.values - want.values)) <= 1e-13 * scale

    def test_rhs_leaves_the_kept_coefficients(self, transform_counts, rng):
        """macroscopic_rhs of a step result works in a workspace of its
        own, so the next step of that result still starts from the
        step's coefficients: 18 helmholtz calls, not 20."""
        state, _ = self._state(rng, False)
        state = step_rk4(state, 0.01, closure="helmholtz")
        copied = self._copy(state)
        rhs = macroscopic_rhs(state.v, closure="helmholtz").values
        transform_counts.update(calls=0)
        stepped = step_rk4(state, 0.01, closure="helmholtz").v.values
        assert transform_counts["calls"] == 18
        for got, want in (
            (rhs, macroscopic_rhs(copied.v, closure="helmholtz").values),
            (stepped, step_rk4(copied, 0.01, closure="helmholtz").v.values),
        ):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_no_stale_spectrum_after_a_run(self, rng):
        unrelated, _ = self._state(rng, False)
        result = run_simulation(RunConfig(grid_size=32, t_end=0.04, output_interval=2))
        assert result.final.v.grid == unrelated.v.grid
        after_run = step_rk4(unrelated, 0.01, closure="helmholtz")
        fresh = step_rk4(self._copy(unrelated), 0.01, closure="helmholtz")
        scale = np.max(np.abs(fresh.v.values))
        assert np.max(np.abs(after_run.v.values - fresh.v.values)) <= 1e-13 * scale

    def test_workspace_is_freed_with_its_run(self):
        """A state holds its workspace and the workspace the last result's
        Fields, which refer to nothing of it: no cycle keeps it alive."""
        result = run_simulation(RunConfig(grid_size=32, t_end=0.04, output_interval=2))
        ref = weakref.ref(result.final._ws)
        del result
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("other", ["closure", "forcing"])
    def test_unfit_workspace_is_not_used(self, rng, other):
        """A step of a state whose workspace was made for another closure
        or another forcing Field makes a workspace of its own."""
        state, e_v = self._state(rng, True)
        e_other = random_solenoidal(state.v.grid, rng, kmax=2)
        closure, e_step = ("helmholtz", e_v) if other == "closure" else ("none", e_other)
        state = step_rk4(state, 0.01, closure="none", e_v=e_v)
        got = step_rk4(state, 0.01, closure=closure, e_v=e_step)
        want = step_rk4(self._copy(state), 0.01, closure=closure, e_v=e_step)
        assert got._ws is not state._ws
        for f, g in ((got.v, want.v), (got.psi_v, want.psi_v)):
            assert np.max(np.abs(f.values - g.values)) <= 1e-13 * np.max(np.abs(g.values))

    @pytest.mark.parametrize(
        "last_v, last_psi, transforms", [(True, False, 40), (False, True, 40), (True, True, 32)]
    )
    def test_psi_reused_only_with_both(self, transform_counts, rng, last_v, last_psi, transforms):
        state, e_v = self._state(rng, True)
        state = step_rk4(state, 0.01, e_v=e_v)
        copied = self._copy(state)
        mixed = dataclasses.replace(
            state,
            v=state.v if last_v else copied.v,
            psi_v=state.psi_v if last_psi else copied.psi_v,
        )
        transform_counts.update(transforms=0)
        step_rk4(mixed, 0.01, e_v=e_v)
        assert transform_counts["transforms"] == transforms


class TestInitialState:
    """The initial state enters the run's workspace as a step result does:
    its Fields are the inverse of the kept, cut and projected coefficients
    of the built fields, so record 0 and step 1 transform it no further
    forward, and no transform in a run is an n-D call."""

    @staticmethod
    def _config(closure, psi, **kwargs):
        random = {"name": "random_solenoidal"}
        return RunConfig(
            grid_size=32, closure=closure, initial_condition=random,
            psi_enabled=psi, psi_initial=dict(random, kmax=3), **kwargs,
        )

    @pytest.mark.parametrize("closure, psi", [("helmholtz", False), ("none", True)])
    def test_state_is_the_inverse_of_the_kept_coefficients(self, closure, psi):
        """The kept coefficients are the built fields' cut and projected,
        as a step loads them, and the state's values their inverse."""
        config = self._config(closure, psi)
        state = build_initial_state(config)
        ws, grid, rng = state._ws, state.v.grid, config.rng()
        assert ws.holds(state.v, state.psi_v)
        v0 = random_solenoidal(grid, rng)
        psi0 = random_solenoidal(grid, rng, kmax=3) if psi else None
        loaded = _Stages(grid, psi, closure, config.eta)
        loaded.load(v0, psi0)
        assert np.array_equal(ws.total, loaded.u0)
        values = [f.values for f in (state.v, state.psi_v) if f is not None]
        assert np.array_equal(_band_irfft(grid, ws.total.copy()), np.concatenate(values))

    @pytest.mark.parametrize("closure, psi", [("helmholtz", False), ("none", True)])
    def test_run_makes_no_nd_transform(self, forbid_nd_transforms, closure, psi):
        forbid_nd_transforms()
        result = run_simulation(self._config(closure, psi, t_end=0.04, output_interval=2))
        assert max(record.max_div_v for record in result.records) <= 1e-12

    @pytest.mark.parametrize("closure, step_calls", [("helmholtz", 18), ("none", 16)])
    def test_first_record_and_step_as_later_ones(self, transform_counts, closure, step_calls):
        """A record and a step from the initial state make the numpy.fft
        calls of a record and a step from a step result."""
        state, calls = build_initial_state(self._config(closure, False)), []
        for _ in range(2):
            transform_counts.update(calls=0)
            _diagnose(state, closure, 0.0)
            record = transform_counts["calls"]
            state = step_rk4(state, 1e-3, closure=closure)
            calls.append((record, transform_counts["calls"] - record))
        assert calls[0] == calls[1]
        assert calls[0][1] == step_calls

    def test_run_calls(self, transform_counts):
        """A 32^2 helmholtz run of 4 steps, recorded at steps 0, 2 and 4:
        4 calls draw the initial field (rfft, fft and their inverses on its
        kept columns), 2 transform it on the band, 2 invert it, each record
        makes 6 and each step 18."""
        run_simulation(self._config("helmholtz", False, t_end=0.04, dt=0.01, output_interval=2))
        assert transform_counts["calls"] == 4 + 2 + 2 + 3 * 6 + 4 * 18


class TestPinnedRun:
    """A 32^2 closure=none run with psi and a checkpoint forcing, pinned to
    the values of the advective-form kernel (v and grad v, psi and grad psi
    transformed), so a rewrite of the kernel is caught without a benchmark."""

    PINNED = {
        "energy_initial": 1.8847332784292024,
        "energy_final": 1.8847332784156772,
        "final_v": (12.198875967737665, 0.9870803528416503),
        "final_psi": (19.587390437237325, 1.0397996968759182),
    }

    def test_matches_pinned_values(self, tmp_path, capsys):
        grid = make_grid(2, 32)
        forcing = tmp_path / "forcing.ckpt"
        e_v = random_solenoidal(grid, np.random.default_rng(7), kmax=3, amplitude=0.5)
        write_checkpoint(forcing, e_v)
        spec = json.dumps({"name": "checkpoint", "path": str(forcing)})
        sets = [
            "grid_size=32", "closure=none", "eta=0.05", "dt=0.02", "t_end=0.2",
            "output_interval=5", "initial_condition.name=random_solenoidal",
            "psi.enabled=true", "psi.initial_condition.name=random_solenoidal",
            f"psi.forcing={spec}",
        ]
        out = tmp_path / "run"
        argv = ["evolve", "--out", str(out), "--seed", "3"]
        code = main(argv + [arg for item in sets for arg in ("--set", item)])
        capsys.readouterr()
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        for key in ("energy_initial", "energy_final"):
            assert report[key] == pytest.approx(self.PINNED[key], rel=1e-9)
        for name in ("final_v", "final_psi"):
            f, _ = read_checkpoint(out / f"{name}.ckpt")
            assert field_norms(f) == pytest.approx(self.PINNED[name], rel=1e-9)


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
        with pytest.raises(ConfigError, match="phase"):
            RunConfig(initial_condition={"name": "taylor_green", "phase": 1.0})


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

    def test_first_record_reports_the_band_limited_state(self):
        """The default kmax = 4 is past the 2/3 cutoff of grid_size 8; the
        initial condition is cut when it is built, so step 0 reports the
        state that the steps evolve."""
        config = RunConfig(
            grid_size=8, closure="none", output_interval=1,
            initial_condition={"name": "random_solenoidal"},
        )
        v0 = build_initial_state(config).v
        assert np.max(np.abs(v0.values - complex_dealias(v0.values))) <= 1e-14
        first, second = run_simulation(config).records[:2]
        assert first.max_div_v <= 1e-12
        assert first.energy == pytest.approx(second.energy, rel=1e-9)

    def test_cfl_peak_is_the_largest_record(self):
        """Each record takes dt max|v| / h; the result keeps the largest."""
        config = RunConfig(
            grid_size=16, t_end=0.3, closure="none", output_interval=2,
            initial_condition={"name": "random_solenoidal"},
        )
        result = run_simulation(config)
        state = build_initial_state(config)
        dt = config.resolved_dt(state.v)
        n_steps, cfl = round(config.t_end / dt), []
        for step in range(n_steps + 1):
            if step % 2 == 0 or step == n_steps:
                cfl.append(dt * np.max(np.abs(state.v.values)) / state.v.grid.spacing)
            if step < n_steps:
                state = step_rk4(state, dt, closure="none")
        assert len(cfl) == len(result.records)
        assert max(cfl) != cfl[0]
        assert result.cfl_peak == pytest.approx(max(cfl), rel=1e-12)

    def test_trivial_psi_columns(self):
        config = RunConfig(grid_size=32, t_end=0.02, psi_enabled=True)
        result = run_simulation(config)
        assert max(rec.psi_max for rec in result.records) <= 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_attaches_partial_records(self):
        config = RunConfig(
            grid_size=32,
            t_end=1e-210,
            dt=1e-210,
            closure="none",
            initial_condition={"name": "taylor_green", "amplitude": 1e200},
        )
        with pytest.raises(SimulationDiverged) as excinfo:
            run_simulation(config)
        assert excinfo.value.records
        assert excinfo.value.records[0].step == 0


class TestOneDimensional:
    """The fluid kernel serves n = 2 only.  In 1-D a solenoidal field with
    zero mean is zero, so a 1-D run is refused before any field is built."""

    @pytest.mark.parametrize("ic", ["zero", "taylor_green", "random_solenoidal", "single_mode"])
    def test_evolve_exits_2(self, tmp_path, capsys, ic):
        out = tmp_path / ic
        code = main(
            [
                "evolve", "--out", str(out),
                "--set", "n=1", "--set", "grid_size=32",
                "--set", f"initial_condition.name={ic}",
                "--set", "t_end=0.05", "--set", "closure=helmholtz",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: slice evolution needs n = 2, got n=1\n"
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize(
        "entry",
        [
            lambda v: step_rk4(EvolutionState(t=0.0, v=v), 0.01),
            lambda v: macroscopic_rhs(v, closure="none"),
            lambda v: psi_rhs(v, v),
            lambda v: _diagnose(EvolutionState(t=0.0, v=v), "none", 0.0),
        ],
        ids=["step_rk4", "macroscopic_rhs", "psi_rhs", "diagnose"],
    )
    def test_kernel_refuses_a_1d_state(self, grid1d, entry):
        v = Field(grid1d, np.zeros(grid1d.shape), eta=0.05)
        with pytest.raises(ValueError, match="needs n = 2, got n=1"):
            entry(v)


class TestBurgersReference:
    def test_initial_condition(self):
        coarse = make_grid(1, 64)
        (u, u_t), = reference_burgers(coarse, [0.0])
        x = coarse.coords()[0]
        assert np.max(np.abs(u[0] - np.sin(x))) <= 1e-13
        assert np.max(np.abs(u_t[0] + np.sin(x) * np.cos(x))) <= 1e-10

    def test_matches_characteristics_oracle(self):
        coarse = make_grid(1, 128)
        (u, _), = reference_burgers(coarse, [0.5])
        x = coarse.coords()[0]
        truth = burgers_characteristics(x, 0.5)
        assert np.max(np.abs(u[0] - truth)) <= 1e-8

    def test_u_t_consistent_with_rhs(self):
        coarse = make_grid(1, 128)
        (u, u_t), = reference_burgers(coarse, [0.3])
        from scalepde import spectral_derivative

        du = spectral_derivative(Field(coarse, u), 0)
        approx = complex_dealias(-u * du.values)
        assert np.max(np.abs(u_t - approx)) <= 1e-6

    @pytest.mark.parametrize("size", [64, 128])
    def test_pair_matches_complex_restriction(self, size):
        """u and u_t are the complex restriction and 2/3 cut of the fine
        solution and of its fine-grid right-hand side."""
        coarse = make_grid(1, size)
        fine = make_grid(1, BURGERS_REFINEMENT * size)
        pair = reference_burgers(coarse, [0.3])[0]
        solution = burgers_physical_rk4(fine.size, 0.3, 0.25 * fine.spacing)
        for got, want in zip(pair, restricted_burgers_pair(solution, size)):
            assert type(got) is np.ndarray and got.shape == (1,) + coarse.shape
            assert np.max(np.abs(got[0] - want)) <= 1e-13

    def test_step_transforms_one_row_each_way(self, transform_counts):
        """Each of a step's four stages inverts u alone and transforms its
        square forward: 8 real one-row transforms, none complex."""
        coarse = make_grid(1, 64)
        dt = 0.25 * make_grid(1, BURGERS_REFINEMENT * coarse.size).spacing
        runs = []
        for steps in (1, 2):
            transform_counts.update(calls=0, complex=0, transforms=0)
            assert len(reference_burgers(coarse, [steps * dt])) == 1
            runs.append({k: transform_counts[k] for k in ("calls", "complex", "transforms")})
        per_step = {k: runs[1][k] - runs[0][k] for k in runs[0]}
        assert per_step == {"calls": 8, "complex": 0, "transforms": 8}
        # the first forward transform and the slice's three calls
        assert runs[0] == {"calls": 12, "complex": 0, "transforms": 13}

    def test_three_calls_and_no_field_per_time(self, transform_counts):
        """A time takes the fine slope, one row each way, and one coarse
        inverse of the pair, whose rows are views of that one block; it
        builds no Field, coarse or fine.  A repeated time steps nothing."""
        coarse, runs = make_grid(1, 64), []
        for repeats in (1, 2, 3):
            transform_counts.update(calls=0, complex=0, transforms=0, fields=0)
            slices = reference_burgers(coarse, [0.2] * repeats)
            runs.append(dict(transform_counts))
            for u, u_t in slices:
                assert u.shape == u_t.shape == (1,) + coarse.shape
                assert u.base is u_t.base and u.base.shape == (2,) + coarse.shape
        for fewer, more in zip(runs, runs[1:]):
            per_time = {k: more[k] - fewer[k] for k in more}
            assert per_time == {"calls": 3, "complex": 0, "transforms": 4, "fields": 0}
        assert runs[0]["fields"] == 0
        for got, want in zip(slices[-1], slices[0]):
            assert np.array_equal(got, want)

    def test_a_pair_per_asked_time(self):
        slices = reference_burgers(make_grid(1, 64), [0.0, 0.2, 0.2, 0.4])
        assert len(slices) == 4
        # a repeated time repeats its pair; the others differ
        for (u, u_t), (v, v_t), same in zip(slices, slices[1:], (False, True, False)):
            assert np.array_equal(u, v) == same and np.array_equal(u_t, v_t) == same

    @pytest.mark.parametrize("times", [[0.2, 0.1], [-0.1, 0.2], [0.5, 1.0]])
    def test_times_must_be_non_decreasing_before_the_shock(self, times):
        with pytest.raises(ValueError, match="non-decreasing in .0, 1.*shock"):
            reference_burgers(make_grid(1, 64), times)

    def test_two_dimensional_rejected(self, grid2d):
        with pytest.raises(ValueError, match="one dimensional"):
            reference_burgers(grid2d, [0.1])

    @pytest.mark.parametrize("size", [32, 64, 128])
    def test_resolved_at_half(self, size):
        # the top third of the band holds at most 3.9e-8 of the largest mode
        assert len(reference_burgers(make_grid(1, size), [0.5])) == 1

    def test_non_finite_state_diverges_at_the_asked_time(self, overflowing_rk4):
        # the state is checked once per asked time, after its steps and
        # before its pair is formed; time 0 takes no step and passes
        with pytest.raises(SimulationDiverged) as excinfo:
            reference_burgers(make_grid(1, 64), [0.0, 0.3, 0.4])
        assert str(excinfo.value) == "non-finite values in the Burgers reference at t=0.3"

    def test_unresolved_end_rejected(self):
        # past t = 0.75 on 256 fine points the spectrum fills the band
        unresolved = r"grid_size=64 \(256 fine points\) does not resolve t=0.999: .* 0.013 "
        with pytest.raises(ValueError, match=unresolved):
            reference_burgers(make_grid(1, 64), [0.5, 0.999])


class TestCheckpoint:
    def test_round_trip(self, tmp_path, grid2d, rng):
        f = random_solenoidal(grid2d, rng, kmax=5)
        f = Field(grid2d, f.values, t=0.3, eta=0.07)
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

    def test_data_is_the_raw_values(self, tmp_path, grid2d, rng):
        f = random_solenoidal(grid2d, rng, kmax=5)
        path = tmp_path / "v.ckpt"
        write_checkpoint(path, f)
        assert path.read_bytes().endswith(b"}\n" + f.values.astype("<f8").tobytes())

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

    def test_huge_size_is_truncated_before_the_grid_is_built(self, tmp_path, monkeypatch):
        """The data length a header implies is checked before make_grid
        builds tables of size^n entries."""

        def refuse(*args):
            raise AssertionError("make_grid called before the data length check")

        monkeypatch.setattr("scalepde.evolve.make_grid", refuse)
        header = {"components": 2, "eta": 0.0, "n": 2, "size": 2**20, "t": 0.0, "version": 1}
        path = tmp_path / "huge.ckpt"
        path.write_bytes(b"SCALEPDE" + json.dumps(header).encode() + b"\n" + bytes(16))
        with pytest.raises(OSError, match="huge.ckpt: truncated checkpoint"):
            read_checkpoint(path)

    def test_infinite_component_count_is_unreadable(self, tmp_path):
        header = b'{"components": Infinity, "eta": 0.0, "n": 1, "size": 8, "t": 0.0, "version": 1}'
        path = tmp_path / "inf.ckpt"
        path.write_bytes(b"SCALEPDE" + header + b"\n" + bytes(64))
        with pytest.raises(OSError, match="inf.ckpt: unreadable checkpoint header"):
            read_checkpoint(path)

    def test_non_finite_values_name_path(self, tmp_path, grid1d):
        path = tmp_path / "nan.ckpt"
        write_checkpoint(path, Field(grid1d, np.zeros(grid1d.shape)))
        data = bytearray(path.read_bytes())
        data[-8:] = np.array([np.nan], dtype="<f8").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(OSError, match="nan.ckpt: checkpoint holds non-finite"):
            read_checkpoint(path)

    @pytest.mark.parametrize(
        "key, value",
        [("eta", -1), ("eta", math.nan), ("components", -2), ("components", 0),
         ("t", "abc"), ("components", 2.5)],
    )
    def test_bad_header_field_exits_4_naming_file(self, tmp_path, capsys, key, value):
        header = {"components": 2, "eta": 0.0, "n": 2, "size": 16, "t": 0.0, "version": 1}
        path = tmp_path / "forcing.ckpt"
        path.write_bytes(
            b"SCALEPDE" + json.dumps(dict(header, **{key: value})).encode() + b"\n"
            + bytes(8 * 2 * 16 * 16)
        )
        with pytest.raises(OSError, match="forcing.ckpt: unreadable checkpoint header"):
            read_checkpoint(path)
        code = main(["evolve", "--set", "grid_size=16", "--set", "psi.enabled=true",
                     "--set", "psi.forcing.name=checkpoint", "--set", f"psi.forcing.path={path}"])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith(f"i/o error: {path}: ") and key in err

    def test_wrong_version_names_path(self, tmp_path, grid1d):
        path = tmp_path / "future.ckpt"
        write_checkpoint(path, Field(grid1d, np.zeros(grid1d.shape)), extra={"version": 99})
        with pytest.raises(OSError, match="future.ckpt: checkpoint version 99"):
            read_checkpoint(path)
