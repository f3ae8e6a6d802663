"""The scale-check commands: pinned report numbers and their work budgets.

The pinned values are the reports of the code before the check commands
were narrowed to the nodes they read (full ladders, one curvature per
node, a physical-space Burgers RK4).  Numbers that sit at rounding level
are compared absolutely.
"""

import json

import numpy as np
import pytest

from scalepde import (
    Field,
    build_scale_stack,
    closure_error_bound,
    eta_derivative,
    heat_propagate,
    make_grid,
    reference_burgers,
)
from scalepde.cli import main
from scalepde.heat import heat_propagate_many
from scalepde.families import (
    manufactured_scalar_2d,
    manufactured_scalar_2d_ladder,
    random_band_limited,
)
from oracles import burgers_physical_rk4

RTOL = 1e-9

COMMANDS = {
    "residual_fluid": ["residual-check", "--set", "n=2", "--set", "core=fluid"],
    "residual_burgers": ["residual-check", "--set", "n=1", "--set", "core=burgers"],
    "closure": ["closure-check"],
    "duhamel": ["duhamel-check"],
}

PINNED = {
    "residual_fluid": {
        "max_e": [9.425684329156387e-05, 2.356365860864072e-05, 5.890880273553539e-06],
        "orders": [2.000033809156662, 2.0000084194039407],
        "r_epsilon_l2": 13.957728399277759,
        "r_epsilon_max": 0.5000000000000009,
    },
    "residual_burgers": {
        "max_e": [0.03780764504855272, 0.009390536608509858, 0.002343795121586556],
        "orders": [2.0093984839104704, 2.0023611361213423],
        "r_epsilon_l2": 0.008403529609028104,
        "r_epsilon_max": 0.002333700463318711,
    },
    "closure": {
        "taylor_bound_manufactured": 1.0139476164306838,
        "taylor_bound_burgers": 0.560876219989601,
    },
    "duhamel": {
        "errors": [0.0001233381627583352, 3.083531895298197e-05, 7.70887838064116e-06],
        "orders": [1.9999635868558283, 1.9999908966828968],
        "deviation_bound_margin": 0.5532051823030966,
    },
}


def _run(tmp_path, case):
    argv = COMMANDS[case]
    out = tmp_path / case
    code = main(argv[:1] + ["--out", str(out), "--set", "grid_size=32"] + argv[1:])
    return code, json.loads((out / "report.json").read_text())


@pytest.mark.parametrize("case", sorted(PINNED))
def test_report_matches_pinned_values(tmp_path, capsys, case):
    code, report = _run(tmp_path, case)
    capsys.readouterr()
    assert code == 0 and report["passed"]
    if case == "closure":
        measured = {c["name"]: c["measured"] for c in report["checks"]}
        assert all(c["passed"] for c in report["checks"])
        # r at epsilon of an exact Burgers slice is rounding noise, ~7e-10
        assert report["burgers_r_epsilon_max"] == pytest.approx(7.387779277223672e-10, abs=1e-14)
    else:
        measured = report
    for key, want in PINNED[case].items():
        assert measured[key] == pytest.approx(want, rel=RTOL), key


class TestWorkBudget:
    """Transform and Field counts, which do not depend on the grid size."""

    def test_residual_check_fluid_transforms(self, tmp_path, capsys, transform_counts):
        code, _ = _run(tmp_path, "residual_fluid")
        capsys.readouterr()
        assert code == 0
        assert transform_counts["calls"] <= 650

    def test_closure_check_fields(self, tmp_path, capsys, transform_counts):
        code, _ = _run(tmp_path, "closure")
        capsys.readouterr()
        assert code == 0
        assert transform_counts["fields"] <= 1000


class TestStackWindow:
    @pytest.fixture
    def generator(self):
        grid = make_grid(2, 16)
        return random_band_limited(grid, np.random.default_rng(3), ncomp=2, kmax=4)

    def test_window_is_slice_of_full_ladder(self, generator):
        full = build_scale_stack(generator, 0.05, 0.15, 17)
        window = build_scale_stack(generator, 0.05, 0.15, 17, 6, 11)
        assert window.K == 5
        np.testing.assert_array_equal(window.eta_nodes, full.eta_nodes[6:11])
        base = generator.with_values(eta=0.05)
        for j, f in enumerate(window.fields, start=6):
            np.testing.assert_array_equal(f.values, full.fields[j].values)
            exact = heat_propagate(base, float(full.eta_nodes[j]) - 0.05)
            np.testing.assert_array_equal(f.values, exact.values)

    @pytest.mark.parametrize("start, stop", [(-1, 4), (13, 18), (3, 7)])
    def test_window_validation(self, generator, start, stop):
        with pytest.raises(ValueError, match="at least 5"):
            build_scale_stack(generator, 0.05, 0.15, 17, start, stop)

    def test_propagate_many_matches_single(self, generator):
        many = heat_propagate_many(generator, [0.0, 0.01, 0.2])
        for d, f in zip([0.0, 0.01, 0.2], many):
            # one propagation on its own: transform, damp, transform back
            coeffs = np.fft.fftn(generator.values, axes=(1, 2))
            one = np.fft.ifftn(coeffs * np.exp(-d * generator.grid.ksq), axes=(1, 2)).real
            np.testing.assert_array_equal(f.values, one)
            assert f.eta == generator.eta + d
        with pytest.raises(ValueError, match="delta_eta"):
            heat_propagate_many(generator, [-0.1])

    def test_peak_curvature_matches_node_loop(self, generator):
        stack = build_scale_stack(generator, 0.05, 0.15, 9)
        loop = max(
            float(np.max(np.abs(eta_derivative(stack, j, order=2).values)))
            for j in range(1, stack.K - 1)
        )
        assert stack.peak_curvature == loop
        lhs, rhs = closure_error_bound(stack, 3)
        assert rhs == 0.5 * float(stack.eta_nodes[3]) * loop


def test_scalar_ladder_matches_single_slices():
    grid = make_grid(2, 16)
    etas = [0.04, 0.05, 0.06]
    for eta, u in zip(etas, manufactured_scalar_2d_ladder(grid, etas)):
        np.testing.assert_array_equal(u.values, manufactured_scalar_2d(grid, eta)[0].values)
        assert u.eta == eta


def test_burgers_reference_matches_physical_rk4():
    coarse = make_grid(1, 32)
    ref = reference_burgers(coarse, 0.3)
    want = burgers_physical_rk4(ref.fine.size, 0.3, 0.25 * ref.fine.spacing)
    assert np.max(np.abs(ref.snapshots[-1].values[0] - want)) <= 1e-12
    assert isinstance(ref.snapshots[-1], Field) and ref.snapshots[-1].t == 0.3
