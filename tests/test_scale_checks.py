"""The scale-check commands: pinned report numbers and their work budgets.

The pinned values are the reports of the code before the check commands
were narrowed to the nodes they read (full ladders, one curvature per
node, a physical-space Burgers RK4), except the fluid residual's max_e
and orders, pinned again when the jets moved to real transforms: that
moved them by rounding, amplified by the centred difference over the
spacing and by the Laplacian, 1.4e-8 relative at most.  Numbers that
sit at rounding level are compared absolutely.
"""

import importlib
import json
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from scalepde import (
    Field,
    NonFiniteFieldError,
    ScaleStack,
    SpectralStack,
    build_scale_stack,
    burgers_core,
    closure_error_bound,
    derive_source,
    duhamel_integral,
    eta_derivative,
    filter_defect,
    filter_deviation,
    fluid_core,
    jet_evaluate,
    jet_values,
    make_grid,
    parse_core,
    reference_burgers,
    residual_defect,
)
from scalepde.cli import main
from scalepde.evolve import BURGERS_REFINEMENT
from scalepde.grid import _dealias_values, _irfft, _rfft
from scalepde.heat import heat_propagate, heat_propagate_batches, node_batches
from scalepde.families import (
    filtered_taylor_green,
    manufactured_scalar_2d_ladder,
    random_band_limited,
)
from oracles import (
    burgers_physical_rk4,
    manufactured_scalar_2d,
    per_ladder_deviation_errors,
    per_ladder_residual_errors,
    per_node_closure_rows,
    restricted_burgers_pair,
)

RTOL = 1e-9

COMMANDS = {
    "residual_fluid": ["residual-check", "--set", "n=2", "--set", "core=fluid"],
    "residual_burgers": ["residual-check", "--set", "n=1", "--set", "core=burgers"],
    "closure": ["closure-check"],
    "duhamel": ["duhamel-check"],
    "filter": ["filter-check"],
}

PINNED = {
    "residual_fluid": {
        "max_e": [9.425684331979753e-05, 2.356365861370321e-05, 5.890880189798186e-06],
        "orders": [2.0000338092788534, 2.0000084402258422],
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


def test_benchmark_values(tmp_path, capsys, monkeypatch):
    """The seven scale_checks commands of perfbench/, at its grid sizes and
    default seed, pass its output checks and match its recorded values."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    reference = workloads.load_reference()
    workload = workloads.build("scale_checks", tmp_path, workloads.DEFAULT_SEED)
    assert len(workload.cycle) == 7
    for cmd in workload.cycle:
        code = main(list(cmd.argv))
        capsys.readouterr()
        problems, seen = workloads.check(cmd, code)
        problems += workloads.compare("scale_checks", cmd, seen, reference)
        assert not problems, (cmd.label, problems)


def test_tiny_cycle_twice_in_one_process(tmp_path, capsys, monkeypatch):
    """The tiny scale_checks cycle, run twice in one process, writes the
    same bytes and prints the same lines: no scratch array outlives the
    call that made it."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    workload = workloads.build("scale_checks", tmp_path, workloads.DEFAULT_SEED, tiny=True)
    runs = []
    for _ in range(2):
        seen = {}
        for cmd in workload.cycle:
            code = main(list(cmd.argv))
            seen[cmd.label] = (code, capsys.readouterr())
            for path in sorted(Path(cmd.out).rglob("*")):
                if path.is_file():
                    seen[path] = path.read_bytes()
        runs.append(seen)
    assert len(runs[0]) > 2 * len(workload.cycle)
    assert runs[0] == runs[1]


class TestWorkBudget:
    """Transform and Field counts, which do not depend on the grid size."""

    def test_residual_check_fluid_transforms(self, tmp_path, capsys, transform_counts):
        code, _ = _run(tmp_path, "residual_fluid")
        capsys.readouterr()
        assert code == 0
        assert transform_counts["calls"] <= 650
        # u_t's pressure row is read by no jet, so it is not propagated: the
        # heat propagation transforms 3 + 2 rows forward and as many back at
        # each of the 7 distinct nodes (180 with all three rows of u_t)
        assert transform_counts["transforms"] == 172

    @pytest.mark.parametrize(
        "case, complex_calls, real_calls", [("residual_fluid", 10, 81), ("duhamel", 0, 96)]
    )
    def test_calls_by_kind(
        self, tmp_path, capsys, transform_counts, case, complex_calls, real_calls
    ):
        # residual_fluid: complex for the heat propagation of the generators
        # alone, one forward each and one inverse per batch of distinct
        # nodes: at 32^2 the 6 outer nodes make 3 batches of 2 (3 x 32^2
        # values each) and the centre the windows share one of its own.
        # Real for each batch's jet table and evaluation, 13 calls each and
        # 42 at the centre: one forward transform per differentiated
        # component and one inverse per jet, and one dealiasing per output,
        # the source's read at the centre alone (120 with a call per node).
        # duhamel: real only, one forward call for the family's three modes,
        # of which every node's spectrum is formed, and one inverse per psi
        # (sum of K = 59), per distinct deviation (33) and per quadrature (3)
        code, _ = _run(tmp_path, case)
        capsys.readouterr()
        assert code == 0
        assert transform_counts["complex"] == complex_calls
        assert transform_counts["calls"] - transform_counts["complex"] == real_calls

    @pytest.mark.parametrize("case, calls", [("closure", 1334), ("residual_burgers", 359)])
    def test_one_dimensional_ladders_are_batched(
        self, tmp_path, capsys, transform_counts, case, calls
    ):
        # the 1-D Burgers ladders (closure-check's 33 nodes at 128 points,
        # residual-check's 6 outer nodes at 32) are each one batch: two complex
        # inverses, u_x's real pair and the dealiasing pair, 6 calls where one
        # call per node made 6 per node (1526 and 389 calls)
        code, _ = _run(tmp_path, case)
        capsys.readouterr()
        assert code == 0
        assert transform_counts["calls"] == calls

    # The stacks, the generators, the propagated slices, r, s, e and the
    # differences the checks take norms of are rows, no Field.  What remains
    # are the Fields the families return (random_band_limited,
    # random_solenoidal, sine_field), those the Field-API operators return
    # (heat_propagate, spectral_derivative, divergence, laplacian) and the
    # closure solves with their inputs.

    def test_filter_check_fields(self, tmp_path, capsys, transform_counts):
        code, _ = _run(tmp_path, "filter")
        capsys.readouterr()
        assert code == 0
        # f, its derivative and that propagated, v, v propagated and its
        # divergence; f propagated, its derivative and the mode amplitudes
        # are rows
        assert transform_counts["fields"] == 6

    def test_closure_check_fields(self, tmp_path, capsys, transform_counts):
        code, _ = _run(tmp_path, "closure")
        capsys.readouterr()
        assert code == 0
        # s, its solve and the solve's Laplacian; the sine, the constant and
        # the 5 solves of them
        assert transform_counts["fields"] <= 10

    @pytest.mark.parametrize("case, fields", [("residual_fluid", 0), ("residual_burgers", 0)])
    def test_residual_check_fields(self, tmp_path, capsys, transform_counts, case, fields):
        code, _ = _run(tmp_path, case)
        capsys.readouterr()
        assert code == 0
        # the generators, the Taylor-Green family's too, are rows
        assert transform_counts["fields"] == fields

    def test_burgers_reference_fields(self, tmp_path, capsys, transform_counts):
        code = main(["burgers-reference", "--out", str(tmp_path / "ref"), "--set", "n=1"])
        capsys.readouterr()
        assert code == 0
        # the norms are read off the reference's rows: the two checkpoints
        # written are the only Fields
        assert transform_counts["fields"] == 2

    def test_duhamel_check_transforms_no_psi(self, tmp_path, capsys, transform_counts, monkeypatch):
        forward = []
        rfftn = np.fft.rfftn
        monkeypatch.setattr(
            np.fft,
            "rfftn",
            lambda a, *args, **kw: forward.append(np.shape(a)) or rfftn(a, *args, **kw),
        )
        code, _ = _run(tmp_path, "duhamel")
        capsys.readouterr()
        assert code == 0
        # the family's three modes alone, in one call: the spectra of the 39
        # distinct ladder nodes (-1..33 in units of the finest spacing for
        # K = 33, -2 and 34 for K = 17, -4 and 36 for K = 9) are formed of
        # them, and psi goes to the quadrature as coefficients
        assert forward == [(3, 32, 32)]

    def test_duhamel_check_fields(self, tmp_path, capsys, transform_counts):
        code, _ = _run(tmp_path, "duhamel")
        capsys.readouterr()
        assert code == 0
        # psi is a spectral ladder, and the deviations, the quadratures and
        # their errors are rows: no Field at all
        assert transform_counts["fields"] == 0


class TestSharedNodes:
    """The commands compute each distinct eta node once, keyed by exact
    float equality.  On ladders that are not nested their reports equal
    each ladder evaluated on its own: on 5, 7, 9 the residual windows share
    only their centre and the extended ladders of 5 and 9 nodes the nodes
    of the first; on 6, 11 the centre of the first window is an outer node
    of the second."""

    @pytest.mark.parametrize("nodes", [[5, 7, 9], [6, 11]], ids=["5-7-9", "6-11"])
    @pytest.mark.parametrize("core", ["fluid", "burgers"])
    def test_residual_check(self, tmp_path, capsys, core, nodes):
        # the Burgers reference resolves t = 0.5 from 32 points up
        n, size = (2, 16) if core == "fluid" else (1, 32)
        out = tmp_path / "run"
        main(["residual-check", "--out", str(out), "--set", f"grid_size={size}",
              "--set", f"n={n}", "--set", f"core={core}", "--set", f"nodes={nodes}"])
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        grid = make_grid(n, size)
        if core == "fluid":
            expr, rows = fluid_core(2), filtered_taylor_green(grid)
        else:
            expr, rows = burgers_core(), reference_burgers(grid, [0.5])[0]
        gens = [Field(grid, g) for g in rows]
        assert report["max_e"] == per_ladder_residual_errors(expr, *gens, 0.05, 0.15, nodes)

    @pytest.mark.parametrize("n, size", [(1, 64), (2, 128)], ids=["n1-grid64", "n2-grid128"])
    def test_closure_check(self, tmp_path, capsys, n, size):
        # the 33 Burgers nodes are propagated, tabulated and evaluated as one
        # batch (33 x 64 or 33 x 128 values); each row of the table equals r
        # formed on its node alone, to the last bit
        out = tmp_path / "run"
        code = main(["closure-check", "--out", str(out), "--set", "grid_size=32",
                     "--set", f"n={n}"])
        capsys.readouterr()
        assert code == 0
        lines = (out / "closure_bound.csv").read_text().splitlines()[2:]
        got = [tuple(map(float, ln.split(",")[1:])) for ln in lines if ln.startswith("burgers,")]
        grid = make_grid(1, size)
        gens = [Field(grid, g) for g in reference_burgers(grid, [0.5])[0]]
        assert got == per_node_closure_rows(burgers_core(), *gens, 0.05, 0.15, 33)

    @pytest.mark.parametrize("nodes", [[5, 7, 9], [6, 11]], ids=["5-7-9", "6-11"])
    def test_duhamel_check(self, tmp_path, capsys, nodes):
        out = tmp_path / "run"
        main(["duhamel-check", "--out", str(out), "--set", "grid_size=16",
              "--set", f"nodes={nodes}"])
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        errors, worst = per_ladder_deviation_errors(make_grid(2, 16), 0.05, 0.15, nodes)
        assert report["errors"] == errors
        assert report["deviation_bound_margin"] == worst


class TestStackWindow:
    @pytest.fixture
    def generator(self):
        grid = make_grid(2, 16)
        return random_band_limited(grid, np.random.default_rng(3), ncomp=2, kmax=4)

    def test_three_node_window_spacing_is_the_mean(self, generator):
        full = build_scale_stack(generator, 0.05, 0.15, 17)
        window = ScaleStack(full.grid, full.eta_nodes[7:10], full.values[7:10])
        assert window.K == 3
        nodes = window.eta_nodes
        assert window.delta_eta == (nodes[2] - nodes[0]) / 2
        # a centred difference reads the outer nodes, over twice this spacing
        d = eta_derivative(window, 1)
        want = (window.values[2] - window.values[0]) / (nodes[2] - nodes[0])
        np.testing.assert_allclose(d, want, rtol=1e-12, atol=1e-12)

    def test_two_nodes_are_refused(self, generator):
        full = build_scale_stack(generator, 0.05, 0.15, 5)
        with pytest.raises(ValueError, match="at least 3 eta nodes"):
            ScaleStack(full.grid, full.eta_nodes[:2], full.values[:2])
        spectra = [np.zeros((2,) + full.grid.rshape, complex)] * 2
        with pytest.raises(ValueError, match="at least 3 eta nodes"):
            SpectralStack(full.grid, full.eta_nodes[:2], spectra)

    def test_spectral_stack_validation(self, generator):
        grid, nodes = generator.grid, [0.05, 0.06, 0.07]
        coeffs = np.zeros((2,) + grid.rshape, complex)
        with pytest.raises(ValueError, match="uniformly spaced"):
            SpectralStack(grid, [0.05, 0.06, 0.08], [coeffs] * 3)
        for grid_of, spectra in (
            (grid, [coeffs] * 2),
            (grid, [coeffs, coeffs, coeffs[:1]]),
            (make_grid(2, 8), [coeffs] * 3),
        ):
            with pytest.raises(ValueError, match=r"one row per node.*\(ncomp, \*grid.rshape\)"):
                SpectralStack(grid_of, nodes, spectra)
        # a physical row is not a half spectrum
        with pytest.raises(ValueError, match="one row per node"):
            SpectralStack(grid, nodes, [generator.values] * 3)

    def test_propagate_batches_makes_each_block_when_taken(self, generator, transform_counts):
        grid, values = generator.grid, generator.values
        batches = node_batches([0.01, 0.02], values.size)
        # the two rows of 2 x 16^2 values are one batch
        assert batches == [[0.01, 0.02]]
        blocks = heat_propagate_batches(grid, values, batches)
        # the forward transform at once, each batch's inverse as it is taken
        assert transform_counts["calls"] == 1
        assert next(blocks).shape == (2,) + values.shape
        assert transform_counts["calls"] == 2
        # refused before any transform: a negative delta, rows off the grid
        with pytest.raises(ValueError, match="delta_eta"):
            heat_propagate_batches(grid, values, [[0.01], [-0.1]])
        with pytest.raises(ValueError, match=r"rows of shape \(2, 8, 8\) do not fit"):
            heat_propagate_batches(grid, values[:, :8, :8], batches)
        with pytest.raises(ValueError, match="do not fit"):
            heat_propagate_batches(grid, values[0], batches)
        assert transform_counts["calls"] == 2

    def test_propagate_batches_block_is_held_by_its_rows_alone(self):
        generator = random_band_limited(make_grid(1, 128), np.random.default_rng(5), ncomp=2)
        deltas = np.linspace(0.0, 0.2, 40)
        blocks = heat_propagate_batches(
            generator.grid, generator.values, node_batches(deltas, generator.values.size)
        )
        # 32 rows of 2 x 128 values are the first block; the rows are views
        # of it, and the generator keeps no reference to a block it gave
        rows = list(next(blocks))
        assert len(rows) == 32 and all(row.base is rows[0].base for row in rows)
        block = weakref.ref(rows[0].base)
        del rows
        assert block() is None

    @pytest.mark.parametrize("one_dimensional", [False, True], ids=["2-D", "1-D-two-batches"])
    def test_propagate_batches_matches_single(self, generator, one_dimensional):
        deltas = [0.0, 0.01, 0.2]
        if one_dimensional:
            # 2 x 128 values a row, 32 rows to a batch: 40 deltas make two
            generator = random_band_limited(make_grid(1, 128), np.random.default_rng(5), ncomp=2)
            deltas = list(np.linspace(0.0, 0.2, 40))
        axes = tuple(range(1, generator.grid.n + 1))
        grid, values = generator.grid, generator.values
        blocks = list(heat_propagate_batches(grid, values, node_batches(deltas, values.size)))
        assert len(blocks) == (2 if one_dimensional else 1)
        rows = [row for block in blocks for row in block]
        assert len(rows) == len(deltas)
        for d, row in zip(deltas, rows):
            # one propagation on its own: transform, damp, transform back
            coeffs = np.fft.fftn(generator.values, axes=axes)
            one = np.fft.ifftn(coeffs * np.exp(-d * generator.grid.ksq), axes=axes).real
            assert type(row) is np.ndarray and row.flags.c_contiguous
            np.testing.assert_array_equal(row, one)
            # heat_propagate wraps the same row in a Field at the new scale
            f = heat_propagate(generator, d)
            np.testing.assert_array_equal(f.values, one)
            assert f.eta == generator.eta + d
        with pytest.raises(ValueError, match="delta_eta"):
            heat_propagate_batches(grid, values, [[-0.1]])

    def test_peak_curvature_matches_node_loop(self, generator):
        stack = build_scale_stack(generator, 0.05, 0.15, 9)
        h = stack.delta_eta
        loop = max(
            float(np.max(np.abs((hi - 2.0 * mid + lo) / h**2)))
            for lo, mid, hi in zip(stack.values, stack.values[1:], stack.values[2:])
        )
        _, rhs = closure_error_bound(stack)
        assert rhs.tolist() == [0.5 * eta * loop for eta in stack.eta_nodes[1:-1].tolist()]


def test_scalar_ladder_matches_single_slices():
    # the modes are combined after the transform, so each spectrum differs
    # from the transform of the combined field by rounding: at most a few
    # units in the last place of the largest coefficient (about N^2 / 2);
    # 1.3e-16 of it measured at 16^2, 32^2 and 128^2
    grid = make_grid(2, 16)
    etas = [0.04, 0.05, 0.06]
    spectra = list(manufactured_scalar_2d_ladder(grid, etas))
    assert len(spectra) == len(etas)
    for eta, u_hat in zip(etas, spectra):
        want = np.fft.rfftn(manufactured_scalar_2d(grid, eta)[0].values, axes=(1, 2))
        assert u_hat.shape == (1,) + grid.rshape
        assert np.max(np.abs(u_hat - want)) <= 1e-15 * np.max(np.abs(want))


def test_burgers_reference_matches_physical_rk4():
    coarse, fine = make_grid(1, 32), make_grid(1, BURGERS_REFINEMENT * 32)
    solution = burgers_physical_rk4(fine.size, 0.3, 0.25 * fine.spacing)
    pair = reference_burgers(coarse, [0.3])[0]
    for got, want in zip(pair, restricted_burgers_pair(solution, coarse.size)):
        assert np.max(np.abs(got[0] - want)) <= 1e-12
        assert type(got) is np.ndarray and got.shape == (1,) + coarse.shape


class TestExpressionForms:
    """The check path forms its values in reused buffers, with the same
    operations in the same order as the plain expressions written here, so
    the results are equal to the last bit.  The oracle comparisons elsewhere
    use tolerances and would not see a reordering that moves a value the
    benchmark pins to 1e-6."""

    @pytest.fixture
    def stack(self):
        grid = make_grid(2, 16)
        etas = [0.05 + j * 0.1 / 8 for j in range(-1, 10)]
        return SpectralStack(grid, etas, list(manufactured_scalar_2d_ladder(grid, etas)))

    def test_manufactured_ladder(self, stack):
        grid = stack.grid
        x, y = grid.coords()
        modes = np.stack([np.sin(x) * np.cos(y), np.cos(x), np.sin(2 * x) * np.cos(y)])
        m1, m2, m3 = _rfft(grid, modes)
        for eta, got in zip(stack.eta_nodes.tolist(), stack.values):
            want = ((1.0 + eta) * m1 + math.exp(-eta) * m2 + math.cos(eta) * m3)[np.newaxis]
            assert np.array_equal(got, want)

    def test_filter_defect(self, stack):
        u, rksq, half_over_h = stack.values, stack.grid.rksq, 0.5 / stack.delta_eta
        want = [(u[j + 1] - u[j - 1]) * half_over_h + rksq * u[j] for j in range(1, stack.K - 1)]
        psi = filter_defect(stack)
        assert psi.K == len(want)
        assert all(np.array_equal(got, w) for got, w in zip(psi.values, want))

    def test_duhamel_integral(self, stack):
        psi = filter_defect(stack)
        grid, nodes, h = psi.grid, psi.eta_nodes.tolist(), psi.delta_eta
        for target in (1, psi.K // 2, psi.K - 1):
            total = np.zeros(psi.values[0].shape, dtype=complex)
            for j in range(target + 1):
                weight = 0.5 * h if j in (0, target) else h
                damping = np.exp(-(nodes[target] - nodes[j]) * grid.rksq)
                total += (weight * damping) * psi.values[j]
            assert np.array_equal(duhamel_integral(psi, target), _irfft(grid, total))

    @pytest.mark.parametrize("case", ["fluid", "source", "mixed"])
    def test_jet_evaluate(self, case, rng):
        expr = {
            "fluid": lambda: fluid_core(2),
            "source": lambda: derive_source(fluid_core(2)),
            # constant, linear, quadratic, cubic and quartic monomials
            "mixed": lambda: parse_core(
                "2*u1*u1_x1 - 3*u2*u1_x2 + u1*u2*u2_x1 + 1/2*u1 + 3/2; "
                "u1*u1 - u2_x2*u2 + 7 - u3_t; u3*u3_x1*u1*u2", n=2
            ),
        }[case]()
        grid = make_grid(2, 16)
        u = random_band_limited(grid, rng, ncomp=3)
        u_t = random_band_limited(grid, rng, ncomp=3)
        jets = jet_values(expr, grid, u.values, u_t.values)
        want = np.zeros((expr.num_outputs,) + grid.shape)
        for a, part in enumerate(expr.terms):
            quadratic = None
            for m in part:
                vals = [jets[f] for f in m.factors]
                if len(vals) == 2:
                    term = float(m.coeff) * (vals[0] * vals[1])
                    quadratic = term if quadratic is None else quadratic + term
                    continue
                prod = vals[0] if vals else 1.0
                for v in vals[1:]:
                    prod = _dealias_values(grid, prod * v)
                want[a] += float(m.coeff) * prod
            if quadratic is not None:
                want[a] += _dealias_values(grid, quadratic)
        assert np.array_equal(jet_evaluate(expr, jets, grid), want)


class TestRowsAreChecked:
    """The check path passes rows, not Fields, between its steps; each row a
    step returns is checked as a Field's values would be.  A SpectralStack
    does not check its half spectra, so for the deviation and the
    quadrature that check is the only guard."""

    def test_jet_evaluate_refuses_a_nan_jet(self):
        grid = make_grid(1, 16)
        expr = parse_core("u1_t + u1*u1_x1", n=1)
        u = np.sin(grid.coords()[0])[np.newaxis]
        jets = jet_values(expr, grid, u, u)
        (dx,) = [idx for idx in jets if "x1" in idx.derivs]
        jets[dx] = jets[dx].copy()
        jets[dx][5] = np.nan
        with pytest.raises(NonFiniteFieldError, match="finite"):
            jet_evaluate(expr, jets, grid)

    @pytest.fixture
    def inf_stack(self):
        grid = make_grid(2, 16)
        etas = [0.05 + j * 0.01 for j in range(7)]
        spectra = [row.copy() for row in manufactured_scalar_2d_ladder(grid, etas)]
        for row in spectra:
            row[0, 1, 2] = np.inf
        return SpectralStack(grid, etas, spectra)

    # inf times a complex value makes a NaN, which numpy warns of; it is
    # the row check that refuses it
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_filter_deviation_refuses_an_inf_spectrum(self, inf_stack):
        for node in (1, 4):
            with pytest.raises(NonFiniteFieldError, match="finite"):
                filter_deviation(inf_stack, node)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_duhamel_integral_refuses_an_inf_spectrum(self, inf_stack):
        for target in (1, inf_stack.K - 1):
            with pytest.raises(NonFiniteFieldError, match="finite"):
                duhamel_integral(inf_stack, target)

    def test_residual_defect_refuses_a_nan_source(self):
        grid = make_grid(1, 16)
        stack = ScaleStack(grid, [0.05, 0.06, 0.07], [np.zeros((1,) + grid.shape)] * 3)
        s = np.zeros((1,) + grid.shape)
        s[0, 3] = np.nan
        with pytest.raises(NonFiniteFieldError, match="finite"):
            residual_defect(stack, s, 1)
