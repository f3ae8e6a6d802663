"""Tests of the benchmark itself: smoke runs, the FFT counter, span analysis.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layertrace  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

EVOLVE = ("evolve_closure_256", "evolve_psi_64")


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _printed_units(stdout: str) -> dict:
    units = {}
    for line in stdout.splitlines()[:-1]:
        parts = line.split()
        if len(parts) >= 3 and not line.startswith("#"):
            units[parts[0]] = parts[2]
    return units


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_end_to_end(workload):
    done = _run("--workload", workload, "--seed", "1", "--seconds", "0.2", "--trace", "0",
                "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    printed = _printed_units(done.stdout)
    expected = dict(run.END_TO_END_UNITS, ops_failed_ratio="ratio")
    if workload in EVOLVE:
        expected["steps_per_s"] = "1/s"
    else:
        for cmd in ("residual-check", "closure-check", "duhamel-check", "burgers-reference"):
            expected[f"{cmd}_s"] = "s"
    for name, unit in expected.items():
        assert printed.get(name) == unit, name
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END_UNITS[name]
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_traced(workload):
    done = _run("--workload", workload, "--seed", "1", "--seconds", "0.2", "--trace", "1",
                "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stdout
    metrics = result["metrics"]
    units = layertrace.per_layer_units()
    assert set(metrics) == set(units)
    printed = _printed_units(done.stdout)
    for name, unit in units.items():
        assert metrics[name]["unit"] == unit
        assert printed.get(name) == unit, name
        assert metrics[name]["value"] is not None, metrics[name]
    value = {k: m["value"] for k, m in metrics.items()}
    # the FFT count per step does not depend on the grid size
    if workload == "evolve_closure_256":
        assert value["grid.fft_calls_per_step"] == 215
        assert value["fluid.sigma.calls_per_step"] > 0
    if workload == "evolve_psi_64":
        assert value["grid.fft_calls_per_step"] == 222
        assert value["fluid.sigma.calls_per_step"] == 0
        assert value["residual.solve_residual_closure.calls_per_step"] == 0
    if workload in EVOLVE:
        assert value["heat.heat_propagate.calls"] == 0
        assert value["jets.jet_values.calls"] == 0
    else:
        assert value["heat.heat_propagate.calls"] > 0
        assert value["jets.jet_values.calls"] > 0
    assert value["grid.rfft_transforms_per_step"] == 0
    assert value["trace.overhead_ratio"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run("--workload", "scale_checks", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _counted_fft():
    tracer = layertrace.Tracer()
    fft = types.SimpleNamespace(**{
        name: getattr(np.fft, name)
        for names in (layertrace.COMPLEX_1D, layertrace.REAL_1D,
                      layertrace.COMPLEX_ND, layertrace.REAL_ND)
        for name in names
    })
    tracer.install_fft_counter(fft)
    tracer.enabled = True
    return tracer, fft


def test_fftn_counts_one_call_and_one_transform_per_component():
    tracer, fft = _counted_fft()
    a = np.zeros((2, 8, 8))
    out = fft.fftn(a, axes=(1, 2))
    assert out.shape == a.shape
    total = tracer.counts["total"]
    assert total["fft_calls"] == 1
    assert total["fft_transforms"] == 2
    assert total["rfft_calls"] == 0
    assert total["fft_bytes"] == a.nbytes + out.nbytes


def test_real_transforms_kept_apart_and_batch_forms():
    tracer, fft = _counted_fft()
    fft.rfftn(np.zeros((3, 8, 8)), axes=(1, 2))
    fft.fft2(np.zeros((4, 8, 8)))
    fft.ifft(np.zeros((5, 8)), axis=0)
    fft.fftn(np.zeros((8, 8)))
    total = tracer.counts["total"]
    assert total["fft_calls"] == 4
    assert total["fft_transforms"] == 3 + 4 + 8 + 1
    assert total["rfft_calls"] == 1
    assert total["rfft_transforms"] == 3


def test_fft_counts_attributed_to_step_spans():
    tracer, fft = _counted_fft()
    step = tracer.wrap(layertrace.STEP_SPAN, lambda: fft.ifftn(fft.fftn(np.zeros((2, 4, 4)))))
    step()
    fft.fftn(np.zeros((4, 4)))
    assert tracer.counts["step"]["fft_calls"] == 2
    assert tracer.counts["total"]["fft_calls"] == 3


def test_disabled_counter_counts_nothing():
    tracer, fft = _counted_fft()
    tracer.enabled = False
    fft.fftn(np.zeros((4, 4)))
    assert tracer.counts["total"]["fft_calls"] == 0


def test_self_time_on_synthetic_tree():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 6]
    spans = [
        [-1, "a", 0.0, 10.0, 0],
        [0, "b", 1.0, 4.0, 0],
        [1, "c", 2.0, 3.0, 0],
        [0, "d", 5.0, 6.0, 0],
    ]
    assert layertrace.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def _run_figures(**kw):
    figures = {"ops": 1, "records": 2, "checkpoint_bytes": 0, "minor_faults": 0,
               "traced_op_s": 1.1, "untraced_op_s": 1.0}
    figures.update(kw)
    return figures


def test_layer_metrics_per_step_and_missing_names():
    tracer = layertrace.Tracer()
    tracer.spans = [
        [-1, "evolve.run_simulation", 0.0, 10.0, 0],
        [0, layertrace.STEP_SPAN, 1.0, 5.0, 0],
        [1, "fluid.advect", 2.0, 3.0, 0],
        [0, "fluid.advect", 6.0, 7.0, 0],
    ]
    available = {"evolve.run_simulation", "evolve.step_rk4", "fluid.advect", "grid.Field"}
    m = layertrace.layer_metrics(tracer, available, _run_figures())
    assert m["fluid.advect.calls_per_step"]["value"] == 1
    assert m["fluid.advect.self_ms_per_step"]["value"] == pytest.approx(1000.0)
    assert m["evolve.step_rk4.self_ms_per_step"]["value"] == pytest.approx(3000.0)
    assert m["evolve.diagnostics_ms_per_record"]["value"] == pytest.approx(3000.0)
    assert m["trace.overhead_ratio"]["value"] == pytest.approx(1.1)
    assert m["fluid.sigma.calls_per_step"]["value"] is None
    assert "scalepde.fluid.sigma" in m["fluid.sigma.calls_per_step"]["reason"]


def test_tail_percentile_keeps_ten_beyond():
    values = [float(i) for i in range(1, 31)]
    value, p, beyond = run.tail_percentile(values)
    assert (value, p, beyond) == (20.0, 66, 10)


def test_op_scaled_by_the_calibrations_either_side():
    calibrations = iter([0.1, 0.3])
    harness = run.Harness(None, "empty", 1, None, lambda: next(calibrations))
    op = harness.run_op(workloads.Workload("empty", [], 0))
    assert op["scale"] == pytest.approx(speed.REFERENCE_S / 0.2)
    assert op["calibration_s"] == 0.3
    assert harness.last_calibration == 0.3


def test_calibrator_transforms_are_not_counted(monkeypatch):
    calibrate = speed.Calibrator()
    for names in (layertrace.COMPLEX_1D, layertrace.REAL_1D,
                  layertrace.COMPLEX_ND, layertrace.REAL_ND):
        for name in names:  # restored when the test ends
            monkeypatch.setattr(np.fft, name, getattr(np.fft, name))
    tracer = layertrace.Tracer()
    tracer.install_fft_counter(np.fft)
    tracer.enabled = True
    assert calibrate() > 0
    assert tracer.counts["total"]["fft_calls"] == 0
    np.fft.fftn(np.zeros((4, 4)))
    assert tracer.counts["total"]["fft_calls"] == 1
