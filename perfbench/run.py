"""scalepde benchmark: closed-loop CLI workloads, one client, one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload evolve_closure_256 --seed 1 --seconds 34 --trace 0

Each op runs a workload's cycle of ``scalepde.cli.main`` invocations in
this process, one after another, and checks every invocation's outputs.
With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` ops alternate between untraced
and traced and the metrics are the per-layer ones.  Op times are scaled to a
reference machine speed measured between ops (see speed.py).  See
README.md in this directory for the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# setup_s counts every import from here on: numpy, the benchmark, scalepde
IMPORT_START = time.perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3

sys.path.insert(0, str(BENCH_DIR))

# one client, no thread pool: keep BLAS and OpenMP to the calling thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy  # noqa: E402

import layertrace  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "peak_rss_mb": "MB",
}


def tail_percentile(values: list[float]) -> tuple[float, int, int]:
    """Highest whole percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  The value is the
    nearest-rank sample.  With ten or fewer samples no percentile has ten
    beyond it; the minimum is returned and the short count says so.
    """
    s = sorted(values)
    n = len(s)
    p = max(0, math.floor(100 * (n - 10) / n))
    k = max(1, math.ceil(p * n / 100))
    return s[k - 1], p, n - k


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "scalepde").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = done.stdout.strip() or None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Harness:
    """Runs ops of one workload and keeps their failures."""

    def __init__(self, cli, name: str, seed: int, reference: dict | None, calibrate):
        self.cli = cli
        self.calibrate = calibrate
        self.last_calibration = calibrate()
        self.name = name
        self.seed = seed
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run_op(self, workload: workloads.Workload) -> dict:
        """One pass over the cycle: per-command seconds and observed outputs.

        ``seconds`` and ``commands`` are raw wall times; ``scale`` turns them
        into reference-speed times, from the calibrations either side of the
        op.  ``calibration_s`` is the wall time the calibration after it took.
        """
        gc.collect()
        op = {"seconds": 0.0, "commands": {}, "observed": {}, "records": 0,
              "checkpoint_bytes": 0, "minor_faults": 0}
        before = self.last_calibration
        ok = True
        for cmd in workload.cycle:
            sink = io.StringIO()
            faults = _minor_faults()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = self.cli.main(list(cmd.argv))
            except Exception:  # a crash is a failed op, not a failed benchmark
                code = "exception: " + traceback.format_exc(limit=3)
            seconds = time.perf_counter() - start
            op["minor_faults"] += _minor_faults() - faults
            op["seconds"] += seconds
            op["commands"][cmd.label] = seconds
            try:
                problems, seen = workloads.check(cmd, code)
            except (OSError, ValueError, KeyError, TypeError) as err:
                problems, seen = [f"unreadable output: {err!r}"], {}
            if not problems and self.reference is not None and (
                self.seed == workloads.DEFAULT_SEED or not cmd.seeded
            ):
                problems = workloads.compare(self.name, cmd, seen, self.reference)
            if problems:
                ok = False
                output = sink.getvalue()[-300:].replace("\n", " / ")
                self.failures.append(f"{cmd.label}: {'; '.join(problems)} | {output}")
            op["observed"][cmd.label] = seen
            op["records"] += seen.get("records", 0)
            op["checkpoint_bytes"] += sum(p.stat().st_size for p in cmd.out.glob("*.ckpt"))
        self.last_calibration = self.calibrate()
        op["calibration_s"] = self.last_calibration
        op["scale"] = speed.REFERENCE_S / (0.5 * (before + self.last_calibration))
        self.attempted += 1
        self.failed += 0 if ok else 1
        return op

    def loop(self, workload: workloads.Workload, seconds: float, before_op=None,
             min_ops: int = 1) -> list[dict]:
        """Closed loop: the next op starts when the previous one is checked."""
        ops = []
        deadline = time.perf_counter() + seconds
        while len(ops) < min_ops or time.perf_counter() < deadline:
            if before_op is not None:
                before_op(len(ops))
            ops.append(self.run_op(workload))
        return ops


def setup(harness: Harness, workdir: Path, tiny: bool):
    """Write the inputs and run one warm-up op, SETUP_REPEATS times.

    Each set-up's time leaves out the calibration that follows its op and
    is scaled to reference speed like an op.
    """
    times = []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl = workloads.build(harness.name, workdir / f"setup{i}", harness.seed, tiny)
        op = harness.run_op(wl)
        times.append((time.perf_counter() - start - op["calibration_s"]) * op["scale"])
    return wl, times


def end_to_end(harness, wl, ops, import_s, setup_times) -> tuple[dict, list[str]]:
    op_s = [o["seconds"] * o["scale"] for o in ops]
    total = sum(op_s)
    tail, p, beyond = tail_percentile(op_s)
    values = {
        "setup_s": import_s + statistics.median(setup_times),
        "ops_per_s": len(ops) / total,
        "op_s_p50": statistics.median(op_s),
        "op_s_tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lines = [f"{k} {v!r} {END_TO_END_UNITS[k]}" for k, v in values.items()]
    lines = [line + f" (p{p} of {len(ops)} ops, {beyond} beyond it)"
             if line.startswith("op_s_tail ") else line for line in lines]
    lines.append(f"ops_failed_ratio {harness.failed / harness.attempted!r} ratio "
                 f"({harness.failed} of {harness.attempted} ops, warm-up ops included)")
    if wl.steps_per_op:
        lines.append(f"steps_per_s {wl.steps_per_op * len(ops) / total!r} 1/s "
                     f"({wl.steps_per_op} RK4 steps per op)")
    else:
        for cmd in ("residual-check", "closure-check", "duhamel-check", "burgers-reference"):
            # residual-check runs twice per op (fluid and burgers): sum them
            med = statistics.median(
                o["scale"] * sum(s for label, s in o["commands"].items()
                                 if label.split(" ")[0] == cmd)
                for o in ops
            )
            lines.append(f"{cmd}_s {med!r} s (median per op of {len(ops)})")
    raw_s = [o["seconds"] for o in ops]
    lines.append(f"raw_ops_per_s {len(ops) / sum(raw_s)!r} 1/s (not scaled to reference speed)")
    lines.append(f"raw_op_s_p50 {statistics.median(raw_s)!r} s (not scaled to reference speed)")
    lines.append(f"machine_speed {statistics.median(o['scale'] for o in ops)!r} ratio "
                 f"(median over ops of {speed.REFERENCE_S} s / calibration s)")
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, lines


def traced(harness, wl, tracer, available, seconds, trace_path) -> tuple[dict, list[str]]:
    """Alternate untraced and traced ops; per-layer metrics of the traced ones.

    Alternating, rather than running the halves one after the other, puts
    both kinds of op in the same stretches of machine speed, so their ratio
    shows the tracing cost.
    """

    def before_op(i):
        tracer.enabled = i % 2 == 1
        tracer.op = i // 2

    both = harness.loop(wl, seconds, before_op=before_op, min_ops=2)
    tracer.enabled = False
    untraced, ops = both[0::2], both[1::2]
    run = {
        "ops": len(ops),
        "records": sum(o["records"] for o in ops),
        "checkpoint_bytes": sum(o["checkpoint_bytes"] for o in ops),
        "minor_faults": sum(o["minor_faults"] for o in ops),
        "traced_op_s": statistics.median(o["seconds"] * o["scale"] for o in ops),
        "untraced_op_s": statistics.median(o["seconds"] * o["scale"] for o in untraced),
    }
    metrics = layertrace.layer_metrics(tracer, available, run)
    lines = [f"{k} {m['value']!r} {m['unit']}" + (f" ({m['reason']})" if "reason" in m else "")
             for k, m in metrics.items()]
    lines.append(f"traced ops {len(ops)}, untraced ops {len(untraced)}")
    tracer.dump(trace_path)
    lines.append(f"spans written to {trace_path.relative_to(ROOT)}")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small grids and few steps, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "scalepde" / "__init__.py").is_file():
        print(f"perfbench: no scalepde sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # made before the FFT counter is installed, so its transforms are not counted
    start = time.perf_counter()
    calibrate = speed.Calibrator()
    calibrator_s = time.perf_counter() - start

    tracer = None
    if args.trace:
        tracer = layertrace.Tracer()
        tracer.install_fft_counter(numpy.fft)
    cli = importlib.import_module("scalepde.cli")
    import_s = time.perf_counter() - IMPORT_START - calibrator_s
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported scalepde from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    available = set()
    if tracer is not None:
        tracer.patch_package()
        available = set(tracer.wrapped)
        grid = sys.modules["scalepde.grid"]
        if hasattr(grid, "Field"):
            tracer.install_field_counter(grid.Field)
            available.add("grid.Field")

    reference = None if args.tiny else workloads.load_reference()
    harness = Harness(cli, args.workload, args.seed, reference, calibrate)
    import_s *= speed.REFERENCE_S / harness.last_calibration
    workdir = OUT_ROOT / f"work-{os.getpid()}"
    try:
        wl, setup_times = setup(harness, workdir, args.tiny)
        if tracer is None:
            ops = harness.loop(wl, args.seconds)
            metrics, lines = end_to_end(harness, wl, ops, import_s, setup_times)
        else:
            trace_path = OUT_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, lines = traced(harness, wl, tracer, available, args.seconds, trace_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    for line in lines:
        print(line)
    for failure in harness.failures[:20]:
        print("FAILED " + failure)
    print(json.dumps({
        "correct": harness.failed == 0,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
