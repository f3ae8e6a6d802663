"""Workload definitions, generated inputs and output checks.

Each workload is a fixed cycle of ``scalepde`` CLI invocations.  One pass
through the cycle is one op.  Inputs (JSON configs, the psi forcing
checkpoint, the derive-source core text) are generated from the seed by
this module, never by scalepde; the seed is also passed as ``--seed`` to
the commands that take one.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0

# Relative tolerances against the values recorded at the default seed.
# Evolve outputs are smooth functions of the state: a change of rounding
# (real transforms, the divergence form of the nonlinear term) moves them
# by ~1e-13, a change of result by far more than 1e-9.  The check commands
# report differences of nearly equal numbers (finite differences in eta),
# which amplify rounding to ~1e-8 relative; 1e-6 still rejects any change
# of result.
EVOLVE_RTOL = 1e-9
CHECK_RTOL = 1e-6
MAX_DIV_V = 1e-10

REFERENCE_FILE = Path(__file__).with_name("reference.json")
CHECKPOINT_MAGIC = b"SCALEPDE"

WORKLOADS = {
    "evolve_closure_256": (
        "FFT-bound RK4 stepping through sigma, fluid source, Helmholtz solve, "
        "advection and Leray at 256^2; heat and jets idle"
    ),
    "evolve_psi_64": (
        "64^2 closure=none with psi: advection 3x per stage, checkpoint read, "
        "per-step diagnostics and CSV rows, checkpoint writes"
    ),
    "scale_checks": (
        "verification commands: heat scale stacks and Duhamel, jet calculus, "
        "1-D Burgers reference; no 2-D evolve stepping"
    ),
}


@dataclass
class Command:
    """One CLI invocation inside a workload's cycle."""

    label: str
    name: str
    argv: list[str]
    out: Path
    seeded: bool  # the output depends on the seed
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    cycle: list[Command]
    steps_per_op: int


# ---- generated inputs --------------------------------------------------------


def write_checkpoint_file(path: Path, values: np.ndarray, n: int, size: int):
    """Write a field in scalepde's documented checkpoint layout."""
    header = {"components": values.shape[0], "eta": 0.0, "n": n, "size": size, "t": 0.0,
              "version": 1}
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def read_checkpoint_file(path: Path) -> tuple[dict, np.ndarray]:
    with open(path, "rb") as fh:
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path} is not a checkpoint")
        header = json.loads(fh.readline())
        data = np.frombuffer(fh.read(), dtype="<f8")
    shape = (header["components"],) + (header["size"],) * header["n"]
    return header, data.reshape(shape)


def norms(values: np.ndarray, n: int) -> tuple[float, float]:
    """(l2, max) with l2 the root-mean-square times the measure (2 pi)^n."""
    l2 = math.sqrt(float(np.mean(np.sum(values**2, axis=0)))) * (2 * math.pi) ** n
    return l2, float(np.max(np.abs(values)))


def forcing_values(seed: int, size: int, kmax: int = 3, amplitude: float = 0.5) -> np.ndarray:
    """Smooth random 2-component field on a size^2 grid, peak |e| = amplitude."""
    rng = np.random.default_rng(seed)
    x = 2 * math.pi * np.arange(size) / size
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    out = np.zeros((2, size, size))
    for c in range(2):
        for k1 in range(-kmax, kmax + 1):
            for k2 in range(0, kmax + 1):
                phase = k1 * x1 + k2 * x2
                a, b = rng.standard_normal(2)
                out[c] += a * np.cos(phase) + b * np.sin(phase)
    return out * (amplitude / np.max(np.abs(out)))


_CORE_FACTORS = ("u1", "u2", "u1_x1", "u1_x2", "u2_x1", "u2_x2")


def core_text(seed: int) -> str:
    """A two-component, first-order, multi-monomial core on a 2-D grid."""
    rng = random.Random(seed)
    comps = []
    for a in (1, 2):
        text = f"u{a}_t + u1*u{a}_x1 + u2*u{a}_x2"
        for _ in range(3):
            coeff = Fraction(rng.randint(1, 6), rng.randint(1, 3))
            factors = "*".join(rng.choice(_CORE_FACTORS) for _ in range(rng.randint(1, 3)))
            text += f" {rng.choice('+-')} {coeff}*{factors}"
        comps.append(text)
    return "; ".join(comps)


def _config(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def build(name: str, workdir: Path, seed: int, tiny: bool = False) -> Workload:
    """Write a workload's input files under ``workdir`` and return its cycle.

    ``tiny`` shrinks every grid and step count for the smoke test; its
    outputs are checked but not compared with the recorded values.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    cycle: list[Command] = []

    def add(label, cmd, config, seed_arg, seed_input=False, **expect):
        # seed_arg: the command takes --seed; seed_input: its config is made from the seed
        out = workdir / label.replace(" ", "_")
        argv = [cmd, "--config", str(_config(workdir / f"{out.name}.json", config)),
                "--out", str(out)]
        if seed_arg:
            argv += ["--seed", str(seed)]
        cycle.append(Command(label, cmd, argv, out, seed_arg or seed_input, expect))

    if name == "evolve_closure_256":
        size, steps, dt = (32, 2, 0.04) if tiny else (256, 3, 0.008)
        add("evolve", "evolve", {
            "grid_size": size, "closure": "helmholtz", "eta": 0.05,
            "initial_condition": {"name": "random_solenoidal"},
            "dt": dt, "t_end": steps * dt, "output_interval": steps,
        }, True, steps=steps, records=2, psi=False)
        return Workload(name, cycle, steps)
    if name == "evolve_psi_64":
        size, steps, dt = (16, 4, 0.05) if tiny else (64, 40, 0.02)
        forcing = workdir / "psi_forcing.ckpt"
        write_checkpoint_file(forcing, forcing_values(seed, size), 2, size)
        add("evolve", "evolve", {
            "grid_size": size, "closure": "none", "eta": 0.05,
            "initial_condition": {"name": "random_solenoidal"},
            "psi": {
                "enabled": True,
                "initial_condition": {"name": "random_solenoidal"},
                "forcing": {"name": "checkpoint", "path": str(forcing)},
            },
            "dt": dt, "t_end": steps * dt, "output_interval": 1,
        }, True, steps=steps, records=steps + 1, psi=True)
        return Workload(name, cycle, steps)
    if name == "scale_checks":
        size2, size1 = (32, 32) if tiny else (128, 64)
        add("filter-check", "filter-check", {"grid_size": size2}, True)
        add("derive-source", "derive-source", {"core_text": core_text(seed)}, False,
            seed_input=True)
        add("residual-check fluid", "residual-check",
            {"n": 2, "core": "fluid", "grid_size": size2}, False)
        add("residual-check burgers", "residual-check",
            {"n": 1, "core": "burgers", "grid_size": size1}, False)
        add("closure-check", "closure-check", {}, True)
        add("duhamel-check", "duhamel-check", {"grid_size": size2}, False)
        add("burgers-reference", "burgers-reference",
            {"n": 1, "grid_size": size1, "t_end": 0.5}, False)
        return Workload(name, cycle, 0)
    raise ValueError(f"unknown workload {name!r}")


# ---- output checks -----------------------------------------------------------


def _csv_rows(path: Path) -> int:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return len(lines) - 1


def check(cmd: Command, code) -> tuple[list[str], dict]:
    """Check one invocation's outputs; return (problems, observed values)."""
    if code != 0:
        return [f"exit code {code}"], {}
    problems: list[str] = []
    report = json.loads((cmd.out / "report.json").read_text())
    if "config_hash" not in report:
        problems.append("report.json has no config_hash")
    if "passed" in report and report["passed"] is not True:
        problems.append("report.json has passed != true")
    seen: dict = {}
    if cmd.name == "evolve":
        exp = cmd.expect
        if not report["max_div_v"] <= MAX_DIV_V:
            problems.append(f"max_div_v {report['max_div_v']!r} > {MAX_DIV_V}")
        if report["steps"] != exp["steps"]:
            problems.append(f"{report['steps']} steps, expected {exp['steps']}")
        records = _csv_rows(cmd.out / "diagnostics.csv")
        if records != exp["records"]:
            problems.append(f"{records} diagnostics rows, expected {exp['records']}")
        seen["records"] = records
        seen["energy_initial"] = report["energy_initial"]
        seen["energy_final"] = report["energy_final"]
        files = ["final_v"] + (["final_psi"] if exp["psi"] else [])
        for stem in files:
            header, values = read_checkpoint_file(cmd.out / f"{stem}.ckpt")
            seen[f"{stem}_l2"], seen[f"{stem}_max"] = norms(values, header["n"])
        if not all(math.isfinite(v) for k, v in seen.items() if k != "records"):
            problems.append("non-finite energy or checkpoint norm")
    elif cmd.name == "derive-source":
        seen["source"] = report["source"]
    elif cmd.name == "residual-check":
        seen["final_order"] = report["final_order"]
        seen["r_epsilon_max"] = report["r_epsilon_max"]
        for i, e in enumerate(report["max_e"]):
            seen[f"max_e_{i}"] = e
    elif cmd.name == "duhamel-check":
        seen["final_order"] = report["final_order"]
        seen["deviation_bound_margin"] = report["deviation_bound_margin"]
        for i, e in enumerate(report["errors"]):
            seen[f"error_{i}"] = e
    elif cmd.name == "burgers-reference":
        seen["final_max"] = report["final_max"]
        header, values = read_checkpoint_file(cmd.out / "u_final.ckpt")
        seen["u_final_l2"], seen["u_final_max"] = norms(values, header["n"])
    return problems, seen


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def compare(workload: str, cmd: Command, seen: dict, reference: dict) -> list[str]:
    """Differences from the values recorded for the default seed."""
    recorded = reference.get(workload, {}).get(cmd.label)
    if recorded is None:
        return [f"no recorded values for {workload}/{cmd.label}"]
    rtol = EVOLVE_RTOL if cmd.name == "evolve" else CHECK_RTOL
    problems = []
    for key, want in recorded.items():
        got = seen.get(key)
        if isinstance(want, (str, int)):
            ok = got == want
        else:
            ok = got is not None and abs(got - want) <= rtol * abs(want)
        if not ok:
            problems.append(f"{key} = {got!r}, recorded {want!r} (rtol {rtol:g})")
    return problems
