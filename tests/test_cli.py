"""CLI parsing, command behaviour, artifacts and exit codes."""

import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from scalepde import (
    ConfigError, Field, families, make_grid, parse_config, read_checkpoint, write_checkpoint,
)
from scalepde import cli
from scalepde.cli import COMMANDS, _measured_orders, config_hash, main


# bad scalar values
SCALAR_ROWS = [
    ("nodes=5", "nodes"),
    ('nodes="999"', "nodes"),
    ("nodes=[9,true]", "nodes"),
    ("nodes=[5]", "nodes"),
    ("nodes=[]", "nodes"),
    ("nodes=[17,9]", "nodes"),
    ("nodes=[9,9]", "nodes"),
    ("t_end=Infinity", "t_end"),
    ("output_interval=1.5", "output_interval"),
    ("seed=abc", "seed"),
    ("seed=-1", "seed"),
    ("n=true", "n must be an integer"),
    ("grid_size=abc", "grid_size"),
    ("dt=Infinity", "dt"),
    ("beta=[1] delta=0.1", "beta"),
    ("beta=1 delta=1e200", "beta * delta^2"),
]
# bad spec objects and the core without its dimension: the config shows
# them, so every command refuses them, whether or not psi is on
SPEC_ROWS = [
    ("initial_condition=3", "initial_condition"),
    ("initial_condition.amplitude=abc", "initial_condition.amplitude"),
    ("initial_condition.name=taylor_green initial_condition.amplitude=abc",
     "initial_condition.amplitude"),
    ("initial_condition.name=single_mode initial_condition.k=5", "initial_condition.k"),
    ("initial_condition.name=single_mode initial_condition.k=[0,0]", "initial_condition.k"),
    ("initial_condition.name=single_mode initial_condition.k=[1,99]", "initial_condition.k"),
    ("initial_condition.name=random_solenoidal initial_condition.kmax=abc",
     "initial_condition.kmax"),
    ("initial_condition.name=random_solenoidal initial_condition.kmax=0",
     "initial_condition.kmax"),
    ("initial_condition.name=bogus", "initial_condition.name"),
    ("psi.initial_condition.name=bogus", "psi.initial_condition.name"),
    ("psi.initial_condition.phase=1", "psi.initial_condition.phase"),
    ("psi.initial_condition.name=single_mode psi.initial_condition.k=[1,99]",
     "psi.initial_condition.k"),
    ("psi.initial_condition.name=random_solenoidal psi.initial_condition.kmax=0",
     "psi.initial_condition.kmax"),
    ("psi.initial_condition.name=taylor_green psi.initial_condition.amplitude=abc",
     "psi.initial_condition.amplitude"),
    ("psi.enabled=true psi.forcing.name=checkpoint psi.forcing.path=5",
     "psi.forcing.path"),
    ("psi.forcing.name=checkpoint psi.forcing.path=5", "psi.forcing.path"),
    ("psi.forcing.name=bogus", "psi.forcing.name"),
    ("psi.forcing.name=checkpoint", "psi.forcing.path"),
    ("psi.forcing.name=checkpoint psi.forcing.path=f psi.forcing.scale=2",
     "psi.forcing.scale"),
    ("core=burgers n=2", "core"),
]
# bad values that evolve alone refuses: n = 1, and those only the built field shows
FIELD_ROWS = [
    ("initial_condition.name=taylor_green initial_condition.amplitude=1e308",
     "initial_condition.amplitude"),
    ("psi.enabled=true psi.initial_condition.name=taylor_green "
     "psi.initial_condition.amplitude=1e308", "psi.initial_condition.amplitude"),
    ("n=1 initial_condition.name=zero", "needs n = 2"),
]


def _assert_exits_2_naming(capsys, command, override, key):
    sets = [arg for item in override.split(" ") for arg in ("--set", item)]
    code = main([command, "--set", "grid_size=16"] + sets)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        config, raw = parse_config("")
        assert config.n == 2
        assert config.eta == pytest.approx(0.05)
        assert raw == {}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="viscosity"):
            parse_config('{"viscosity": 0.01}')

    def test_unknown_psi_key_rejected(self):
        with pytest.raises(ConfigError, match="psi keys"):
            parse_config('{"psi": {"strength": 2}}')

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="valid JSON"):
            parse_config("{not json}")

    def test_non_object(self):
        with pytest.raises(ConfigError, match="JSON object"):
            parse_config("[1, 2]")

    def test_beta_delta_scale(self):
        config, _ = parse_config('{"beta": 2.0, "delta": 0.1}')
        assert config.eta == pytest.approx(0.02)

    def test_beta_conflicts_with_eta(self):
        with pytest.raises(ConfigError, match="not both"):
            parse_config('{"beta": 2.0, "delta": 0.1, "eta": 0.05}')

    def test_beta_needs_delta(self):
        with pytest.raises(ConfigError, match="together"):
            parse_config('{"beta": 2.0}')

    def test_psi_block_flattening(self):
        config, _ = parse_config(
            '{"psi": {"enabled": true, "initial_condition": {"name": "single_mode"}}}'
        )
        assert config.psi_enabled is True
        assert config.psi_initial == {"name": "single_mode"}

    def test_psi_enabled_must_be_boolean(self):
        with pytest.raises(ConfigError, match="boolean"):
            parse_config('{"psi": {"enabled": 1}}')

    def test_overrides_dotted_paths(self):
        config, _ = parse_config(
            '{"t_end": 0.1}',
            ["t_end=0.2", "initial_condition.name=zero", "grid_size=32"],
        )
        assert config.t_end == pytest.approx(0.2)
        assert config.initial_condition == {"name": "zero"}
        assert config.grid_size == 32

    def test_dotted_override_extends_default(self):
        config, _ = parse_config(
            "",
            ["initial_condition.amplitude=2", "psi.forcing.path=f", "psi.forcing.name=checkpoint"],
        )
        assert config.initial_condition == {"name": "taylor_green", "amplitude": 2}
        assert config.psi_forcing == {"name": "checkpoint", "path": "f"}
        # an object the config gives is extended as given
        config, _ = parse_config(
            '{"initial_condition": {"name": "single_mode"}}', ["initial_condition.amplitude=2"]
        )
        assert config.initial_condition == {"name": "single_mode", "amplitude": 2}

    def test_override_needs_equals(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config("{}", ["t_end"])

    def test_validation_error_names_field(self):
        with pytest.raises(ConfigError, match="eta"):
            parse_config('{"eta": -0.1}')

    def test_nodes_from_list(self):
        config, _ = parse_config('{"nodes": [5, 9]}')
        assert config.nodes == (5, 9)

    def test_hash_is_stable(self):
        a, _ = parse_config('{"t_end": 0.1, "seed": 3}')
        b, _ = parse_config('{"seed": 3, "t_end": 0.1}')
        assert config_hash(a) == config_hash(b)

    def test_hash_covers_core_text(self):
        config, _ = parse_config("")
        plain = config_hash(config)
        assert config_hash(config, None) == plain
        one = config_hash(config, "u1_t + u1*u1_x1")
        two = config_hash(config, "u1_t + 3*u1_x1")
        assert len({plain, one, two}) == 3

    @pytest.mark.parametrize("override, key", SCALAR_ROWS + SPEC_ROWS + FIELD_ROWS)
    def test_bad_value_exits_2_naming_key(self, capsys, override, key):
        _assert_exits_2_naming(capsys, "evolve", override, key)

    @pytest.mark.parametrize("override, key", SPEC_ROWS)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_bad_spec_exits_2_on_every_command(self, capsys, command, override, key):
        _assert_exits_2_naming(capsys, command, override, key)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_grid_size_past_2048_exits_2_on_every_command(self, capsys, command):
        # refused before any grid is built, whose tables would fill memory
        _assert_exits_2_naming(
            capsys, command, "grid_size=2050", "grid_size must be even and in [4, 2048]"
        )

    def test_grid_size_2048_is_allowed(self):
        assert parse_config("", ["grid_size=2048"])[0].grid_size == 2048

    @pytest.mark.parametrize("command", ["residual-check", "closure-check", "duhamel-check"])
    def test_narrow_eta_range_exits_2_naming_epsilon_and_eta0(self, capsys, command):
        # closure-check's 33-node ladder would be spaced 3.1e-6, under the
        # rounding its uniformity check allows
        for key in ("epsilon=0.1", "eta0=0.1001", "K=33"):
            _assert_exits_2_naming(capsys, command, "epsilon=0.1 eta0=0.1001", key)

    def test_eta_range_is_refused_by_its_finest_ladder(self):
        # (0.15 - 0.05)/(K - 1) >= 1e-3 * 0.15 holds up to K = 667
        assert parse_config("", ["nodes=[5,667]"])[0].nodes == (5, 667)
        with pytest.raises(ConfigError, match="epsilon=0.05 and eta0=0.15 .* K=668 nodes"):
            parse_config("", ["nodes=[5,668]"])
        # (eta0 - 0.1)/32 >= 1e-3 * eta0 from eta0 = 0.1/0.968 = 0.10331 up
        assert parse_config("", ["epsilon=0.1", "eta0=0.1034"])[0].eta0 == 0.1034
        with pytest.raises(ConfigError, match="K=33 nodes"):
            parse_config("", ["epsilon=0.1", "eta0=0.1033"])

    @pytest.mark.parametrize("command", ["residual-check", "evolve", "filter-check"])
    def test_core_text_read_by_derive_source_only(self, tmp_path, capsys, command):
        out = tmp_path / "run"
        code = main([command, "--out", str(out), "--set", "core_text=u1_t + u1*u1_x1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "core_text" in err
        assert not out.exists()

    def test_core_text_must_be_text(self):
        with pytest.raises(ConfigError, match="core_text must be a string"):
            parse_config('{"core_text": 5}')


class TestDeriveSource:
    def test_burgers_output(self, capsys):
        code = main(["derive-source", "--set", "core=burgers", "--set", "n=1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "core: u1*u1_x1 + u1_t" in out
        assert "s = -2*u1_x1*u1_x1x1" in out
        assert "dF1/du1 = u1_x1" in out
        assert "dF1/du1_t = 1" in out

    def test_fluid_output(self, capsys):
        code = main(["derive-source"])
        out = capsys.readouterr().out
        assert code == 0
        source_line = next(l for l in out.splitlines() if l.startswith("s = "))
        assert "2*u1_x1*u1_x1x1" in source_line
        assert source_line.count(";") == 2
        assert source_line.endswith("; 0")

    def test_fluid_core_text_matches_named_core(self, capsys):
        from scalepde import fluid_core, format_expr

        assert main(["derive-source", "--set", "core=fluid"]) == 0
        named = capsys.readouterr().out
        text = format_expr(fluid_core(2))
        assert main(["derive-source", "--set", f"core_text={text}"]) == 0
        assert capsys.readouterr().out == named
        assert "s = " in named and "dF1/du1_x1 = u1" in named

    def test_linear_core_text(self, capsys):
        code = main(["derive-source", "--set", "core_text=u1_t + 3*u1_x1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "s = 0" in out

    def test_syntax_error_exit_code(self, capsys):
        code = main(["derive-source", "--set", "core_text=u1_zz"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_second_order_core_exits_2_naming_variable(self, capsys):
        code = main(["derive-source", "--set", "core_text=u1*u1_x1x1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: core must be first order, found u1_x1x1 (order 2)\n"

    @pytest.mark.parametrize(
        "text", ["2/0*u1", "u1 + 3/0", "(" * 400 + "u1" + ")" * 400]
    )
    def test_malformed_core_text_exits_2_naming_position(self, capsys, text):
        code = main(["derive-source", "--set", f"core_text={text}"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: line 1, column ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "text, column",
        [("u" + "1" * 5000, 1), ("u1*" + "1" * 5000, 4)],
        ids=["component", "coefficient"],
    )
    def test_over_long_number_exits_2_naming_position(self, capsys, text, column):
        code = main(["derive-source", "--set", f"core_text={text}"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: line 1, column {column}: ")
        assert "4300" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "text, column", [("u1_x" + "1" * 4000, 1), ("u1 +\n  u1_x3", 3)], ids=["huge", "x3"]
    )
    def test_spatial_index_past_2_exits_2_naming_position(self, capsys, text, column):
        code = main(["derive-source", "--set", f"core_text={text}"])
        err = capsys.readouterr().err
        assert code == 2
        line = text.count("\n") + 1
        assert err.startswith(f"error: line {line}, column {column}: ")
        assert "spatial axis beyond n=2" in err and len(err) < 200

    def test_huge_component_number(self, capsys):
        start = time.perf_counter()
        code = main(["derive-source", "--set", "core_text=u100000000000000000000_x1"])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert "  dF1/du100000000000000000000_x1 = 1" in capsys.readouterr().out


class TestFilterCheck:
    def test_passes_and_writes_report(self, tmp_path, capsys):
        out_dir = tmp_path / "filter"
        code = main(
            ["filter-check", "--out", str(out_dir), "--set", "grid_size=32"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "FAIL" not in out
        report = json.loads((out_dir / "report.json").read_text())
        assert report["passed"] is True
        assert report["config_hash"]

    def test_smallest_grid_keeps_divergence_free(self, tmp_path, capsys):
        # at size 4 the random velocity's kmax = 2 is the Nyquist wavenumber
        code = main(["filter-check", "--out", str(tmp_path), "--set", "grid_size=4"])
        capsys.readouterr()
        report = json.loads((tmp_path / "report.json").read_text())
        checks = {c["name"]: c for c in report["checks"]}
        assert code == 0 and checks["divergence_preservation"]["passed"]


class TestEvolveCommand:
    BASE = [
        "--set", "grid_size=32",
        "--set", "t_end=0.02",
        "--set", "closure=none",
        "--set", "output_interval=5",
    ]

    def test_artifacts_and_determinism(self, tmp_path, capsys):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["evolve", "--out", str(out1)] + self.BASE) == 0
        assert main(["evolve", "--out", str(out2)] + self.BASE) == 0
        capsys.readouterr()
        csv1 = (out1 / "diagnostics.csv").read_bytes()
        csv2 = (out2 / "diagnostics.csv").read_bytes()
        assert csv1 == csv2
        header = csv1.decode().splitlines()
        assert header[0].startswith("# config_hash=")
        assert header[1].split(",")[0] == "step"
        report = json.loads((out1 / "report.json").read_text())
        assert header[0] == f"# config_hash={report['config_hash']}"
        assert header[1] == (
            "step,t,energy,max_div_v,r_l2,r_max,psi_l2,psi_max,psi_sup,deviation_bound"
        )
        assert 0.0 < report["cfl_peak"] <= 0.4 * (1 + 1e-12)
        v, meta = read_checkpoint(out1 / "final_v.ckpt")
        assert meta["kind"] == "velocity"
        assert v.ncomp == 2 and np.isfinite(v.values).all()

    def test_seed_changes_random_run(self, tmp_path, capsys):
        extra = ["--set", "initial_condition.name=random_solenoidal"]
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["evolve", "--out", str(out1), "--seed", "1"] + self.BASE + extra) == 0
        assert main(["evolve", "--out", str(out2), "--seed", "2"] + self.BASE + extra) == 0
        capsys.readouterr()
        assert (out1 / "diagnostics.csv").read_text() != (out2 / "diagnostics.csv").read_text()

    def test_psi_checkpoint_written(self, tmp_path, capsys):
        out = tmp_path / "psi_run"
        code = main(
            ["evolve", "--out", str(out)]
            + self.BASE
            + ["--set", "psi.enabled=true", "--set", 'psi.initial_condition={"name": "single_mode"}']
        )
        capsys.readouterr()
        assert code == 0
        psi, meta = read_checkpoint(out / "final_psi.ckpt")
        assert meta["kind"] == "psi"
        assert np.max(np.abs(psi.values)) > 0

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        code = main(["evolve", "--out", str(tmp_path / "x"), "--set", "eta=-1"])
        assert code == 2
        assert "eta" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_exit_3_with_partial_csv(self, tmp_path, capsys):
        out = tmp_path / "blowup"
        code = main(
            [
                "evolve", "--out", str(out),
                "--set", "grid_size=32",
                "--set", "closure=none",
                "--set", "initial_condition.name=taylor_green",
                "--set", "initial_condition.amplitude=1e200",
                "--set", "dt=1e-210",
                "--set", "t_end=1e-210",
            ]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "diverged" in err
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert len(lines) >= 3  # hash, header, at least the initial record

    def test_overflow_diverges_without_warnings(self, tmp_path, capsys):
        out = tmp_path / "blowup"
        argv = ["evolve", "--out", str(out), "--set", "grid_size=16",
                "--set", "initial_condition.amplitude=1e200",
                "--set", "dt=1e-210", "--set", "t_end=1e-210"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert code == 3
        assert caught == []
        # the last record is the initial one: dt * 1e200 / (2 pi / 16)
        assert capsys.readouterr().err == (
            "diverged: non-finite values in v at step 1, t=1e-210; "
            "CFL number 2.55e-10 at the last record, step 0\n"
        )
        assert {f.name for f in out.iterdir()} == {"diagnostics.csv", "report.json"}

    @pytest.mark.parametrize(
        "override, named",
        [("initial_condition.amplitude=1e150", "initial_condition"), ("dt=1e-320", "dt=1e-320")],
    )
    def test_too_many_steps_exit_2(self, capsys, override, named):
        start = time.perf_counter()
        code = main(["evolve", "--set", "grid_size=16", "--set", override])
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert code == 2
        assert named in err and "t_end=0.1" in err and "at most 1000000" in err

    def test_truncated_forcing_exit_4(self, tmp_path, capsys):
        ckpt = tmp_path / "forcing.ckpt"
        write_checkpoint(ckpt, Field(make_grid(2, 32), np.zeros((2, 32, 32))))
        ckpt.write_bytes(ckpt.read_bytes()[:-13])
        forcing = json.dumps({"name": "checkpoint", "path": str(ckpt)})
        code = main(
            ["evolve"] + self.BASE
            + ["--set", "psi.enabled=true", "--set", f"psi.forcing={forcing}"]
        )
        assert code == 4
        assert "forcing.ckpt: truncated checkpoint" in capsys.readouterr().err

    def test_overflowing_forcing_exit_4_before_any_step(self, tmp_path, capsys):
        """Finite forcing values whose coefficients overflow are refused as a
        bad file, with no warning and before the first step or record."""
        ckpt = tmp_path / "forcing.ckpt"
        write_checkpoint(ckpt, families.taylor_green(make_grid(2, 16), amplitude=1e308))
        out = tmp_path / "run"
        code = main(["evolve", "--out", str(out)] + [
            arg for item in ("grid_size=16", "psi.enabled=true", "psi.forcing.name=checkpoint",
                             f"psi.forcing.path={ckpt}")
            for arg in ("--set", item)
        ])
        assert code == 4
        assert f"{ckpt}: psi forcing overflows when transformed" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_forcing_not_read_with_psi_off(self, tmp_path, capsys):
        missing = tmp_path / "nonexistent.ckpt"
        forcing = json.dumps({"name": "checkpoint", "path": str(missing)})
        argv = ["evolve", "--out", str(tmp_path / "run"), "--set", f"psi.forcing={forcing}"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--set", "psi.enabled=true"]) == 4
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, named",
        [
            ("initial_condition.name=taylor_green initial_condition.amplitude=1e308",
             "initial_condition.amplitude"),
            ("n=1 initial_condition.name=zero", "needs n = 2"),
            ("dt=0.03", "t_end"),
            ("core=burgers n=1", "fluid core"),
        ],
    )
    def test_refused_before_the_forcing_is_read(self, tmp_path, capsys, override, named):
        """A run the initial state or its step refuses exits 2, the forcing
        file unread."""
        missing = tmp_path / "nonexistent.ckpt"
        forcing = json.dumps({"name": "checkpoint", "path": str(missing)})
        sets = ["grid_size=16", "psi.enabled=true", f"psi.forcing={forcing}"] + override.split()
        code = main(["evolve", "--out", str(tmp_path / "run")] + [
            arg for item in sets for arg in ("--set", item)
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert named in err and str(missing) not in err

    def test_unwritable_out_exit_4(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("just a file")
        code = main(["evolve", "--out", str(blocker / "sub")] + self.BASE)
        assert code == 4
        assert "i/o error" in capsys.readouterr().err

    def test_amplitude_override_scales_default_energy(self, tmp_path, capsys):
        energies = []
        for extra in ([], ["--set", "initial_condition.amplitude=2"]):
            out = tmp_path / f"run{len(energies)}"
            assert main(["evolve", "--out", str(out)] + self.BASE + extra) == 0
            energies.append(json.loads((out / "report.json").read_text())["energy_initial"])
        capsys.readouterr()
        assert energies[1] == pytest.approx(4.0 * energies[0], rel=1e-12)

    def test_config_file_roundtrip(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"grid_size": 32, "t_end": 0.02, "closure": "none"}))
        out = tmp_path / "from_file"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["grid_size"] == 32

    def test_beta_delta_echo(self, capsys):
        code = main(
            ["evolve", "--set", "beta=5.0", "--set", "delta=0.1"] + self.BASE
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "eta = 0.05000000000000001 (from beta * delta^2)" in out


# per command: the overrides of a small run and the files it writes
ARTIFACTS = {
    "filter-check": ([], {"report.json"}),
    "derive-source": ([], {"report.json"}),
    "residual-check": ([], {"report.json", "defect_convergence.csv"}),
    "closure-check": ([], {"report.json", "closure_bound.csv"}),
    "duhamel-check": ([], {"report.json", "duhamel_convergence.csv"}),
    "evolve": (
        ["t_end=0.05", "psi.enabled=true"],
        {"report.json", "diagnostics.csv", "final_v.ckpt", "final_psi.ckpt"},
    ),
    "burgers-reference": (
        ["n=1", "core=burgers", "t_end=0.2"],
        {"report.json", "reference_norms.csv", "u_final.ckpt", "u_t_final.ckpt"},
    ),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_artifact_set_and_config_hash(tmp_path, capsys, command):
    overrides, files = ARTIFACTS[command]
    out = tmp_path / "run"
    argv = [command, "--out", str(out), "--set", "grid_size=16"]
    assert main(argv + [arg for o in overrides for arg in ("--set", o)]) == 0
    capsys.readouterr()
    assert {f.name for f in out.iterdir()} == files
    chash = json.loads((out / "report.json").read_text())["config_hash"]
    assert chash == config_hash(parse_config("", ["grid_size=16"] + overrides)[0])
    for name in files:
        if name.endswith(".csv"):
            assert (out / name).read_text().splitlines()[0] == f"# config_hash={chash}"
        elif name.endswith(".ckpt"):
            assert read_checkpoint(out / name)[1]["kind"]


class TestConvergenceOrders:
    def test_order_divides_by_the_ladder_ratio(self):
        assert _measured_orders([4.0, 1.0], (9, 17)) == [2.0]
        assert _measured_orders([16.0, 1.0], (9, 33)) == [2.0]
        orders = _measured_orders([8.0, 2.0, 0.0], (5, 9, 17))
        assert orders[0] == 2.0 and np.isnan(orders[1])

    @pytest.mark.parametrize("command", ["residual-check", "duhamel-check"])
    def test_quadrupled_ladder_reads_second_order(self, tmp_path, capsys, command):
        out = tmp_path / "run"
        code = main([command, "--out", str(out), "--set", "grid_size=32",
                     "--set", "nodes=[9,33]"])
        capsys.readouterr()
        assert code == 0
        assert abs(json.loads((out / "report.json").read_text())["final_order"] - 2.0) <= 0.05


class TestDuhamelCommand:
    def test_epsilon_below_coarsest_spacing_exits_2_before_any_ladder(
        self, tmp_path, capsys, monkeypatch
    ):
        built = []
        monkeypatch.setattr(
            families, "manufactured_scalar_2d_ladder", lambda *a, **k: built.append(a)
        )
        out = tmp_path / "run"
        # the K = 33 ladder alone would fit: its spacing is 0.0040625
        code = main(["duhamel-check", "--out", str(out), "--set", "grid_size=16",
                     "--set", "epsilon=0.02", "--set", "nodes=[5,33]"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: epsilon too small for the extended ladder")
        for named in ("epsilon=0.02", "eta0=0.15", "K=5", "(eta0 - epsilon)/(K - 1) = 0.0325"):
            assert named in err
        assert built == []
        assert not (out / "report.json").exists()

    def test_one_dimension_exits_2_before_any_grid(self, tmp_path, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "make_grid", lambda *a: built.append(a))
        out = tmp_path / "run"
        code = main(["duhamel-check", "--out", str(out), "--set", "n=1"])
        assert code == 2
        assert capsys.readouterr().err == "error: duhamel-check needs n = 2, got n=1\n"
        assert built == []
        assert not (out / "report.json").exists()

    def test_spectra_past_the_budget_exit_2_before_the_family(
        self, tmp_path, capsys, monkeypatch
    ):
        built = []
        monkeypatch.setattr(
            families, "manufactured_scalar_2d_ladder", lambda *a, **k: built.append(a)
        )
        out = tmp_path / "run"
        # 39 distinct nodes and psi's 33 of 2048 x 1025 values each
        code = main(["duhamel-check", "--out", str(out), "--set", "grid_size=2048"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: nodes=[9, 17, 33] on grid_size=2048 keep 72 half spectra")
        assert built == []
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("size", [32, 64, 128, 1024])
    def test_default_nodes_fit_the_budget(self, capsys, monkeypatch, size):
        # the benchmark's and the README's grids, and one far past them
        monkeypatch.setattr(cli, "_deviation_errors", lambda grid, ladders: ([4.0, 1.0, 0.25], 0.5))
        assert main(["duhamel-check", "--set", f"grid_size={size}"]) == 0
        capsys.readouterr()


class TestBurgersReferenceCommand:
    def test_artifacts(self, tmp_path, capsys):
        out = tmp_path / "ref"
        code = main(
            [
                "burgers-reference", "--out", str(out),
                "--set", "n=1", "--set", "grid_size=64",
                "--set", "core=burgers", "--set", "t_end=0.2",
            ]
        )
        capsys.readouterr()
        assert code == 0
        text = (out / "reference_norms.csv").read_text().splitlines()
        assert text[1] == "t,l2,max,max_ut"
        assert len(text) == 7  # hash + header + 5 snapshot rows
        u, _ = read_checkpoint(out / "u_final.ckpt")
        assert abs(u.t - 0.2) <= 1e-12

    def test_last_row_is_t_end(self, tmp_path, capsys):
        out, t_end = tmp_path / "ref", 0.123456789012345
        code = main(["burgers-reference", "--out", str(out), "--set", "n=1",
                     "--set", f"t_end={t_end}"])
        capsys.readouterr()
        assert code == 0
        rows = (out / "reference_norms.csv").read_text().splitlines()[2:]
        assert len(rows) == 5
        assert float(rows[-1].split(",")[0]) == t_end
        assert json.loads((out / "report.json").read_text())["times"][-1] == t_end

    def test_tiny_t_end_keeps_five_distinct_times(self, tmp_path, capsys):
        # quarter times rounded to 12 decimals would all be 0.0
        out, t_end = tmp_path / "ref", 1e-13
        code = main(["burgers-reference", "--out", str(out), "--set", "n=1",
                     "--set", f"t_end={t_end}"])
        capsys.readouterr()
        assert code == 0
        times = json.loads((out / "report.json").read_text())["times"]
        assert times == [j * t_end / 4.0 for j in range(4)] + [t_end]
        assert times == pytest.approx([0.0, 2.5e-14, 5e-14, 7.5e-14, 1e-13], rel=1e-15, abs=0.0)
        assert len(set(times)) == 5
        rows = (out / "reference_norms.csv").read_text().splitlines()[2:]
        assert [float(row.split(",")[0]) for row in rows] == times

    def test_unresolved_t_end_exits_2(self, tmp_path, capsys):
        out = tmp_path / "ref"
        code = main(["burgers-reference", "--out", str(out), "--set", "n=1",
                     "--set", "grid_size=64", "--set", "t_end=0.999"])
        err = capsys.readouterr().err
        assert code == 2
        assert "t_end=0.999" in err and "256 fine points" in err and "0.013" in err
        assert not (out / "report.json").exists()

    def test_non_finite_reference_exits_3(self, tmp_path, capsys, overflowing_rk4):
        # diverged, not the exit 2 of a non-finite Field made of the state
        out = tmp_path / "ref"
        code = main(["burgers-reference", "--out", str(out), "--set", "n=1",
                     "--set", "t_end=0.2"])
        assert code == 3
        assert capsys.readouterr().err == (
            "diverged: non-finite values in the Burgers reference at t=0.05\n"
        )
        assert not (out / "report.json").exists()

    def test_needs_one_dimension(self, capsys):
        code = main(["burgers-reference", "--set", "core=burgers"])
        assert code == 2
        assert "n = 1" in capsys.readouterr().err


class TestCommandLine:
    """One parser: the command is a positional choice, the options may come
    before or after it."""

    @pytest.mark.parametrize("argv", [[], ["--seed", "3"]], ids=["empty", "options-only"])
    def test_missing_command_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "command" in capsys.readouterr().err

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus-check", "--set", "grid_size=16"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus-check'" in err and "filter-check" in err

    def test_options_before_command(self, tmp_path, capsys):
        before, after = tmp_path / "before", tmp_path / "after"
        opts = ["--set", "grid_size=16", "--seed", "3"]
        assert main(["--out", str(before)] + opts + ["filter-check"]) == 0
        assert main(["filter-check", "--out", str(after)] + opts) == 0
        capsys.readouterr()
        report = (before / "report.json").read_text()
        assert report == (after / "report.json").read_text()
        assert json.loads(report)["grid"] == {"n": 2, "size": 16}


def test_module_entry_point_runs_without_warning():
    src = Path(__file__).resolve().parent.parent / "src"
    path = [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-m", "scalepde", "derive-source"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("core: ")
    assert "Warning" not in proc.stderr
