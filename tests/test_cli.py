"""CLI parsing, command behaviour, artifacts and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scalepde import ConfigError, Field, make_grid, parse_config, read_checkpoint, write_checkpoint
from scalepde.cli import config_hash, main


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

    @pytest.mark.parametrize(
        "override, key",
        [
            ("nodes=5", "nodes"),
            ('nodes="999"', "nodes"),
            ("nodes=[9,true]", "nodes"),
            ("t_end=Infinity", "t_end"),
            ("initial_condition=3", "initial_condition"),
            ("output_interval=1.5", "output_interval"),
            ("seed=abc", "seed"),
            ("seed=-1", "seed"),
            ("n=true", "n must be an integer"),
            ("grid_size=abc", "grid_size"),
            ("dt=Infinity", "dt"),
            ("initial_condition.name=taylor_green initial_condition.amplitude=abc",
             "initial_condition.amplitude"),
            ("initial_condition.name=taylor_green initial_condition.amplitude=1e308",
             "initial_condition.amplitude"),
            ("initial_condition.name=single_mode initial_condition.k=5", "initial_condition.k"),
            ("initial_condition.name=single_mode initial_condition.k=[0,0]", "initial_condition.k"),
            ("initial_condition.name=single_mode initial_condition.k=[1,99]", "initial_condition.k"),
            ("initial_condition.name=random_solenoidal initial_condition.kmax=abc",
             "initial_condition.kmax"),
            ("initial_condition.name=random_solenoidal initial_condition.kmax=0",
             "initial_condition.kmax"),
            ("n=1 initial_condition.name=single_mode", "initial_condition.name"),
            ("n=1 initial_condition.name=taylor_green", "initial_condition.name"),
            ("beta=[1] delta=0.1", "beta"),
            ("beta=1 delta=1e200", "beta * delta^2"),
            ("psi.enabled=true psi.forcing.name=checkpoint psi.forcing.path=5",
             "psi.forcing.path"),
        ],
    )
    def test_bad_value_exits_2_naming_key(self, capsys, override, key):
        sets = [arg for item in override.split(" ") for arg in ("--set", item)]
        code = main(["evolve", "--set", "grid_size=16"] + sets)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and key in err
        assert "Traceback" not in err


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

    def test_unwritable_out_exit_4(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("just a file")
        code = main(["evolve", "--out", str(blocker / "sub")] + self.BASE)
        assert code == 4
        assert "i/o error" in capsys.readouterr().err

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

    def test_needs_one_dimension(self, capsys):
        code = main(["burgers-reference", "--set", "core=burgers"])
        assert code == 2
        assert "n = 1" in capsys.readouterr().err


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
