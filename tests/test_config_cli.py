"""Configuration schema and command-line behavior tests.

CLI runs happen in-process through main(argv) so exit codes and printed
check lines are asserted directly.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from kerrspin.cli import main
from kerrspin.config import (
    ConfigError,
    defaults,
    echo,
    load_config_file,
    parse_set_value,
    resolve,
    schema_document,
)
from kerrspin.scenarios import run_scenario


class TestDefaultsAndPrecedence:
    def test_defaults_resolve_cleanly(self):
        cfg = resolve("rabi")
        assert cfg.scenario == "rabi"
        assert cfg["dissipation.kappa_m"] == 1.0e6
        assert cfg["dissipation.gamma_q"] == 1.0e3
        assert cfg["battery.fock_levels"] == [1, 5]
        assert cfg["dispersive.ratios"] == [5.0, 10.0, 20.0]
        assert cfg["run.cutoff"] is None
        assert cfg["run.from_device"] is False

    def test_defaults_returns_copies(self):
        d1 = defaults()
        d1["battery.fock_levels"].append(99)
        assert defaults()["battery.fock_levels"] == [1, 5]

    def test_precedence_file_set_flags(self):
        cfg = resolve(
            "rabi",
            file_values={"dissipation.kappa_m": 5.0e5, "run.step_scale": 0.2},
            set_pairs=[("dissipation.kappa_m", 7.0e5), ("run.cutoff", 9)],
            flag_values={"run.cutoff": 12, "run.from_device": None},
        )
        # --set beats the file; dedicated flags beat --set; None flags are
        # skipped so they never clobber earlier sources.
        assert cfg["dissipation.kappa_m"] == 7.0e5
        assert cfg["run.step_scale"] == 0.2
        assert cfg["run.cutoff"] == 12
        assert cfg["run.from_device"] is False

    def test_unknown_key_names_path_and_origin(self):
        with pytest.raises(ConfigError, match=r"nope\.key"):
            resolve("rabi", set_pairs=[("nope.key", 1)])
        with pytest.raises(ConfigError, match="config file"):
            resolve("rabi", file_values={"nope.key": 1})

    def test_negative_kappa_names_key(self):
        with pytest.raises(ConfigError, match=r"dissipation\.kappa_m"):
            resolve("rabi", set_pairs=[("dissipation.kappa_m", -1.0)])

    def test_type_checks(self):
        with pytest.raises(ConfigError):
            resolve("rabi", set_pairs=[("dissipation.kappa_m", True)])
        with pytest.raises(ConfigError):
            resolve("rabi", set_pairs=[("run.cutoff", 2.5)])
        with pytest.raises(ConfigError):
            resolve("rabi", set_pairs=[("run.from_device", 1)])
        with pytest.raises(ConfigError):
            resolve("rabi", set_pairs=[("battery.fock_levels", ["x"])])
        # Integers are acceptable where floats are expected.
        cfg = resolve("rabi", set_pairs=[("dissipation.kappa_m", 2)])
        assert cfg["dissipation.kappa_m"] == 2.0
        assert isinstance(cfg["dissipation.kappa_m"], float)

    def test_range_checks(self):
        for key, bad in (
            ("run.step_scale", 0.0),
            ("run.step_scale", 1.5),
            ("sweep.radius_points", 1),
            ("battery.fock_levels", [0]),
            ("battery.fock_levels", []),
            ("dispersive.ratios", [-1.0]),
            ("device.calibration", "bogus"),
            ("convention.sign", "bogus"),
            # json.loads accepts NaN, Infinity and integers beyond float range.
            ("run.step", math.nan),
            ("dissipation.gamma_q", math.inf),
            ("frame.coupling_hz", 10**400),
            ("dispersive.ratios", [1.0, -math.inf]),
            # The sweep's grids and CSVs grow with its point counts.
            ("sweep.radius_points", 100_000_000),
            ("sweep.distance_points", 1_000_001),
        ):
            with pytest.raises(ConfigError):
                resolve("rabi", set_pairs=[(key, bad)])


class TestUnits:
    def test_hz_keys_scale_by_two_pi(self):
        cfg = resolve("rabi")
        assert cfg.angular("drive.detuning_hz") == pytest.approx(
            2.0 * math.pi * 2.0e8, rel=1e-15
        )

    def test_angular_mode_passthrough(self):
        cfg = resolve("rabi", set_pairs=[("frame.angular", True)])
        assert cfg.angular("drive.detuning_hz") == pytest.approx(2.0e8, rel=1e-15)

    def test_dissipation_rates_never_scaled(self):
        # Decay inputs are plain 1/s; resolve must not touch them.
        cfg = resolve("rabi", set_pairs=[("dissipation.kappa_m", 3.0e5)])
        assert cfg["dissipation.kappa_m"] == 3.0e5

    def test_angular_of_unset_key(self):
        cfg = resolve("rabi")
        assert cfg.angular_or_none("frame.coupling_hz") is None
        with pytest.raises(ConfigError):
            cfg.angular("frame.coupling_hz")


class TestConfigFiles:
    def test_nested_sections(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps({"dissipation": {"kappa_m": 2.5e5}, "run": {"step_scale": 0.5}})
        )
        values = load_config_file(path)
        assert values == {"dissipation.kappa_m": 2.5e5, "run.step_scale": 0.5}
        cfg = resolve("rabi", file_values=values)
        assert cfg["dissipation.kappa_m"] == 2.5e5

    def test_flat_dotted_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dissipation.kappa_m": 2.5e5}))
        assert load_config_file(path) == {"dissipation.kappa_m": 2.5e5}

    def test_bad_files(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config_file(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config_file(bad)
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config_file(arr)

    def test_params_roundtrip(self, tmp_path):
        # params.json emitted by a run re-parses into an identical RunConfig.
        cfg = resolve("coupling-sweep", set_pairs=[("sweep.radius_points", 21)])
        out = tmp_path / "run"
        run_scenario("coupling-sweep", cfg, out)
        reloaded = load_config_file(out / "params.json")
        cfg2 = resolve("coupling-sweep", file_values=reloaded)
        assert cfg2.values == cfg.values
        assert cfg2.scenario == cfg.scenario

    def test_parse_set_value(self):
        assert parse_set_value("2.5") == 2.5
        assert parse_set_value("true") is True
        assert parse_set_value("null") is None
        assert parse_set_value("[1, 2]") == [1, 2]
        assert parse_set_value('"anchored"') == "anchored"
        assert parse_set_value("anchored") == "anchored"
        # Past Python's int digit limit, or nested past the parser's stack.
        for text in ("9" * 5000, "[" * 100000):
            assert parse_set_value(text) == text


class TestSchema:
    def test_document_covers_all_fields(self):
        doc = schema_document()
        keys = doc["fields"] if "fields" in doc else doc
        assert "dissipation.kappa_m" in keys
        assert "run.cutoff" in keys

    def test_shipped_schema_file_is_current(self):
        repo_root = Path(__file__).resolve().parents[1]
        shipped = json.loads((repo_root / "config_schema.json").read_text())
        assert shipped == schema_document()


class TestCli:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_list_scenarios(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        ids = [line.split()[0] for line in out.splitlines() if line and not line.startswith(" ")]
        assert len(ids) == 6
        assert "rabi" in ids
        assert "iswap-fidelity" in ids

    def test_schema_subcommand(self, capsys):
        assert main(["schema"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == schema_document()

    def test_validate_good_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dissipation.kappa_m": 2.5e5}))
        assert main(["validate", str(path)]) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["dissipation.kappa_m"] == 2.5e5

    def test_validate_bad_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"nope.key": 1}))
        assert main(["validate", str(path)]) == 2
        assert "nope.key" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize(
        "case", ["directory", "non-ascii", "deep-nesting", "long-integer", "long-path"]
    )
    def test_unreadable_config_exit_two(self, case, command, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        if case == "long-path":
            # A directory whose path's repr is past echo's 80 characters.
            path = tmp_path / ("p" * 100) / "cfg.json"
            path.mkdir(parents=True)
        elif case == "directory":
            path.mkdir()
        elif case == "non-ascii":
            path.write_bytes('{"run.out_dir": "pap\u00e9r"}'.encode())
        elif case == "deep-nesting":
            path.write_text("[" * 100000)
        else:
            path.write_text('{"run.cutoff": ' + "9" * 5000 + "}")
        argv = ["run", "rabi", "--config", str(path)] if command == "run" else [command, str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        # The path as echo shows it: whole up to 80 characters, else capped.
        assert echo(str(path)) in err
        if case == "long-path":
            assert str(path) not in err and "characters)" in err

    @pytest.mark.parametrize(
        "value", ["9" * 5000, "[" * 100000], ids=["long-integer", "deep-nesting"]
    )
    def test_unparsable_set_value_exit_two(self, value, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "rabi", "--set", f"run.cutoff={value}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: run.cutoff must be an integer") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "case", ["set-value", "unknown-key", "file-value", "config-path", "out-path"]
    )
    def test_long_input_echo_capped(self, case, tmp_path):
        # The console script, whose stack is as shallow as a user's: a
        # 960-deep list then parses and reaches the integer check. The
        # message echoes a long input's first 60 characters and its
        # length, not the whole input; a 100000-character path is refused
        # as too long a name.
        key, args = "run.cutoff", ["--out", str(tmp_path)]
        if case in ("config-path", "out-path"):
            key = str(tmp_path / ("p" * 100000))
            args = ["--config" if case == "config-path" else "--out", key]
        elif case == "set-value":
            args += ["--set", f"{key}=" + "[" * 100000]
        elif case == "unknown-key":
            key = "k" * 100000
            args += ["--set", f"{key}=1"]
        else:
            path = tmp_path / "cfg.json"
            path.write_text('{"run.cutoff": ' + "[" * 960 + "]" * 960 + "}")
            args += ["--config", str(path)]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "kerrspin.cli", "run", "rabi", *args],
            capture_output=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1
        assert len(proc.stderr) <= 300
        assert key[:50].encode() in proc.stderr

    def test_echo_caps_reprs_past_80_characters(self):
        assert echo("x" * 78) == repr("x" * 78)
        assert echo([1.5, 2]) == str([1.5, 2])
        assert echo("x" * 79) == "'" + "x" * 59 + "... (81 characters)"

    @pytest.mark.parametrize("how", ["flag", "set", "env"])
    def test_output_root_that_is_a_file_exit_two(self, how, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("KERRSPIN_OUT", raising=False)
        root = tmp_path / "root"
        root.write_text("")
        argv = ["run", "coupling-sweep"]
        if how == "flag":
            argv += ["--out", str(root)]
        elif how == "set":
            argv += ["--set", f"run.out_dir={root}"]
        else:
            monkeypatch.setenv("KERRSPIN_OUT", str(root))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write artifacts under {echo(str(root))}: ")
        assert err.count("\n") == 1
        assert root.read_text() == ""

    def test_run_default_root_and_artifacts(self, tmp_path, monkeypatch, capsys):
        # No --out and no env var: artifacts land under ./runs/<scenario>.
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("KERRSPIN_OUT", raising=False)
        assert main(["run", "rabi"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "rabi: PASS" in out
        assert (tmp_path / "runs" / "rabi" / "trajectory.csv").is_file()
        assert (tmp_path / "runs" / "rabi" / "report.json").is_file()

    def test_env_var_output_root(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("KERRSPIN_OUT", str(tmp_path / "envroot"))
        assert main(["run", "coupling-sweep"]) == 0
        assert (tmp_path / "envroot" / "coupling-sweep" / "sweep_radius.csv").is_file()

    def test_out_flag_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("KERRSPIN_OUT", str(tmp_path / "envroot"))
        assert main(["run", "coupling-sweep", "--out", str(tmp_path / "flagroot")]) == 0
        assert (tmp_path / "flagroot" / "coupling-sweep" / "sweep_radius.csv").is_file()
        assert not (tmp_path / "envroot").exists()

    def test_unknown_scenario_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "unknown-thing"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_set_syntax(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "rabi", "--set", "no-equals-sign"]) == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_unknown_set_key(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "rabi", "--set", "nope.key=1"]) == 2
        assert "nope.key" in capsys.readouterr().err

    def test_bad_set_value(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "rabi", "--set", "dissipation.kappa_m=-5"]) == 2
        assert "dissipation.kappa_m" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario, setting",
        [("rabi", "frame.coupling_hz=NaN"), ("state-transfer", "dissipation.kappa_m=Infinity")],
    )
    def test_non_finite_set_value_exit_two(self, scenario, setting, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run", scenario, "--set", setting]) == 2
        err = capsys.readouterr().err
        assert setting.split("=")[0] in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "scenario, settings, field",
        [
            ("state-transfer", ["frame.delta_minus_hz=0"], "frame.delta_minus_hz"),
            ("iswap-fidelity", ["frame.delta_minus_hz=0"], "frame.delta_minus_hz"),
            ("rabi", ["frame.delta_s_hz=0", "frame.delta_q_hz=0"], "frame.delta_s_hz"),
            # A time scale pi/(2 G) or pi/(2 |G_eff|) that is not finite and positive.
            ("state-transfer", ["frame.coupling_hz=1e-300"], "frame.coupling_hz"),
            ("iswap-fidelity", ["frame.coupling_hz=1e-300"], "frame.coupling_hz"),
            ("state-transfer", ["frame.coupling_hz=1e300"], "frame.coupling_hz"),
            ("iswap-fidelity", ["frame.coupling_hz=1e300"], "frame.coupling_hz"),
            ("dispersive-check", ["frame.coupling_hz=1e300"], "frame.coupling_hz"),
            ("dispersive-check", ["frame.coupling_hz=1e-300"], "frame.coupling_hz"),
            ("rabi", ["frame.coupling_hz=1e-320"], "frame.coupling_hz"),
            ("battery", ["frame.coupling_hz=1e-320"], "frame.coupling_hz"),
            # A transfer time that spans more gap periods than a float counts.
            ("state-transfer", ["frame.delta_minus_hz=1e300"], "frame.delta_minus_hz"),
            # Ratios that repeat (or share a label), or whose gap rounds away.
            ("dispersive-check", ["dispersive.ratios=[5,5]"], "dispersive.ratios"),
            ("dispersive-check", ["dispersive.ratios=[5,20,20]"], "dispersive.ratios"),
            ("dispersive-check", ["dispersive.ratios=[5,5.0000001]"], "dispersive.ratios"),
            ("dispersive-check", ["dispersive.ratios=[1e-300,10]"], "dispersive.ratios"),
            ("dispersive-check", ["dispersive.ratios=[1e-300,1e300]"], "dispersive.ratios"),
            # --from-device: a derived rate, or a square the drive cubic needs, overflows.
            ("rabi", ["--from-device", "device.radius_m=1e-300"], "device.radius_m"),
            ("rabi", ["--from-device", "device.radius_m=1e-100"], "device.radius_m"),
            ("rabi", ["--from-device", "device.radius_m=1e100"], "device.radius_m"),
            ("rabi", ["--from-device", "device.distance_m=1e300"], "device.distance_m"),
            ("rabi", ["--from-device", "drive.detuning_hz=1e300"], "drive.detuning_hz"),
            ("state-transfer", ["--from-device", "device.radius_m=1e-300"], "device.radius_m"),
            ("battery", ["--from-device", "device.bias_t=1e300"], "device.bias_t"),
            # --from-device: the derived coupling or gap sets a time scale
            # out of range; the device and drive keys behind it are named.
            ("rabi", ["--from-device", "device.distance_m=1e100"],
             "device.radius_m or device.distance_m:"),
            ("state-transfer", ["--from-device", "device.omega_q_hz=1e300"],
             "device.omega_q_hz, device.bias_t or drive.detuning_hz:"),
            ("iswap-fidelity", ["--from-device", "device.omega_q_hz=1e300"],
             "device.omega_q_hz, device.bias_t or drive.detuning_hz:"),
            # A coupling or spin detuning that puts ratio * G below delta_q's ulp.
            ("dispersive-check", ["frame.delta_q_hz=1e30"], "frame.delta_q_hz"),
            ("dispersive-check", ["--from-device", "device.distance_m=1e100"], "device.distance_m"),
            # A sweep edge past the float range makes a column inf, NaN or 0.
            ("coupling-sweep", ["sweep.radius_m=1e200"],
             "sweep.distance_max_m or sweep.radius_m out of range"),
            ("coupling-sweep", ["sweep.radius_max_m=1e200"],
             "sweep.radius_max_m or sweep.distance_m out of range"),
            ("coupling-sweep", ["sweep.radius_min_m=1e-200"],
             "sweep.radius_min_m, sweep.radius_max_m or sweep.distance_m out of range"),
            ("coupling-sweep", ["sweep.distance_m=1e200"],
             "sweep.radius_max_m or sweep.distance_m out of range"),
            ("coupling-sweep", ["sweep.distance_max_m=1e200"],
             "sweep.distance_min_m, sweep.distance_max_m or sweep.radius_m out of range"),
            # A reversed or empty scan range.
            ("coupling-sweep", ["sweep.radius_min_m=2e-7", "sweep.radius_max_m=2e-9"],
             "sweep.radius_min_m must be below sweep.radius_max_m"),
            ("coupling-sweep", ["sweep.distance_min_m=1e-6", "sweep.distance_max_m=1e-6"],
             "sweep.distance_min_m must be below sweep.distance_max_m"),
            # Fock levels with fewer than two distinct entries, or a repeat.
            ("battery", ["battery.fock_levels=[1]"], "battery.fock_levels"),
            ("battery", ["battery.fock_levels=[1,1]"], "battery.fock_levels"),
            ("battery", ["battery.fock_levels=[1,5,5]"], "battery.fock_levels"),
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_gap_exit_two(self, scenario, settings, field, tmp_path, monkeypatch, capsys):
        # Each scenario divides by its gap and needs a finite time scale and
        # finite device rates; a value it cannot use (a zero gap, or one
        # past the float range) must be refused up front, naming its key.
        monkeypatch.chdir(tmp_path)
        argv = ["run", scenario]
        for setting in settings:
            argv += [setting] if setting.startswith("--") else ["--set", setting]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "setting, field",
        [
            ("frame.coupling_hz=1e300", "frame.coupling_hz:"),
            ("frame.delta_q_hz=1e300", "frame.coupling_hz or frame.delta_q_hz:"),
        ],
    )
    def test_overflowing_battery_power_exit_two(self, setting, field, tmp_path):
        # energy / time overflowed in the power column; with RuntimeWarning
        # an error, as CI runs the console script, that was a traceback.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "kerrspin.cli", "run", "battery",
             "--set", setting, "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert field in proc.stderr
        assert "power scale" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "scenario, amplitude",
        [("rabi", "1e300"), ("state-transfer", "1e300"), ("battery", "1e200")],
    )
    def test_overflowing_drive_amplitude_exit_two(
        self, scenario, amplitude, tmp_path, monkeypatch, capsys
    ):
        # The driven steady state squares the angular amplitude; a square
        # past the float range must be refused where the frame is derived.
        monkeypatch.chdir(tmp_path)
        argv = ["run", scenario, "--from-device", "--set", f"drive.amplitude_hz={amplitude}"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "drive.amplitude_hz" in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scenario", ["state-transfer", "iswap-fidelity"])
    def test_overflowing_integration_exit_one(self, scenario, tmp_path, monkeypatch, capsys):
        # Spectral scale ~1e36: the propagator's squarings overflow, and the
        # non-finite states must trip a diagnostic rather than crash eigvalsh.
        # With RuntimeWarning an error, as CI runs the console script, the
        # overflow itself must not end the run.
        monkeypatch.chdir(tmp_path)
        argv = ["run", scenario, "--from-device", "--set", "drive.amplitude_hz=1e50"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "integration diagnostics failed: trace deviation nan" in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sweep_tiny_gap_edge_runs(self, tmp_path, monkeypatch, capsys):
        # A gap edge near the float floor still gives finite, nonzero columns,
        # but below an ulp of the radius d + R rounds to R, so the scan would
        # stop moving the spin: the gap grid is refused up front, naming its key.
        monkeypatch.chdir(tmp_path)
        assert main(["run", "coupling-sweep", "--set", "sweep.distance_min_m=1e-300"]) == 2
        err = capsys.readouterr().err
        assert "sweep.distance_min_m=1e-300 is too fine for sweep.radius_m" in err
        assert "Traceback" not in err
        assert not list(tmp_path.rglob("*.csv"))
        # One ulp of the default radius (3e-8 m) above 0 still resolves.
        monkeypatch.chdir(tmp_path)
        assert main(["run", "coupling-sweep", "--set", "sweep.distance_min_m=1e-20"]) == 0

    @pytest.mark.parametrize(
        "setting",
        [
            *(pytest.param(f"drive.amplitude_hz={a}", id=a) for a in ("1e25", "1e40", "1e153")),
            pytest.param("dissipation.gamma_q=1e308", id="gamma_q-1e308"),
            pytest.param("dissipation.kappa_m=1e308", id="kappa_m-1e308"),
        ],
    )
    @pytest.mark.parametrize("scenario", ["state-transfer", "iswap-fidelity"])
    def test_overflowing_integration_warnings_as_errors(self, scenario, setting, tmp_path):
        # The console script as CI runs it, with RuntimeWarning an error.
        # Each drive (from the device chain) breaks the integration. At 1e40
        # the squarings of both scenarios' sector propagators overflow, so
        # the states turn NaN; at 1e25, and at 1e153 in state-transfer, the
        # smaller sector products stay finite and the trace deviation is a
        # huge number. A finite rate of 1e308 overflows iswap-fidelity's
        # generator itself, so its states turn NaN; state-transfer's stay
        # finite, and at kappa 1e308 miss trace 1 by 5e-3, while at gamma
        # 1e308 the spins relax at once and the report's checks fail.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        device = ["--from-device"] if setting.startswith("drive.") else []
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "kerrspin.cli", "run", scenario,
             *device, "--set", setting, "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        if scenario == "state-transfer" and setting.startswith("dissipation.gamma_q"):
            assert "[FAIL] spin2-peak-full: observed=0" in proc.stdout
            return
        deviation = r"integration diagnostics failed: trace deviation (nan|\d\.\d{3}e[+-]\d+) exceeds"
        assert re.search(deviation, proc.stderr)
        if setting.endswith("1e40") or (scenario == "iswap-fidelity" and not device):
            assert "integration diagnostics failed: trace deviation nan" in proc.stderr
        if scenario == "state-transfer" and setting.startswith("dissipation.kappa_m"):
            assert "integration diagnostics failed: trace deviation 5.000e-03" in proc.stderr

    @pytest.mark.parametrize("amplitude", ["1e50", "1e100", "1e150", "1e153"])
    def test_uncharged_battery_exit_one(self, amplitude, tmp_path, monkeypatch, capsys):
        # delta_s ~ 2e35 rad/s against G ~ 6e3 rad/s: the first level never
        # charges, so its peak time and peak power are 0. The ratios over
        # them read NaN and fail; the report is still written.
        monkeypatch.chdir(tmp_path)
        argv = ["run", "battery", "--from-device", "--set", f"drive.amplitude_hz={amplitude}"]
        assert main(argv) == 1
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((tmp_path / "runs" / "battery" / "report.json").read_text())
        checks = {c["name"]: c for c in report["checks"]}
        for name in ("charge-time-speedup", "peak-power-ratio", "early-power-vanishes"):
            assert math.isnan(checks[name]["observed"])
            assert not checks[name]["passed"]

    def test_runtime_loads_only_stdlib_numpy_and_kerrspin(self, tmp_path):
        # NumPy is the only runtime dependency. Modules loaded before the
        # import (site hooks can load third-party ones) are not counted.
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "from kerrspin.cli import main\n"
            "code = main(['run', 'rabi', '--out', sys.argv[1]])\n"
            "print(code, *sorted({m.partition('.')[0] for m in set(sys.modules) - before}))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        code, *loaded = proc.stdout.split("\n")[-2].split()
        assert code == "0"
        assert {"kerrspin", "numpy"} <= set(loaded)
        allowed = set(sys.stdlib_module_names) | {"kerrspin", "numpy"}
        assert sorted(set(loaded) - allowed) == []

    def test_removed_bare_coupling_key_is_unknown(self, tmp_path, monkeypatch, capsys):
        # No code read frame.bare_coupling_hz; it left the schema.
        monkeypatch.chdir(tmp_path)
        assert main(["run", "rabi", "--set", "frame.bare_coupling_hz=5"]) == 2
        err = capsys.readouterr().err
        assert "unknown configuration key 'frame.bare_coupling_hz'" in err
        assert len(schema_document()["fields"]) == 30

    def test_failing_checks_exit_one(self, tmp_path, monkeypatch, capsys):
        # A detuned spin breaks the exchange contrast; the run completes,
        # reports FAIL lines, and exits 1.
        monkeypatch.chdir(tmp_path)
        code = main(["run", "rabi", "--set", "frame.delta_q_hz=8e7"])
        out = capsys.readouterr().out
        assert code == 1
        assert "[FAIL]" in out
        assert "rabi: FAIL" in out

    def test_instability_exit_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["run", "rabi", "--from-device", "--set", "drive.detuning_hz=-2e8"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "unstable" in err
        assert "stability margin" in err

    def test_oversized_step_exit_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["run", "state-transfer", "--step", "1.0"])
        assert code == 2
        assert "ceiling" in capsys.readouterr().err

    def test_config_flag_merges_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"run": {"out_dir": str(tmp_path / "fileroot")}}))
        assert main(["run", "coupling-sweep", "--config", str(path)]) == 0
        assert (tmp_path / "fileroot" / "coupling-sweep" / "report.json").is_file()
