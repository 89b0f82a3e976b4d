"""Configuration schema and command-line behavior tests.

CLI runs happen in-process through main(argv) so exit codes and printed
check lines are asserted directly.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kerrspin.cli import main
from kerrspin.config import (
    ConfigError,
    defaults,
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
        # so the scan runs. Below an ulp of the radius d + R rounds to R and
        # the coupling stops decreasing, which the monotonicity check reports.
        monkeypatch.chdir(tmp_path)
        assert main(["run", "coupling-sweep", "--set", "sweep.distance_min_m=1e-300"]) == 1
        failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
        assert [line.split(":")[0] for line in failed] == ["[FAIL] distance-monotonic-decay"]

    @pytest.mark.parametrize("amplitude", ["1e25", "1e153"])
    @pytest.mark.parametrize("scenario", ["state-transfer", "iswap-fidelity"])
    def test_overflowing_integration_warnings_as_errors(self, scenario, amplitude, tmp_path):
        # The console script as CI runs it, with RuntimeWarning an error.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "kerrspin.cli", "run", scenario,
             "--from-device", "--set", f"drive.amplitude_hz={amplitude}", "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert "integration diagnostics failed: trace deviation nan" in proc.stderr
        assert "Traceback" not in proc.stderr

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
