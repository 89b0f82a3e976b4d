"""Scenario-level regression tests.

Each scenario runs once per session (see conftest) with default
configuration. The expected numbers below were frozen from the oracle
implementations before being wired into checks; they pin the default-run
behavior so refactors cannot silently move physics results.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from kerrspin import hamiltonians as ham
from kerrspin.config import ConfigError, resolve
from kerrspin.scenarios import (
    CONSERVATION_GATE_TOL,
    GATE_TOL,
    SCENARIOS,
    _gate_checks,
    _merge,
    _Run,
    list_scenarios,
    run_scenario,
)

TWO_PI = 2.0 * math.pi

ALL_IDS = (
    "coupling-sweep",
    "rabi",
    "battery",
    "state-transfer",
    "iswap-fidelity",
    "dispersive-check",
)


class TestRegistry:
    def test_all_scenarios_registered(self):
        assert tuple(SCENARIOS) == ALL_IDS

    def test_listing_matches_registry(self):
        listed = list_scenarios()
        assert [s.id for s in listed] == list(ALL_IDS)
        for s in listed:
            assert s.summary
            assert s.reference

    def test_unknown_scenario_raises(self, tmp_path):
        with pytest.raises(KeyError):
            run_scenario("unknown", resolve("rabi"), tmp_path)


class TestAllPass:
    @pytest.mark.parametrize("scenario_id", ALL_IDS)
    def test_default_run_passes(self, scenario_runs, scenario_id):
        run = scenario_runs[scenario_id]
        failed = [c.name for c in run.report.checks if not c.passed]
        assert run.report.passed, f"failed checks: {failed}"

    @pytest.mark.parametrize("scenario_id", ALL_IDS)
    def test_artifacts_written(self, scenario_runs, scenario_id):
        run = scenario_runs[scenario_id]
        assert (run.out_dir / "params.json").is_file()
        assert (run.out_dir / "report.json").is_file()
        csvs = list(run.out_dir.glob("*.csv"))
        assert csvs, "every scenario must emit at least one CSV artifact"

    @pytest.mark.parametrize("scenario_id", ALL_IDS)
    def test_provenance_tags_valid(self, scenario_runs, scenario_id):
        for c in scenario_runs[scenario_id].report.checks:
            assert c.provenance in ("PAPER", "DERIVED", "TRIVIAL")


class TestCouplingSweepValues:
    def test_anchor_values(self, scenario_runs):
        run = scenario_runs["coupling-sweep"]
        assert run.check("anchor-coupling-30nm").observed == pytest.approx(
            1504.4643653850387, rel=1e-9
        )
        assert run.check("anchor-coupling-50nm").observed == pytest.approx(860.0, rel=1e-12)
        assert run.check("anchor-kerr-50nm").observed == pytest.approx(128.0, rel=1e-12)
        assert run.check("anchor-coupling-30nm").provenance == "PAPER"

    def test_scaling_laws(self, scenario_runs):
        run = scenario_runs["coupling-sweep"]
        assert run.check("kerr-cube-law").observed < 1e-12
        assert run.check("kerr-cube-law").provenance == "TRIVIAL"
        assert run.check("kerr-bulk-extrapolation").observed == pytest.approx(
            1.28e-10, rel=1e-9
        )
        assert run.check("enhancement-identity-r0").observed <= 1e-15

    def test_enhanced_far_coupling(self, scenario_runs):
        run = scenario_runs["coupling-sweep"]
        assert run.check("enhanced-coupling-1um-r10").observed == pytest.approx(
            2533030.33, rel=1e-6
        )

    def test_geometry_extrema(self, scenario_runs):
        run = scenario_runs["coupling-sweep"]
        assert run.check("radius-interior-maximum").passed
        assert run.check("distance-monotonic-decay").passed
        # Grid argmax of the radius sweep sits within one geometric step
        # of the spin separation 6 nm.
        assert run.report.info["radius_at_peak_m"] == pytest.approx(
            5.97076524e-9, rel=1e-6
        )

    def test_artifact_files(self, scenario_runs):
        out = scenario_runs["coupling-sweep"].out_dir
        assert (out / "sweep_radius.csv").is_file()
        assert (out / "sweep_distance.csv").is_file()

    def test_calibration_gap_recorded(self, scenario_runs):
        gap = scenario_runs["coupling-sweep"].report.info["calibration_gap_ratio"]
        assert 3.0e3 < gap < 4.5e3

    def test_identity_r0_goes_through_squeeze_frame(self, tmp_path, monkeypatch):
        # A frame that forgets the half of G = (g/2) exp(r) must fail the
        # r = 0 identity, which compares squeeze_frame's coupling with
        # half the formula column.
        def unhalved(lin, g):
            return ham.SqueezedFrame(0.0, lin.delta_m, g)

        monkeypatch.setattr(ham, "squeeze_frame", unhalved)
        report = run_scenario("coupling-sweep", resolve("coupling-sweep"), tmp_path)
        check = next(c for c in report.checks if c.name == "enhancement-identity-r0")
        assert not check.passed
        assert check.observed == pytest.approx(0.5, rel=1e-12)


class TestRabiValues:
    def test_exchange_contrast(self, scenario_runs):
        run = scenario_runs["rabi"]
        assert run.check("exchange-contrast").observed == pytest.approx(
            0.996531793, rel=1e-6
        )

    def test_peak_time_near_half_period(self, scenario_runs):
        run = scenario_runs["rabi"]
        # Grid peak 6.234375e-8 s against the analytic 6.25e-8 s.
        assert run.check("first-peak-time").observed == pytest.approx(
            6.234375e-8, rel=1e-9
        )

    def test_manifold_retention(self, scenario_runs):
        run = scenario_runs["rabi"]
        assert run.check("manifold-retention").observed == pytest.approx(
            0.980460032, rel=1e-6
        )
        # Counter-rotating leakage bound 8 (G / (delta_s + delta_q))^2.
        assert run.report.info["manifold_leakage_bound"] == pytest.approx(
            8.0 / 400.0, rel=1e-12
        )

    def test_gates(self, scenario_runs):
        run = scenario_runs["rabi"]
        assert run.check("gate:step-refinement").observed <= 1e-12
        assert run.check("gate:cutoff-bump").observed <= 1e-6
        assert run.check("gate:norm-preservation").observed <= 1e-8


class TestBatteryValues:
    def test_full_charge(self, scenario_runs):
        run = scenario_runs["battery"]
        assert run.check("full-charge-first-level").observed == pytest.approx(
            1.0, abs=1e-9
        )

    def test_speedup_ratio(self, scenario_runs):
        run = scenario_runs["battery"]
        assert run.check("charge-time-speedup").observed == pytest.approx(
            0.447213597, rel=1e-6
        )
        assert abs(run.check("charge-time-speedup").observed / (1.0 / math.sqrt(5.0)) - 1.0) < 0.02

    def test_peak_power(self, scenario_runs):
        run = scenario_runs["battery"]
        assert run.check("peak-power-ratio").observed == pytest.approx(
            2.23606115, rel=1e-6
        )
        assert run.check("early-power-vanishes").observed == pytest.approx(
            0.00270972, rel=1e-4
        )

    def test_artifact_files(self, scenario_runs):
        out = scenario_runs["battery"].out_dir
        assert (out / "battery_m1.csv").is_file()
        assert (out / "battery_m5.csv").is_file()


class TestStateTransferValues:
    def test_transfer_peaks(self, scenario_runs):
        run = scenario_runs["state-transfer"]
        assert run.check("spin2-peak-full").observed == pytest.approx(
            0.948266726, rel=1e-6
        )
        assert run.check("spin2-peak-effective").observed == pytest.approx(
            0.996434941, rel=1e-6
        )
        assert run.check("peak-time-full").observed == pytest.approx(
            3.57584059e-6, rel=1e-6
        )

    def test_mode_occupancy(self, scenario_runs):
        run = scenario_runs["state-transfer"]
        # The two-spin effective model has no mode at all.
        assert run.check("mode-occupancy-effective").observed == 0.0
        assert run.check("mode-occupancy-full").observed == pytest.approx(
            0.0356077581, rel=1e-6
        )

    def test_dissipationless_agreement(self, scenario_runs):
        run = scenario_runs["state-transfer"]
        assert run.check("dissipationless-model-agreement").observed == pytest.approx(
            0.000980458372, rel=1e-6
        )

    def test_gates(self, scenario_runs):
        run = scenario_runs["state-transfer"]
        assert run.check("gate:step-refinement").observed <= 1e-6
        assert run.check("gate:cutoff-bump").observed <= 1e-6
        assert run.check("gate:trace-preservation").observed <= 1e-8


class TestIswapValues:
    def test_fidelity_checks(self, scenario_runs):
        run = scenario_runs["iswap-fidelity"]
        assert run.check("dissipationless-fidelity").observed == pytest.approx(
            1.0, abs=1e-9
        )
        assert run.check("stripped-peak-effective").observed == pytest.approx(
            0.997149224, rel=1e-6
        )
        assert run.check("stripped-peak-time").observed == pytest.approx(
            3.57142857e-6, rel=1e-6
        )
        # Structural: the written two-spin channel has no mode operator,
        # so the mode decay rate cannot shift it.
        kappa2 = run.check("kappa-doubling-effective")
        assert kappa2.observed == 0.0
        assert kappa2.provenance == "TRIVIAL"

    def test_full_model_context(self, scenario_runs):
        info = scenario_runs["iswap-fidelity"].report.info
        assert info["stripped_peak_full"] == pytest.approx(0.9576894635006041, rel=1e-6)
        assert info["kappa_x2_peak_shift_full"] == pytest.approx(
            0.026875660845997684, rel=1e-4
        )
        assert info["dissipationless_full"] == pytest.approx(0.9992037177901001, rel=1e-8)
        assert info["gamma_x10_drop_effective"] == pytest.approx(
            0.024897720994144557, rel=1e-4
        )

    def test_transfer_fidelities(self, scenario_runs):
        info = scenario_runs["iswap-fidelity"].report.info
        assert info["transfer_fidelity_effective"] == pytest.approx(
            0.9964349413940312, rel=1e-6
        )
        assert info["transfer_fidelity_full"] == pytest.approx(
            0.9482034795945175, rel=1e-6
        )

    def test_effective_spin_phase(self, scenario_runs):
        info = scenario_runs["iswap-fidelity"].report.info
        # delta_q = 2G and delta_minus = 10G make omega_eff t* exactly 2 pi.
        assert info["effective_spin_phase_per_gate"] == pytest.approx(
            TWO_PI, rel=1e-12
        )

    def test_artifact_files(self, scenario_runs):
        out = scenario_runs["iswap-fidelity"].out_dir
        assert (out / "fidelity.csv").is_file()


class TestDispersiveValues:
    def test_deviation_values(self, scenario_runs):
        run = scenario_runs["dispersive-check"]
        assert run.check("deviation-at-mid-ratio").observed == pytest.approx(
            0.0490487274, rel=1e-6
        )
        assert run.check("deviation-shrink-ratio").observed == pytest.approx(
            3.87832053, rel=1e-6
        )
        assert run.check("deviation-at-top-ratio").observed == pytest.approx(
            0.0126468988, rel=1e-6
        )

    def test_small_coupling_limit(self, scenario_runs):
        run = scenario_runs["dispersive-check"]
        assert run.check("small-coupling-limit").observed == pytest.approx(
            3.65848209e-6, rel=1e-4
        )

    def test_shrink_is_roughly_quadratic(self, scenario_runs):
        info = scenario_runs["dispersive-check"].report.info
        assert 1.5 < info["shrink_exponent"] < 2.5

    def test_artifact_files(self, scenario_runs):
        out = scenario_runs["dispersive-check"].out_dir
        for tag in ("r5", "r10", "r20"):
            assert (out / f"dispersive_{tag}.csv").is_file()


class TestDeviceChain:
    def test_from_device_rabi_completes(self, tmp_path):
        # The full chain (geometry -> steady state -> frame) must run and
        # produce a stable squeezed frame; the bundled thresholds target
        # the default configured frames, so pass/fail is not asserted.
        cfg = resolve("rabi", set_pairs=[("run.from_device", True)])
        report = run_scenario("rabi", cfg, tmp_path / "from-device")
        frame = report.info["frame"]
        assert frame["squeezing"] > 0.0
        dev = frame["device"]
        assert dev["stability_margin"] > 0.0
        assert dev["enhancement_factor"] == pytest.approx(
            math.exp(frame["squeezing"]), rel=1e-12
        )
        assert dev["bare_coupling_hz"] == pytest.approx(1504.4643653850387, rel=1e-9)

    def test_device_frame_values(self):
        # Frozen from the chain oracle at default settings.
        from kerrspin.scenarios import _device_frame

        fs = _device_frame(resolve("rabi", set_pairs=[("run.from_device", True)]))
        assert fs.squeezing == pytest.approx(0.19729954, rel=1e-6)
        assert fs.info["device"]["steady_occupation"] == pytest.approx(
            507973.0755, rel=1e-6
        )
        assert fs.info["device"]["enhancement_factor"] == pytest.approx(
            1.21810886, rel=1e-6
        )
        assert fs.coupling / TWO_PI == pytest.approx(916.3007, rel=1e-6)
        # The device rates come from float arithmetic, bit for bit.
        assert fs.info["device"]["kerr_hz"] == 592.5925925925927
        assert fs.info["device"]["bare_coupling_hz"] == 1504.4643653850387


class TestConfigGuards:
    def test_conflicting_gap_keys(self, tmp_path):
        cfg = resolve(
            "rabi",
            set_pairs=[("frame.delta_s_hz", 4.0e7), ("frame.delta_minus_hz", 4.0e7)],
        )
        with pytest.raises(ConfigError):
            run_scenario("rabi", cfg, tmp_path / "conflict")

    def test_dispersive_forbids_gap_overrides(self, tmp_path):
        cfg = resolve("dispersive-check", set_pairs=[("frame.delta_s_hz", 4.0e7)])
        with pytest.raises(ConfigError):
            run_scenario("dispersive-check", cfg, tmp_path / "gap")

    def test_battery_cutoff_too_small(self, tmp_path):
        cfg = resolve("battery", set_pairs=[("run.cutoff", 4)])
        with pytest.raises(ConfigError):
            run_scenario("battery", cfg, tmp_path / "cutoff")

    def test_coupling_sweep_rejects_device_flag(self, tmp_path):
        cfg = resolve("coupling-sweep", set_pairs=[("run.from_device", True)])
        with pytest.raises(ConfigError):
            run_scenario("coupling-sweep", cfg, tmp_path / "sweep")


GATES = {
    conservation: [
        ("gate:step-refinement", "TRIVIAL"),
        ("gate:cutoff-bump", "TRIVIAL"),
        (f"gate:{conservation}", "TRIVIAL"),
    ]
    for conservation in ("norm-preservation", "trace-preservation")
}

# Per scenario: the (check, provenance) list in written order and the
# sorted top-level info keys of its default report.json.
REPORT_LAYOUT = {
    "coupling-sweep": (
        [
            ("anchor-coupling-30nm", "PAPER"),
            ("anchor-coupling-50nm", "PAPER"),
            ("anchor-kerr-50nm", "PAPER"),
            ("kerr-cube-law", "TRIVIAL"),
            ("kerr-bulk-extrapolation", "PAPER"),
            ("enhanced-coupling-1um-r10", "PAPER"),
            ("enhancement-identity-r0", "TRIVIAL"),
            ("radius-interior-maximum", "DERIVED"),
            ("distance-monotonic-decay", "TRIVIAL"),
        ],
        [
            "anchored_coupling_30nm_hz",
            "calibration_gap_ratio",
            "enhanced_coupling_1um_r10_hz",
            "kerr_bulk_hz",
            "radius_at_peak_m",
        ],
    ),
    "rabi": (
        [
            ("exchange-contrast", "DERIVED"),
            ("first-peak-time", "DERIVED"),
            ("manifold-retention", "DERIVED"),
            *GATES["norm-preservation"],
        ],
        [
            "advisories",
            "exchange_half_period_s",
            "frame",
            "integrator",
            "manifold_leakage_bound",
            "manifold_retention_oracle",
            "observed_peak_time_s",
        ],
    ),
    "battery": (
        [
            ("full-charge-first-level", "PAPER"),
            ("charge-time-speedup", "DERIVED"),
            ("peak-power-ratio", "DERIVED"),
            ("early-power-vanishes", "TRIVIAL"),
            *GATES["norm-preservation"],
        ],
        [
            "analytic_peak_times_s",
            "frame",
            "integrator",
            "peak_charges",
            "peak_powers_rad_per_s2",
            "peak_times_s",
        ],
    ),
    "state-transfer": (
        [
            ("spin2-peak-full", "DERIVED"),
            ("spin2-peak-effective", "DERIVED"),
            ("peak-time-full", "DERIVED"),
            ("mode-occupancy-effective", "TRIVIAL"),
            ("mode-occupancy-full", "DERIVED"),
            ("dissipationless-model-agreement", "DERIVED"),
            *GATES["trace-preservation"],
        ],
        [
            "advisories",
            "dissipation_peak_drop_full",
            "dissipationless_mode_max",
            "dissipationless_peak_effective",
            "dissipationless_peak_full",
            "effective_coupling_hz",
            "frame",
            "integrator",
            "mode_occupancy_bound",
            "observed_peak_time_s",
            "transfer_time_s",
        ],
    ),
    "iswap-fidelity": (
        [
            ("dissipationless-fidelity", "DERIVED"),
            ("stripped-peak-effective", "DERIVED"),
            ("stripped-peak-time", "DERIVED"),
            ("kappa-doubling-effective", "TRIVIAL"),
            *GATES["trace-preservation"],
        ],
        [
            "advisories",
            "dissipationless_full",
            "effective_coupling_hz",
            "effective_spin_phase_per_gate",
            "frame",
            "gamma_x10_drop_effective",
            "gamma_x10_peak_effective",
            "gate_time_s",
            "integrator",
            "kappa_x2_peak_shift_full",
            "peak_time_s",
            "raw_at_gate_time_effective",
            "strip_phases_at_peak",
            "stripped_peak_effective",
            "stripped_peak_full",
            "transfer_fidelity_effective",
            "transfer_fidelity_full",
        ],
    ),
    "dispersive-check": (
        [
            ("deviation-at-mid-ratio", "DERIVED"),
            ("deviation-shrink-ratio", "DERIVED"),
            ("deviation-at-top-ratio", "DERIVED"),
            ("small-coupling-limit", "TRIVIAL"),
            *GATES["norm-preservation"],
        ],
        ["deviations", "frame", "integrator", "shrink_exponent", "small_coupling_deviation"],
    ),
}


class TestReportLayout:
    """The written report.json of each default run: its own checks first
    and the three gates last, the top-level info keys (the frame and the
    integrator record in every dynamical scenario, advisories in exactly
    rabi, state-transfer and iswap-fidelity) and the registry's id."""

    @pytest.mark.parametrize("scenario_id", ALL_IDS)
    def test_written_layout(self, scenario_runs, scenario_id):
        report = json.loads((scenario_runs[scenario_id].out_dir / "report.json").read_text())
        checks, info_keys = REPORT_LAYOUT[scenario_id]
        assert report["scenario"] == SCENARIOS[scenario_id].id == scenario_id
        assert [(c["name"], c["provenance"]) for c in report["checks"]] == checks
        assert sorted(report["info"]) == info_keys


def synthetic_run(drift: float = 0.0, **cols) -> _Run:
    return _Run({key: np.asarray(col, dtype=float) for key, col in cols.items()}, drift, {})


class TestGateChecks:
    """The three integration gates of every dynamical scenario come from
    `_gate_checks`; synthetic runs pin what each gate reads."""

    def observed(self, main: _Run, fine: _Run, bumped: _Run) -> list[float]:
        return [c.observed for c in _gate_checks(main, fine, bumped, "norm-preservation")]

    def test_names_bounds_and_tags(self):
        run = synthetic_run(a=[0.0, 1.0])
        checks = _gate_checks(run, run, run, "trace-preservation")
        assert [c.name for c in checks] == [
            "gate:step-refinement",
            "gate:cutoff-bump",
            "gate:trace-preservation",
        ]
        assert [c.expected for c in checks] == ["<= 1e-06", "<= 1e-06", "<= 1e-08"]
        assert (GATE_TOL, CONSERVATION_GATE_TOL) == (1.0e-6, 1.0e-8)
        assert all(c.provenance == "TRIVIAL" for c in checks)
        assert all(c.passed for c in checks)

    def test_bounds_decide_pass(self):
        main = synthetic_run(2.0e-8, a=[0.0, 1.0])
        fine = synthetic_run(a=[0.0, 1.0 + 2.0e-6])
        bumped = synthetic_run(a=[0.0, 1.0 + 0.5e-6])
        step, cutoff, conservation = _gate_checks(main, fine, bumped, "norm-preservation")
        assert (step.passed, cutoff.passed, conservation.passed) == (False, True, False)

    def test_stride_one_worst_over_points_and_columns(self):
        main = synthetic_run(a=[0.0, 1.0, 2.0], b=[5.0, 5.0, 5.0])
        fine = synthetic_run(a=[0.0, 1.0, 2.5], b=[5.0, 4.0, 5.0])
        bumped = synthetic_run(a=[0.0, 1.25, 2.0], b=[5.0, 5.0, 5.125])
        assert self.observed(main, fine, bumped)[:2] == [1.0, 0.25]

    def test_stride_two_compares_at_main_grid_points(self):
        # 2N+1 = 5 refined points against N+1 = 3: the odd samples lie
        # between the main grid's points and are not compared.
        main = synthetic_run(a=[0.0, 1.0, 2.0])
        fine = synthetic_run(a=[0.0, 99.0, 1.5, -99.0, 2.0])
        assert self.observed(main, fine, main)[:2] == [0.5, 0.0]

    @pytest.mark.parametrize("n_rerun", [2, 4, 6, 7])
    def test_non_refining_grid_raises(self, n_rerun):
        main = synthetic_run(a=[0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="do not refine"):
            _gate_checks(main, synthetic_run(a=np.zeros(n_rerun)), main, "norm-preservation")
        with pytest.raises(ValueError, match="do not refine"):
            _gate_checks(main, main, synthetic_run(a=np.zeros(n_rerun)), "norm-preservation")

    def test_each_gate_reads_its_own_rerun(self):
        main = synthetic_run(a=[0.0, 1.0, 2.0])
        fine = synthetic_run(a=[0.0, 1.0, 2.0 + 3e-7])
        bumped = synthetic_run(a=[0.0, 1.0 + 5e-7, 2.0])
        assert self.observed(main, fine, bumped)[:2] == pytest.approx([3e-7, 5e-7], rel=1e-9)
        assert self.observed(main, bumped, fine)[:2] == pytest.approx([5e-7, 3e-7], rel=1e-9)

    @pytest.mark.parametrize("worst", [0, 1, 2])
    def test_conservation_is_max_of_three_drifts(self, worst):
        drifts = [1e-12, 2e-12, 3e-12]
        drifts[worst] = 4e-9
        main, fine, bumped = (synthetic_run(d, a=[0.0, 1.0]) for d in drifts)
        assert self.observed(main, fine, bumped)[2] == 4e-9

    def test_merge(self):
        merged = _merge(
            {
                "x": _Run({"a_x": np.zeros(2)}, 1e-12, {"dim": 4}),
                "y": _Run({"b_y": np.ones(2), "c_y": np.ones(2)}, 3e-12, {"dim": 8}),
            }
        )
        assert list(merged.cols) == ["a_x", "b_y", "c_y"]
        assert merged.drift == 3e-12
        assert merged.info == {"x": {"dim": 4}, "y": {"dim": 8}}
