"""Every configuration value takes one path: the schema's type check, then
its field's range rule. Pins each rule's refusal, the dedicated --cutoff
and --step flags' refusals, and a property test over the whole schema.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrspin.cli import main
from kerrspin.config import SCHEMA, ConfigError, resolve

# One failing value per field with a range rule, and its exact message.
RULE_REFUSALS = [
    ("run.cutoff", 1, "run.cutoff must be an integer >= 2, got 1"),
    ("run.step", 0.0, "run.step must be > 0, got 0.0"),
    ("run.step_scale", 1.5, "run.step_scale must be in (0, 1], got 1.5"),
    ("frame.coupling_hz", -1.0, "frame.coupling_hz must be > 0, got -1.0"),
    ("dissipation.kappa_m", -1.0, "dissipation.kappa_m must be >= 0, got -1.0"),
    ("dissipation.gamma_q", -1e-300, "dissipation.gamma_q must be >= 0, got -1e-300"),
    ("battery.fock_levels", [1, 0],
     "battery.fock_levels must be a non-empty list of integers >= 1, got [1, 0]"),
    ("dispersive.ratios", [5.0, 0.0],
     "dispersive.ratios must be a non-empty list of positive numbers, got [5.0, 0.0]"),
    ("sweep.radius_min_m", 0.0, "sweep.radius_min_m must be > 0, got 0.0"),
    ("sweep.radius_max_m", -2e-7, "sweep.radius_max_m must be > 0, got -2e-07"),
    ("sweep.radius_points", 1, "sweep.radius_points must be an integer from 2 to 1000000, got 1"),
    ("sweep.distance_min_m", -1.0, "sweep.distance_min_m must be > 0, got -1.0"),
    ("sweep.distance_max_m", 0, "sweep.distance_max_m must be > 0, got 0.0"),
    ("sweep.distance_points", 1000001,
     "sweep.distance_points must be an integer from 2 to 1000000, got 1000001"),
    ("sweep.distance_m", -6e-9, "sweep.distance_m must be > 0, got -6e-09"),
    ("sweep.radius_m", 0.0, "sweep.radius_m must be > 0, got 0.0"),
    ("device.radius_m", -3e-8, "device.radius_m must be > 0, got -3e-08"),
    ("device.distance_m", -1, "device.distance_m must be >= 0, got -1.0"),
    ("device.bias_t", -0.1, "device.bias_t must be >= 0, got -0.1"),
    ("device.omega_q_hz", 0.0, "device.omega_q_hz must be > 0, got 0.0"),
    ("device.calibration", "x",
     "device.calibration must be one of ('anchored', 'formula'), got 'x'"),
    ("drive.amplitude_hz", -7.2e10, "drive.amplitude_hz must be >= 0, got -72000000000.0"),
    ("convention.sign", "Paper",
     "convention.sign must be one of ('paper', 'rederived'), got 'Paper'"),
]


class TestRangeRules:
    @pytest.mark.parametrize("key, value, message", RULE_REFUSALS, ids=[c[0] for c in RULE_REFUSALS])
    def test_rule_refusal_message(self, key, value, message):
        with pytest.raises(ConfigError) as info:
            resolve("rabi", set_pairs=[(key, value)])
        assert str(info.value) == message

    def test_every_rule_is_pinned(self):
        ruled = {key for key, field in SCHEMA.items() if field.rule is not None}
        assert ruled == {key for key, _, _ in RULE_REFUSALS}
        assert len(ruled) == 23


class TestDedicatedFlags:
    @pytest.mark.parametrize(
        "flag, text, key",
        [
            ("--cutoff", "abc", "run.cutoff"),
            ("--cutoff", "7.5", "run.cutoff"),
            ("--step", "abc", "run.step"),
            ("--cutoff", "[" * 100000, "run.cutoff"),
            ("--step", "[" * 100000, "run.step"),
        ],
        ids=["cutoff-text", "cutoff-float", "step-text", "cutoff-long", "step-long"],
    )
    def test_bad_flag_refused_in_one_line(self, flag, text, key, tmp_path, monkeypatch, capsys):
        # Refused by the schema, as a bad --set value is: no usage block,
        # and a long value echoed capped.
        monkeypatch.chdir(tmp_path)
        assert main(["run", "rabi", flag, text]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1
        assert len(err.encode()) <= 300
        assert "usage:" not in err

    def test_flags_accept_what_int_and_float_parse(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "rabi", "--cutoff", "007", "--step", ".5", "--out", "out"]) == 0
        values = json.loads((tmp_path / "out" / "rabi" / "params.json").read_text())["values"]
        assert values["run.cutoff"] == 7 and values["run.step"] == 0.5


class TestGapKeys:
    @pytest.mark.parametrize("scenario", ["iswap-fidelity", "state-transfer"])
    def test_gap_rounded_away_by_delta_q_names_it(self, scenario, tmp_path, monkeypatch, capsys):
        # The gap delta_s = delta_q + 10 G rounds to delta_q = 1e300 Hz, so
        # the configured delta_q is named next to the gap's own key.
        monkeypatch.chdir(tmp_path)
        assert main(["run", scenario, "--set", "frame.delta_q_hz=1e300"]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: frame.delta_q_hz or frame.delta_minus_hz: the gap delta_s - delta_q is 0; "
            "this scenario divides by it\n"
        )

    def test_gap_message_without_delta_q(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "state-transfer", "--set", "frame.delta_minus_hz=0"]) == 2
        assert capsys.readouterr().err == (
            "error: frame.delta_minus_hz: the gap delta_s - delta_q is 0; this scenario divides by it\n"
        )


_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=200)
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.lists(children) | st.dictionaries(st.text(max_size=20), children),
    max_leaves=20,
)


class TestSchemaProperty:
    @settings(max_examples=300, deadline=None)
    @given(key=st.sampled_from(sorted(SCHEMA)), raw=_JSON_VALUES)
    def test_value_accepted_or_refused_in_one_line(self, key, raw):
        # No scenario runs: resolve alone accepts the value or refuses it
        # with one short line that starts with the key.
        try:
            cfg = resolve("rabi", set_pairs=[(key, raw)])
        except ConfigError as err:
            message = str(err)
            assert message.startswith(key)
            assert "\n" not in message and len(message.encode()) <= 300
        else:
            value = cfg[key]
            if isinstance(value, float):
                assert math.isfinite(value)
