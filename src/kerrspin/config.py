"""Run configuration: schema, defaults, file/flag merging, validation.

Keys are dotted paths ("dissipation.kappa_m"). Precedence, lowest to
highest: built-in defaults, config file, --set overrides, dedicated CLI
flags. Unknown keys are rejected by full path. A value of None means
"scenario chooses its own default".

Frequency-like inputs carry an explicit unit in the key name: *_hz keys
are ordinary frequencies multiplied by 2*pi on use unless frame.angular
is true, in which case they are taken as angular rates directly. Decay
inputs (dissipation.*) are plain rates in 1/s and are never rescaled.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path


class ConfigError(ValueError):
    """Raised for unknown keys, bad types, or out-of-range values."""


def _non_negative(key: str, value: float) -> None:
    if value < 0:
        raise ConfigError(f"{key} must be >= 0, got {value}")


def _positive(key: str, value: float) -> None:
    if value <= 0:
        raise ConfigError(f"{key} must be > 0, got {value}")


def _unit_interval_open(key: str, value: float) -> None:
    if not 0 < value <= 1:
        raise ConfigError(f"{key} must be in (0, 1], got {value}")


def _positive_int(key: str, value: int) -> None:
    if value < 2:
        raise ConfigError(f"{key} must be an integer >= 2, got {value}")


MAX_SWEEP_POINTS = 1_000_000  # the sweep's grids, columns and CSVs grow with it


def _sweep_points(key: str, value: int) -> None:
    if not 2 <= value <= MAX_SWEEP_POINTS:
        raise ConfigError(f"{key} must be an integer from 2 to {MAX_SWEEP_POINTS}, got {value}")


def _choice(options: tuple[str, ...]):
    def check(key: str, value: str) -> None:
        if value not in options:
            raise ConfigError(f"{key} must be one of {options}, got {value!r}")

    return check


def _int_list(key: str, value: list) -> None:
    if not value or any((not isinstance(v, int)) or v < 1 for v in value):
        raise ConfigError(f"{key} must be a non-empty list of integers >= 1, got {value}")


def _float_list_positive(key: str, value: list) -> None:
    if not value or any(v <= 0 for v in value):
        raise ConfigError(f"{key} must be a non-empty list of positive numbers, got {value}")


@dataclass(frozen=True)
class FieldSpec:
    key: str
    kind: str  # "int", "float", "bool", "str", "int_list", "float_list", "optional_int", "optional_float", "optional_str"
    default: object
    help: str
    validator: object = None


_FIELDS = [
    FieldSpec("run.cutoff", "optional_int", None,
              "Bosonic mode truncation dimension; None lets each scenario pick", _positive_int),
    FieldSpec("run.step", "optional_float", None,
              "Dissipative substep in seconds; must respect the stability ceiling", _positive),
    FieldSpec("run.step_scale", "float", 0.1,
              "Fraction of the stability ceiling used when run.step is unset", _unit_interval_open),
    FieldSpec("run.out_dir", "optional_str", None,
              "Output directory root; overrides the KERRSPIN_OUT environment variable"),
    FieldSpec("run.from_device", "bool", False,
              "Derive the interaction frame from device geometry, bias, and drive"),
    FieldSpec("frame.angular", "bool", False,
              "Treat *_hz inputs as angular rates (rad/s) instead of ordinary Hz"),
    FieldSpec("frame.coupling_hz", "optional_float", None,
              "Frame-enhanced spin-mode coupling G (Hz); None uses the scenario default", _positive),
    FieldSpec("frame.delta_q_hz", "optional_float", None,
              "Spin detuning in the drive frame (Hz); None uses the scenario default"),
    FieldSpec("frame.delta_s_hz", "optional_float", None,
              "Diagonalized mode detuning (Hz); None uses the scenario default"),
    FieldSpec("frame.delta_minus_hz", "optional_float", None,
              "Mode-spin gap delta_s - delta_q (Hz); None uses the scenario default"),
    FieldSpec("dissipation.kappa_m", "float", 1.0e6,
              "Mode energy decay rate in 1/s (plain rate, not multiplied by 2*pi)", _non_negative),
    FieldSpec("dissipation.gamma_q", "float", 1.0e3,
              "Spin relaxation rate in 1/s (plain rate, not multiplied by 2*pi)", _non_negative),
    FieldSpec("battery.fock_levels", "int_list", [1, 5],
              "Initial mode Fock levels used to charge the single-spin battery", _int_list),
    FieldSpec("dispersive.ratios", "float_list", [5.0, 10.0, 20.0],
              "Gap-to-coupling ratios |delta_minus|/G scanned by dispersive-check", _float_list_positive),
    FieldSpec("sweep.radius_min_m", "float", 2.0e-9, "Sphere radius scan lower edge (m)", _positive),
    FieldSpec("sweep.radius_max_m", "float", 2.0e-7, "Sphere radius scan upper edge (m)", _positive),
    FieldSpec("sweep.radius_points", "int", 81,
              f"Points in the radius scan (2 to {MAX_SWEEP_POINTS})", _sweep_points),
    FieldSpec("sweep.distance_min_m", "float", 1.0e-8, "Spin-surface gap scan lower edge (m)", _positive),
    FieldSpec("sweep.distance_max_m", "float", 2.0e-6, "Spin-surface gap scan upper edge (m)", _positive),
    FieldSpec("sweep.distance_points", "int", 81,
              f"Points in the gap scan (2 to {MAX_SWEEP_POINTS})", _sweep_points),
    FieldSpec("sweep.distance_m", "float", 6.0e-9, "Fixed gap for the radius scan (m)", _positive),
    FieldSpec("sweep.radius_m", "float", 3.0e-8, "Fixed radius for the gap scan (m)", _positive),
    FieldSpec("device.radius_m", "float", 3.0e-8, "Sphere radius (m)", _positive),
    FieldSpec("device.distance_m", "float", 6.0e-9, "Spin-to-surface gap (m)", _non_negative),
    FieldSpec("device.bias_t", "float", 0.17842, "Static bias field (T)", _non_negative),
    FieldSpec("device.omega_q_hz", "float", 5.03e9, "Bare spin splitting (Hz)", _positive),
    FieldSpec("device.calibration", "str", "anchored",
              "Device calibration mode", _choice(("anchored", "formula"))),
    FieldSpec("drive.detuning_hz", "float", 2.0e8,
              "Drive red-detuning from the bare mode, (omega_m - omega_d)/2pi (Hz)"),
    FieldSpec("drive.amplitude_hz", "float", 7.2e10, "Drive amplitude (Hz)", _non_negative),
    FieldSpec("convention.sign", "str", "paper",
              "Sign convention for the amplitude-shift term in the drive-frame detuning",
              _choice(("paper", "rederived"))),
]

SCHEMA: dict[str, FieldSpec] = {f.key: f for f in _FIELDS}

def _finite_float(key: str, raw: object) -> float:
    """A JSON number as a float; NaN, +-Infinity and overflowing integers
    (json.loads accepts all three) are rejected."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{key} must be a number, got {raw!r}")
    try:
        value = float(raw)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {raw!r}")
    return value


def _coerce(field: FieldSpec, raw: object) -> object:
    """Normalize a parsed value to the field's kind, or raise ConfigError."""
    kind = field.kind
    if raw is None:
        if kind.startswith("optional_"):
            return None
        raise ConfigError(f"{field.key} may not be null")
    if kind in ("bool",):
        if isinstance(raw, bool):
            return raw
        raise ConfigError(f"{field.key} must be a boolean, got {raw!r}")
    if kind in ("int", "optional_int"):
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise ConfigError(f"{field.key} must be an integer, got {raw!r}")
        return int(raw)
    if kind in ("float", "optional_float"):
        return _finite_float(field.key, raw)
    if kind in ("str", "optional_str"):
        if not isinstance(raw, str):
            raise ConfigError(f"{field.key} must be a string, got {raw!r}")
        return raw
    if kind == "int_list":
        if not isinstance(raw, list) or any(isinstance(v, bool) or not isinstance(v, int) for v in raw):
            raise ConfigError(f"{field.key} must be a list of integers, got {raw!r}")
        return [int(v) for v in raw]
    if kind == "float_list":
        if not isinstance(raw, list):
            raise ConfigError(f"{field.key} must be a list of numbers, got {raw!r}")
        return [_finite_float(field.key, v) for v in raw]
    raise ConfigError(f"internal: unknown kind {kind}")


def defaults() -> dict[str, object]:
    return {f.key: (list(f.default) if isinstance(f.default, list) else f.default) for f in _FIELDS}


def _apply(values: dict[str, object], key: str, raw: object, origin: str) -> None:
    if key not in SCHEMA:
        raise ConfigError(f"unknown configuration key {key!r} (from {origin})")
    field = SCHEMA[key]
    value = _coerce(field, raw)
    if value is not None and field.validator is not None:
        field.validator(key, value)
    values[key] = value


def _flatten(prefix: str, obj: dict, out: dict[str, object]) -> None:
    for k, v in obj.items():
        path = f"{prefix}.{k}" if prefix else str(k)
        if isinstance(v, dict) and path not in SCHEMA:
            _flatten(path, v, out)
        else:
            out[path] = v


def load_config_file(path: Path | str) -> dict[str, object]:
    """Read a JSON config file: flat dotted keys, nested sections, or a
    params.json payload ({"scenario": ..., "values": {...}})."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="ascii"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    if set(raw) <= {"scenario", "values"} and isinstance(raw.get("values"), dict):
        raw = raw["values"]
    flat: dict[str, object] = {}
    _flatten("", raw, flat)
    return flat


def parse_set_value(text: str) -> object:
    """Parse a --set VALUE: JSON first, bare string as fallback."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


@dataclass
class RunConfig:
    """Fully-resolved configuration for a single scenario run."""

    scenario: str
    values: dict[str, object]

    def __getitem__(self, key: str) -> object:
        return self.values[key]

    def angular(self, key: str) -> float:
        """Return a *_hz key as an angular rate, honoring frame.angular."""
        value = self.values[key]
        if value is None:
            raise ConfigError(f"{key} has no value")
        if self.values["frame.angular"]:
            return float(value)
        return 2.0 * math.pi * float(value)

    def angular_or_none(self, key: str) -> float | None:
        if self.values[key] is None:
            return None
        return self.angular(key)


def resolve(
    scenario: str,
    file_values: dict[str, object] | None = None,
    set_pairs: list[tuple[str, object]] | None = None,
    flag_values: dict[str, object] | None = None,
) -> RunConfig:
    """Merge defaults, file, --set pairs, and dedicated flags, validating
    every key. Later sources win."""
    values = defaults()
    for key, raw in (file_values or {}).items():
        _apply(values, key, raw, "config file")
    for key, raw in set_pairs or []:
        _apply(values, key, raw, "--set")
    for key, raw in (flag_values or {}).items():
        if raw is not None:
            _apply(values, key, raw, "command line")
    return RunConfig(scenario=scenario, values=values)


def schema_document() -> dict:
    """JSON-serializable schema description (shipped as config_schema.json)."""
    fields = {}
    for f in _FIELDS:
        fields[f.key] = {
            "kind": f.kind,
            "default": f.default,
            "help": f.help,
        }
    return {
        "format": "flat JSON object keyed by dotted paths; nested sections also accepted",
        "precedence": ["defaults", "config file", "--set overrides", "dedicated flags"],
        "fields": fields,
    }
