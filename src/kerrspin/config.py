"""Run configuration: schema, defaults, file/flag merging, validation.

Keys are dotted paths ("dissipation.kappa_m"). Precedence, lowest to
highest: built-in defaults, config file, --set overrides, dedicated CLI
flags. Unknown keys are rejected by full path. A value of None means
"scenario chooses its own default".

The schema is one table, `_FIELDS`: a key, a kind, a default, a help
text and an optional range rule per field. A default of None is what
makes a field optional: only such a field accepts null, and the schema
document lists its kind as "optional_<kind>". Every value, whether from a
file, a --set pair or a dedicated flag, takes one path. `_coerce` checks
its type against the kind's (test, noun) entry in `_TYPES`, and a float
must also be finite. `_apply` then tests the field's (test, text) rule
and refuses a value that fails as "<key> must be <text>, got <value>".
The rules:

    >= 0                     dissipation.*, device.distance_m,
                             device.bias_t, drive.amplitude_hz
    > 0                      run.step, frame.coupling_hz, the sweep.*
                             edges and fixed values, device.radius_m,
                             device.omega_q_hz
    in (0, 1]                run.step_scale
    an integer >= 2          run.cutoff
    2 to MAX_SWEEP_POINTS    sweep.radius_points, sweep.distance_points
    non-empty, each >= 1     battery.fock_levels
    non-empty, each > 0      dispersive.ratios
    one of a tuple           device.calibration, convention.sign

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


def echo(value: object) -> str:
    """An input's repr for an error message: in full up to 80 characters,
    else its first 60 characters and its length, so that one bad value
    cannot make a message of unbounded size."""
    text = repr(value)
    if len(text) <= 80:
        return text
    return f"{text[:60]}... ({len(text)} characters)"


MAX_SWEEP_POINTS = 1_000_000  # the sweep's grids, columns and CSVs grow with it

# Range rules: (test, text). A value that fails its field's test is refused
# as "<key> must be <text>, got <value>".
_NON_NEGATIVE = (lambda v: v >= 0, ">= 0")
_POSITIVE = (lambda v: v > 0, "> 0")
_UNIT_INTERVAL_OPEN = (lambda v: 0 < v <= 1, "in (0, 1]")
_CUTOFF = (lambda v: v >= 2, "an integer >= 2")
_SWEEP_POINTS = (lambda v: 2 <= v <= MAX_SWEEP_POINTS, f"an integer from 2 to {MAX_SWEEP_POINTS}")
_LEVELS = (lambda v: v and min(v) >= 1, "a non-empty list of integers >= 1")
_RATIOS = (lambda v: v and min(v) > 0, "a non-empty list of positive numbers")


def _one_of(*options: str) -> tuple:
    return (lambda v: v in options, f"one of {options}")


@dataclass(frozen=True)
class FieldSpec:
    key: str
    kind: str  # "int", "float", "bool", "str", "int_list" or "float_list"
    default: object  # None makes the field optional
    help: str
    rule: tuple | None = None  # (test, text): the range rule, if any


_FIELDS = [
    FieldSpec("run.cutoff", "int", None,
              "Bosonic mode truncation dimension; None lets each scenario pick", _CUTOFF),
    FieldSpec("run.step", "float", None,
              "Dissipative substep in seconds; must respect the stability ceiling", _POSITIVE),
    FieldSpec("run.step_scale", "float", 0.1,
              "Fraction of the stability ceiling used when run.step is unset", _UNIT_INTERVAL_OPEN),
    FieldSpec("run.out_dir", "str", None,
              "Output directory root; overrides the KERRSPIN_OUT environment variable"),
    FieldSpec("run.from_device", "bool", False,
              "Derive the interaction frame from device geometry, bias, and drive"),
    FieldSpec("frame.angular", "bool", False,
              "Treat *_hz inputs as angular rates (rad/s) instead of ordinary Hz"),
    FieldSpec("frame.coupling_hz", "float", None,
              "Frame-enhanced spin-mode coupling G (Hz); None uses the scenario default", _POSITIVE),
    FieldSpec("frame.delta_q_hz", "float", None,
              "Spin detuning in the drive frame (Hz); None uses the scenario default"),
    FieldSpec("frame.delta_s_hz", "float", None,
              "Diagonalized mode detuning (Hz); None uses the scenario default"),
    FieldSpec("frame.delta_minus_hz", "float", None,
              "Mode-spin gap delta_s - delta_q (Hz); None uses the scenario default"),
    FieldSpec("dissipation.kappa_m", "float", 1.0e6,
              "Mode energy decay rate in 1/s (plain rate, not multiplied by 2*pi)", _NON_NEGATIVE),
    FieldSpec("dissipation.gamma_q", "float", 1.0e3,
              "Spin relaxation rate in 1/s (plain rate, not multiplied by 2*pi)", _NON_NEGATIVE),
    FieldSpec("battery.fock_levels", "int_list", [1, 5],
              "Initial mode Fock levels used to charge the single-spin battery", _LEVELS),
    FieldSpec("dispersive.ratios", "float_list", [5.0, 10.0, 20.0],
              "Gap-to-coupling ratios |delta_minus|/G scanned by dispersive-check", _RATIOS),
    FieldSpec("sweep.radius_min_m", "float", 2.0e-9, "Sphere radius scan lower edge (m)", _POSITIVE),
    FieldSpec("sweep.radius_max_m", "float", 2.0e-7, "Sphere radius scan upper edge (m)", _POSITIVE),
    FieldSpec("sweep.radius_points", "int", 81,
              f"Points in the radius scan (2 to {MAX_SWEEP_POINTS})", _SWEEP_POINTS),
    FieldSpec("sweep.distance_min_m", "float", 1.0e-8, "Spin-surface gap scan lower edge (m)", _POSITIVE),
    FieldSpec("sweep.distance_max_m", "float", 2.0e-6, "Spin-surface gap scan upper edge (m)", _POSITIVE),
    FieldSpec("sweep.distance_points", "int", 81,
              f"Points in the gap scan (2 to {MAX_SWEEP_POINTS})", _SWEEP_POINTS),
    FieldSpec("sweep.distance_m", "float", 6.0e-9, "Fixed gap for the radius scan (m)", _POSITIVE),
    FieldSpec("sweep.radius_m", "float", 3.0e-8, "Fixed radius for the gap scan (m)", _POSITIVE),
    FieldSpec("device.radius_m", "float", 3.0e-8, "Sphere radius (m)", _POSITIVE),
    FieldSpec("device.distance_m", "float", 6.0e-9, "Spin-to-surface gap (m)", _NON_NEGATIVE),
    FieldSpec("device.bias_t", "float", 0.17842, "Static bias field (T)", _NON_NEGATIVE),
    FieldSpec("device.omega_q_hz", "float", 5.03e9, "Bare spin splitting (Hz)", _POSITIVE),
    FieldSpec("device.calibration", "str", "anchored",
              "Device calibration mode", _one_of("anchored", "formula")),
    FieldSpec("drive.detuning_hz", "float", 2.0e8,
              "Drive red-detuning from the bare mode, (omega_m - omega_d)/2pi (Hz)"),
    FieldSpec("drive.amplitude_hz", "float", 7.2e10, "Drive amplitude (Hz)", _NON_NEGATIVE),
    FieldSpec("convention.sign", "str", "paper",
              "Sign convention for the amplitude-shift term in the drive-frame detuning",
              _one_of("paper", "rederived")),
]

SCHEMA: dict[str, FieldSpec] = {f.key: f for f in _FIELDS}

def _finite_float(key: str, raw: object) -> float:
    """A JSON number as a float; NaN, +-Infinity and overflowing integers
    (json.loads accepts all three) are rejected."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{key} must be a number, got {echo(raw)}")
    try:
        value = float(raw)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {echo(raw)}")
    return value


def _is_int(raw: object) -> bool:
    return isinstance(raw, int) and not isinstance(raw, bool)


# Type checks: kind -> (test, noun). A float is typed by _finite_float.
_TYPES = {
    "bool": (lambda raw: isinstance(raw, bool), "a boolean"),
    "int": (_is_int, "an integer"),
    "str": (lambda raw: isinstance(raw, str), "a string"),
    "int_list": (lambda raw: isinstance(raw, list) and all(map(_is_int, raw)), "a list of integers"),
    "float_list": (lambda raw: isinstance(raw, list), "a list of numbers"),
}


def _coerce(field: FieldSpec, raw: object) -> object:
    """Normalize a parsed value to the field's kind, or raise ConfigError."""
    if raw is None:
        if field.default is None:
            return None
        raise ConfigError(f"{field.key} may not be null")
    if field.kind == "float":
        return _finite_float(field.key, raw)
    test, noun = _TYPES[field.kind]
    if not test(raw):
        raise ConfigError(f"{field.key} must be {noun}, got {echo(raw)}")
    if field.kind == "float_list":
        return [_finite_float(field.key, v) for v in raw]
    return list(raw) if field.kind == "int_list" else raw


def defaults() -> dict[str, object]:
    return {f.key: (list(f.default) if isinstance(f.default, list) else f.default) for f in _FIELDS}


def _apply(values: dict[str, object], key: str, raw: object, origin: str) -> None:
    if key not in SCHEMA:
        raise ConfigError(f"unknown configuration key {echo(key)} (from {origin})")
    field = SCHEMA[key]
    value = _coerce(field, raw)
    if value is not None and field.rule is not None:
        test, text = field.rule
        if not test(value):
            raise ConfigError(f"{key} must be {text}, got {echo(value)}")
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
    shown = echo(str(path))
    try:
        raw = json.loads(path.read_text(encoding="ascii"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {shown}")
    except OSError as err:  # a directory, or a name too long, say
        raise ConfigError(f"cannot read config file {shown}: {err.strerror or err}")
    except UnicodeDecodeError as err:
        raise ConfigError(f"config file {shown} is not ASCII: {err}")
    except (ValueError, RecursionError) as err:
        # ValueError: malformed JSON, or an integer past Python's digit
        # limit; RecursionError: nesting deeper than the parser's stack.
        raise ConfigError(f"config file {shown} is not valid JSON: {err}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {shown} must contain a JSON object")
    if set(raw) <= {"scenario", "values"} and isinstance(raw.get("values"), dict):
        raw = raw["values"]
    flat: dict[str, object] = {}
    _flatten("", raw, flat)
    return flat


def parse_set_value(text: str) -> object:
    """Parse a --set VALUE: JSON first, bare string as fallback (also for
    an integer past Python's digit limit or nesting past the parser's stack)."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError):
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
            "kind": f.kind if f.default is not None else f"optional_{f.kind}",
            "default": f.default,
            "help": f.help,
        }
    return {
        "format": "flat JSON object keyed by dotted paths; nested sections also accepted",
        "precedence": ["defaults", "config file", "--set overrides", "dedicated flags"],
        "fields": fields,
    }
