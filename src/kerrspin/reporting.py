"""Artifact writers: trajectory/sweep CSV, params and report JSON.

Output contract:
- CSV numbers are printed with 17 significant digits so identical runs
  produce bit-identical files on round trip.
- No artifact embeds timestamps, hostnames, or other run-varying data;
  determinism is part of the deliverable.
- Every check carries a provenance tag stating where its expected value
  comes from: PAPER (published reference number), DERIVED (independent
  oracle computed in this repository), TRIVIAL (definitional identity).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PROVENANCE_TAGS = ("PAPER", "DERIVED", "TRIVIAL")
CSV_CHUNK_ROWS = 65536  # rows formatted per write in a CSV


@dataclass
class CheckResult:
    """One pass/fail comparison in a scenario report."""

    name: str
    expected: str
    observed: float | str
    tolerance: str
    passed: bool
    provenance: str

    def __post_init__(self) -> None:
        if self.provenance not in PROVENANCE_TAGS:
            raise ValueError(f"provenance must be one of {PROVENANCE_TAGS}")

    def as_dict(self) -> dict:
        observed = self.observed
        if isinstance(observed, (np.floating, np.integer)):
            observed = float(observed)
        return {
            "name": self.name,
            "expected": self.expected,
            "observed": observed,
            "tolerance": self.tolerance,
            "passed": bool(self.passed),
            "provenance": self.provenance,
        }


def check_ge(name: str, observed: float, bound: float, provenance: str) -> CheckResult:
    return CheckResult(
        name=name,
        expected=f">= {bound:.6g}",
        observed=float(observed),
        tolerance=f"lower bound {bound:.6g}",
        passed=bool(observed >= bound),
        provenance=provenance,
    )


def check_le(name: str, observed: float, bound: float, provenance: str) -> CheckResult:
    return CheckResult(
        name=name,
        expected=f"<= {bound:.6g}",
        observed=float(observed),
        tolerance=f"upper bound {bound:.6g}",
        passed=bool(observed <= bound),
        provenance=provenance,
    )


def check_within(
    name: str, observed: float, target: float, rel_tol: float, provenance: str
) -> CheckResult:
    dev = abs(observed - target) / abs(target) if target != 0 else abs(observed)
    return CheckResult(
        name=name,
        expected=f"{target:.6g} within {rel_tol:.3%}",
        observed=float(observed),
        tolerance=f"relative {rel_tol:.6g}",
        passed=bool(dev <= rel_tol),
        provenance=provenance,
    )


def check_order_of_magnitude(
    name: str, observed: float, target: float, factor: float, provenance: str
) -> CheckResult:
    ratio = observed / target if target != 0 else float("inf")
    return CheckResult(
        name=name,
        expected=f"{target:.6g} within factor {factor:.3g}",
        observed=float(observed),
        tolerance=f"ratio in [{1.0 / factor:.3g}, {factor:.3g}]",
        passed=bool(1.0 / factor <= ratio <= factor),
        provenance=provenance,
    )


@dataclass
class ScenarioReport:
    """Everything one scenario run produced."""

    scenario: str
    outputs: dict[str, str] = field(default_factory=dict)
    checks: list[CheckResult] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, check: CheckResult) -> CheckResult:
        self.checks.append(check)
        return check

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
            "outputs": dict(self.outputs),
            "info": _plain(self.info),
        }


def _plain(obj):
    """Recursively convert numpy scalars/arrays for JSON serialization."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return str(obj)


def _write_table(path: Path | str, axis_name: str, axis: np.ndarray, columns: dict[str, np.ndarray]) -> str:
    """CSV with a leading axis column; every cell printed as "%.17g".

    Rows are formatted (one `%` over all the cells of a chunk) and written
    CSV_CHUNK_ROWS at a time, so the writer's memory stays bounded however
    long the grid is; the file has the same bytes as one formatted in a
    single piece, and a table of at most CSV_CHUNK_ROWS rows (every
    default run) is one write.
    """
    path = Path(path)
    n = len(axis)
    for name, col in columns.items():
        if len(col) != n:
            raise ValueError(f"column {name!r} length {len(col)} != grid length {n}")
    names = list(columns)
    table = [axis] + [columns[k] for k in names]
    row_format = ",".join(["%.17g"] * len(table)) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="ascii", newline="\n") as fh:
        fh.write(axis_name + "," + ",".join(names) + "\n")
        for start in range(0, n, CSV_CHUNK_ROWS):
            cells = np.column_stack([col[start : start + CSV_CHUNK_ROWS] for col in table])
            fh.write((row_format * len(cells)) % tuple(cells.ravel().tolist()))
    return str(path)


def write_trajectory_csv(path: Path | str, times: np.ndarray, columns: dict[str, np.ndarray]) -> str:
    """Write a time-series CSV: first column time (s), one per observable."""
    return _write_table(path, "time_s", times, columns)


def write_sweep_csv(path: Path | str, axis_name: str, axis: np.ndarray, columns: dict[str, np.ndarray]) -> str:
    """Write a parameter-sweep CSV with a named leading axis column."""
    return _write_table(path, axis_name, axis, columns)


def write_params(path: Path | str, scenario: str, values: dict) -> str:
    """Write the fully-resolved run configuration (re-parseable)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"scenario": scenario, "values": _plain(values)}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="ascii")
    return str(path)


def write_report(path: Path | str, report: ScenarioReport) -> str:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n", encoding="ascii"
    )
    return str(path)
