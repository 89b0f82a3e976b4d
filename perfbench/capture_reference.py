"""Capture the reference table of non-gate check values.

Run once, from the root of a source checkout at the commit whose values
are the reference:

    python3 perfbench/capture_reference.py

It runs every scenario the benchmark's workloads use, with default
configs, and writes ``perfbench/reference.json``: scenario -> check name
-> observed value and scale, for every check whose name does not start
with ``gate:``. Gate checks measure integration error, which exact
reformulations may legitimately move, so only their pass flag is gated.

The scale says how the benchmark compares a value with the reference.
Upper-bound checks hold residuals and deviations near 0, so they are
compared absolutely; all others (fidelities, ratios, times in s, lengths
in m, coefficients) relative to the reference value.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from kerrspin import cli  # noqa: E402

from run import WORKLOADS  # noqa: E402


def _scale(check: dict) -> str:
    if isinstance(check["observed"], str):
        return "exact"
    return "absolute" if check["tolerance"].startswith("upper bound") else "relative"


def main() -> int:
    out_root = ROOT / ".perfbench" / "reference"
    table = {}
    for scenarios in WORKLOADS.values():
        for scenario in scenarios:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", scenario, "--out", str(out_root)])
            if code != 0:
                print(f"{scenario} exited {code}; reference not written", file=sys.stderr)
                return 1
            report = json.loads((out_root / scenario / "report.json").read_text())
            table[scenario] = {
                c["name"]: {
                    "observed": c["observed"],
                    "scale": _scale(c),
                }
                for c in report["checks"]
                if not c["name"].startswith("gate:")
            }
    shutil.rmtree(out_root, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
