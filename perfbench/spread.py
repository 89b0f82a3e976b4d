"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --runs 10 [--workload NAME ...]

Runs the benchmark ``--runs`` times per workload, one run at a time,
with seeds 1, 2, ... and BENCHMARK.json's run_seconds. For every
end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
(q3 - q1) / median next to the metric's bound. The raw results go to
``.perfbench/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    for workload in workloads:
        results = []
        for seed in range(1, args.runs + 1):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed)]
            cmd += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            results.append(json.loads(done.stdout.strip().splitlines()[-1]))
            print(workload, seed, json.dumps({k: v["value"] for k, v in results[-1]["metrics"].items()}), flush=True)
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        (ROOT / ".perfbench" / f"spread-{workload}.json").write_text(json.dumps(results, indent=1) + "\n")
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: {len(results)} runs, {failed} failed operations")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(
                f"  {metric['name']:12s} median {statistics.median(values):.6g} {metric['unit']}"
                f"  q1 {q1:.6g}  q3 {q3:.6g}  spread {(q3 - q1) / statistics.median(values):.4f}"
                f"  bound {metric['bound']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
