"""Scenario benchmark for kerrspin.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload gate-tomography --seed 1 --seconds 30 --trace 0

One operation runs the workload's scenarios in order through the public
entry point, in process, as ``kerrspin.cli.main(["run", <scenario>,
"--out", <dir>])`` with default configs. Operations repeat in a closed
loop, one process at a time, until ``--seconds`` have passed (at least
one operation). Every operation is checked (see ``OutputChecker``); a
failed operation is counted, not fatal.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics of the
traced ones (see ``spans.py``); the difference between the two kinds is
the tracing overhead.

The scenarios have fixed default inputs, so the seed only names the
output directory. The last stdout line is the result object; the line
before it carries the environment record and the raw samples, which are
also written to ``.perfbench/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import SpanRecorder, missing, traced

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

# Why each workload exists: see BENCHMARK.json.
WORKLOADS: dict[str, tuple[str, ...]] = {
    "gate-tomography": ("iswap-fidelity",),
    "state-transfer": ("state-transfer",),
    "closed-system": ("rabi", "battery", "dispersive-check", "coupling-sweep"),
}

SETUP_SAMPLES = 24
REFERENCE_TOL = 1e-9

SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import kerrspin.cli
from kerrspin.config import resolve
for scenario in sys.argv[2:]:
    resolve(scenario)
print(repr(time.perf_counter() - start))
"""


class UsageError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _blas_threads() -> int | None:
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (TypeError, KeyError):
        blas_name = blas_version = "unknown"
    nproc = len(os.sched_getaffinity(0))
    threads = _blas_threads()
    if threads is not None and threads > nproc:
        raise UsageError(f"BLAS uses {threads} threads but only {nproc} processors are available")
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": threads,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
    }


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


class OutputChecker:
    """Per-operation correctness gate.

    A scenario run fails when: its exit code is not 0 or it raised; any
    check in report.json has passed = false; a non-gate check's observed
    value is further from the reference table captured at the seed
    commit than 1e-9 (absolute for upper-bound checks, whose values are
    residuals or deviations near 0; relative to the reference for the
    rest, which include times in s and lengths in m); or a CSV's sha256
    differs from the same CSV in the run's first operation. CSV digests
    are not pinned across commits, because exact reductions may change
    last bits.
    """

    def __init__(self) -> None:
        self.reference = json.loads((HERE / "reference.json").read_text())
        self.first_digests: dict[tuple[str, str], str] = {}

    def problems(self, scenario: str, out_dir: Path) -> list[str]:
        found = []
        report = json.loads((out_dir / "report.json").read_text())
        observed = {}
        for check in report["checks"]:
            observed[check["name"]] = check["observed"]
            if not check["passed"]:
                found.append(f"check {check['name']} failed")
        for name, ref in self.reference[scenario].items():
            if name not in observed:
                found.append(f"check {name} missing from report")
            elif not _matches(observed[name], ref["observed"], ref["scale"]):
                found.append(f"check {name} observed {observed[name]!r}, reference {ref['observed']!r}")
        for csv in sorted(out_dir.glob("*.csv")):
            digest = hashlib.sha256(csv.read_bytes()).hexdigest()
            first = self.first_digests.setdefault((scenario, csv.name), digest)
            if digest != first:
                found.append(f"{csv.name} differs from the first operation's copy")
        return found


def _matches(value, ref, scale: str) -> bool:
    if isinstance(ref, (int, float)) and isinstance(value, (int, float)):
        return abs(value - ref) <= REFERENCE_TOL * (1.0 if scale == "absolute" else abs(ref))
    return value == ref


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def run_operation(scenarios, out_root: Path, checker: OutputChecker) -> tuple[float, float, list[str]]:
    """One operation: wall and CPU seconds of the scenario runs, then checks."""
    from kerrspin import cli

    codes = {}
    wall = cpu = 0.0
    for scenario in scenarios:
        wall_0, cpu_0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                codes[scenario] = cli.main(["run", scenario, "--out", str(out_root)])
        except (Exception, SystemExit):  # an operation failure is counted, not fatal
            traceback.print_exc()
            codes[scenario] = None
        wall += time.perf_counter() - wall_0
        cpu += time.process_time() - cpu_0
    problems = []
    for scenario, code in codes.items():
        if code != 0:
            problems.append(f"{scenario}: exit code {code}")
            continue
        try:
            problems += [f"{scenario}: {p}" for p in checker.problems(scenario, out_root / scenario)]
        except (OSError, ValueError, KeyError) as err:
            problems.append(f"{scenario}: unreadable output ({err!r})")
    shutil.rmtree(out_root, ignore_errors=True)
    return wall, cpu, problems


def measure_setup(scenarios) -> float:
    """One fresh-interpreter import of kerrspin.cli plus config resolution."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), *scenarios],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if done.returncode != 0:
        raise UsageError(f"set-up interpreter failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def layer_metrics(recorder: SpanRecorder, op_wall: float) -> dict[str, float]:
    spans = recorder.by_name()
    work = recorder.work
    out = {}
    for name in (
        "dynamics.liouvillian",
        "dynamics.choi_from_outputs",
        "dynamics.strip_local_phases",
        "fock.partial_trace",
        "dynamics.evolve_unitary",
        "fock.embed",
        "hamiltonians.build",
        "reporting.write",
    ):
        out[f"{name}.calls"] = spans[name]["calls"]
        out[f"{name}.s"] = spans[name]["self_s"]
    out["dynamics.evolve_lindblad.calls"] = spans["dynamics.evolve_lindblad"]["calls"]
    out["dynamics.evolve_lindblad.self_s"] = spans["dynamics.evolve_lindblad"]["self_s"]
    out["dynamics.average_gate_fidelity.s"] = spans["dynamics.average_gate_fidelity"]["self_s"]
    out["device.s"] = spans["device"]["self_s"]
    out["config.resolve.s"] = spans["config.resolve"]["self_s"]
    for key in (
        "dynamics.liouville_dim_max",
        "dynamics.evolve_lindblad.inputs",
        "dynamics.substeps_max",
        "dynamics.propagator.gflop",
        "dynamics.stepping.gflop",
        "reporting.write.bytes",
    ):
        out[key] = work.get(key, 0)
    out["scenarios.self_s"] = op_wall - recorder.top_level_s
    return out


def _metric_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def bench(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    scenarios = WORKLOADS[workload]
    units = _metric_units()
    env = environment()
    if trace and (gone := missing()):
        raise UsageError(f"span functions not found: {', '.join(gone)}; update perfbench/spans.py")

    label = f"{workload}-seed{seed}-trace{int(trace)}"
    work_dir = ROOT / ".perfbench" / label
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    checker = OutputChecker()
    recorder = SpanRecorder()
    merged: dict[tuple, list] = {}
    plain: list[tuple[float, float]] = []
    traced_ops: list[tuple[float, dict]] = []
    failures: list[str] = []
    setup: list[float] = []
    attempted = 0

    # Untraced runs spread SETUP_SAMPLES set-up samples over the loop, so
    # they see the same machine as the operations. Their own time does
    # not count towards --seconds.
    setup_wall = 0.0
    start = time.perf_counter()
    while True:
        if not trace and seconds > 0:
            elapsed = time.perf_counter() - start - setup_wall
            due = min(SETUP_SAMPLES, int(SETUP_SAMPLES * elapsed / seconds))
            while len(setup) < due:
                setup_0 = time.perf_counter()
                setup.append(measure_setup(scenarios))
                setup_wall += time.perf_counter() - setup_0
        with_trace = trace and len(traced_ops) < len(plain)
        out_root = work_dir / f"op{attempted}"
        if with_trace:
            recorder.reset()
            with traced(recorder):
                wall, cpu, problems = run_operation(scenarios, out_root, checker)
            traced_ops.append((wall, layer_metrics(recorder, wall)))
            for key, (calls, total, self_s) in recorder.spans.items():
                acc = merged.setdefault(key, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += self_s
        else:
            wall, cpu, problems = run_operation(scenarios, out_root, checker)
            plain.append((wall, cpu))
        attempted += 1
        if problems:
            failures.append(f"op{attempted - 1}: " + "; ".join(problems))
            print(f"perfbench: operation {attempted - 1} failed: {problems}", file=sys.stderr)
        enough = not trace or len(traced_ops) >= 1
        if enough and time.perf_counter() - start - setup_wall >= seconds:
            break
    while not trace and len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup(scenarios))

    walls = [w for w, _ in plain]
    metrics: dict[str, float] = {}
    if trace:
        for key in traced_ops[0][1]:
            metrics[key] = statistics.median(m[key] for _, m in traced_ops)
        metrics["trace.overhead_s"] = statistics.median(w for w, _ in traced_ops) - statistics.median(walls)
        metrics["failed_ops"] = len(failures) / attempted
    else:
        metrics["op_s"] = statistics.median(walls)
        metrics["op_cpu_s"] = statistics.median(c for _, c in plain)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["setup_s"] = statistics.median(setup)

    detail = {
        "workload": workload,
        "scenarios": list(scenarios),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "samples": {
            "op_s": walls,
            "op_cpu_s": [c for _, c in plain],
            "traced_op_s": [w for w, _ in traced_ops],
            "setup_s": setup,
        },
        "failures": failures,
        "spans": [
            {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
            for (n, p), (c, t, s) in sorted(merged.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))
        ],
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    detail["result"] = result
    shutil.rmtree(work_dir, ignore_errors=True)
    (ROOT / ".perfbench" / f"{label}.json").write_text(json.dumps(detail, indent=1) + "\n")
    return detail, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time; 0 runs one operation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not math.isfinite(args.seconds) or args.seconds < 0:
        parser.error("--seconds must be a finite number >= 0")

    try:
        if not (SRC / "kerrspin" / "cli.py").is_file():
            raise UsageError(f"no kerrspin sources under {SRC}; run from a source checkout")
        sys.path.insert(0, str(SRC))
        import kerrspin.cli

        if Path(kerrspin.cli.__file__).resolve().parent != SRC / "kerrspin":
            raise UsageError(f"imported kerrspin from {kerrspin.cli.__file__}, not from {SRC}")
        detail, result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except UsageError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    summary = {k: detail[k] for k in ("workload", "seed", "trace", "environment", "samples", "failures")}
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
