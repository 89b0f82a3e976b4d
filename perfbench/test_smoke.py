"""Harness smoke test: one closed-system operation, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py -q

Asserts that every metric BENCHMARK.json names is emitted with its unit
and that no operation failed, and that the benchmark refuses to run
(exit 2, no result) without sources or when a span's function is gone.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed-system", "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_closed_system_emits_every_metric(trace, section):
    result = _run(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    # --seconds 0 runs one operation, or one untraced and one traced.
    assert result["attempted"] == 1 + trace
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace:
        assert result["metrics"]["failed_ops"]["value"] == 0
        assert result["metrics"]["dynamics.evolve_unitary.calls"]["value"] > 0


def test_refuses_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "perfbench" / "reference.json").write_text((ROOT / "perfbench" / "reference.json").read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed-system", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_refuses_when_a_span_function_is_gone(monkeypatch, capsys):
    import run
    import spans

    monkeypatch.setitem(spans.SPANS, "fock.gone", ("kerrspin.fock", ("no_such_function",), None))
    code = run.main(["--workload", "closed-system", "--seed", "1", "--seconds", "0", "--trace", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""
