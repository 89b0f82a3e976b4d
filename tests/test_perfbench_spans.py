"""The benchmark's span table wraps only functions the package has.

`perfbench/run.py --trace 1` refuses to run while a wrapped name is
missing, so deleting or renaming a wrapped function must fail here too,
not only in the benchmark.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_wrapped_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.missing() == []
