"""CSV writers against a per-cell formatting oracle.

Each writer prints a whole row with one "%.17g,..." format, in chunks of
rows; the files must be byte-identical to formatting every cell on its
own, whatever the chunk size.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from kerrspin import reporting
from kerrspin.reporting import CSV_CHUNK_ROWS, write_sweep_csv, write_trajectory_csv


def per_cell_csv(axis_name: str, axis, columns: dict) -> str:
    names = list(columns)
    lines = [axis_name + "," + ",".join(names)]
    for i in range(len(axis)):
        cells = ["%.17g" % axis[i]] + ["%.17g" % columns[k][i] for k in names]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


AXIS = np.array([0.0, 1e-9, 2.5e-7, 1.0 / 3.0, 7.0, 1e12])
CASES = {
    "special": {
        "special": np.array([-0.0, 5e-324, 1e300, np.nan, np.inf, -np.inf]),
        "integers": np.array([0, -3, 7, 2**40, -(2**31), 1]),
        "float32": np.array([0.1, -1.5, 3e-30, 1e30, -0.0, 2.0], dtype=np.float32),
        "round": np.array([0.1, 1.0 / 3.0, -2.5e-17, 1e-300, 6.02214076e23, -1.0]),
    },
    "integers-only": {"a": np.arange(6), "b": -np.arange(6) ** 3},
    "no-columns": {},
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_trajectory_csv_matches_per_cell(tmp_path, case):
    axis = np.arange(6) if case == "integers-only" else AXIS
    path = write_trajectory_csv(tmp_path / "t.csv", axis, CASES[case])
    with open(path, "rb") as fh:
        assert fh.read() == per_cell_csv("time_s", axis, CASES[case]).encode("ascii")


@pytest.mark.parametrize("case", sorted(CASES))
def test_sweep_csv_matches_per_cell(tmp_path, case):
    axis = np.arange(6) if case == "integers-only" else AXIS
    path = write_sweep_csv(tmp_path / "s.csv", "radius_m", axis, CASES[case])
    with open(path, "rb") as fh:
        assert fh.read() == per_cell_csv("radius_m", axis, CASES[case]).encode("ascii")


def test_empty_grid(tmp_path):
    path = write_trajectory_csv(tmp_path / "e.csv", np.array([]), {"x": np.array([])})
    with open(path, "rb") as fh:
        assert fh.read() == b"time_s,x\n"


@pytest.mark.parametrize("length", [5, 7])
def test_length_mismatch_raises(tmp_path, length):
    columns = {"ok": np.zeros(6), "bad": np.zeros(length)}
    with pytest.raises(ValueError, match="column 'bad' length"):
        write_trajectory_csv(tmp_path / "t.csv", AXIS, columns)
    with pytest.raises(ValueError, match="column 'bad' length"):
        write_sweep_csv(tmp_path / "s.csv", "radius_m", AXIS, columns)
    assert not (tmp_path / "t.csv").exists()
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("chunk", [1, 4, 5, 6, 7])
@pytest.mark.parametrize("case", sorted(CASES))
def test_chunked_csv_matches_per_cell(tmp_path, monkeypatch, case, chunk):
    monkeypatch.setattr(reporting, "CSV_CHUNK_ROWS", chunk)
    axis = np.arange(6) if case == "integers-only" else AXIS
    path = write_sweep_csv(tmp_path / "s.csv", "radius_m", axis, CASES[case])
    with open(path, "rb") as fh:
        assert fh.read() == per_cell_csv("radius_m", axis, CASES[case]).encode("ascii")


def test_default_csvs_are_one_chunk(scenario_runs):
    # Every CSV of a default run is formatted and written in one piece.
    rows = [
        path.read_bytes().count(b"\n") - 1
        for run in scenario_runs.values()
        for path in run.out_dir.glob("*.csv")
    ]
    assert len(rows) == 10
    assert max(rows) <= CSV_CHUNK_ROWS


def test_chunked_write_memory_is_bounded(tmp_path, monkeypatch):
    # 30k rows as one piece hold ~10 MB of row lists and lines; in chunks
    # of 500 rows the writer's peak is about a hundred kB.
    monkeypatch.setattr(reporting, "CSV_CHUNK_ROWS", 500)
    n = 30_000
    axis = np.geomspace(1e-9, 1e-6, n)
    columns = {f"c{i}": axis * (i + 1.5) for i in range(4)}
    tracemalloc.start()
    try:
        path = write_sweep_csv(tmp_path / "big.csv", "radius_m", axis, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    assert len(lines) == n + 2 and lines[-1] == b""
    first = ("%.17g," * 4 + "%.17g") % (axis[0], *(c[0] for c in columns.values()))
    assert lines[1] == first.encode("ascii")
