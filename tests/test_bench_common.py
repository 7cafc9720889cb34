"""Regression tests for the benchmark recorder (``benchmarks/_common.py``).

Benchmarks that format per-size rows but never pass ``n``/``m``
explicitly (A-ALN and friends) used to land in the history store as
``"n": null`` — :func:`save_table` now infers dimensions from the rows
themselves, so records carry them whenever the table knows them.

``wall_time_s`` used to be the time since the previous ``save_table``
call, which varied 8x at one commit; :func:`save_table` no longer
records one.
"""

from __future__ import annotations

import importlib.util
import json
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture()
def common(monkeypatch, tmp_path):
    """A private ``_common`` instance writing under ``tmp_path``."""
    spec = importlib.util.spec_from_file_location(
        "_bench_common_under_test", BENCH_DIR / "_common.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    out = tmp_path / "out"
    monkeypatch.setattr(mod, "OUT_DIR", out)
    monkeypatch.setattr(mod, "HISTORY_PATH", out / "history.jsonl")
    monkeypatch.setattr(mod, "TRAJECTORY_PATH", tmp_path / "BENCH_PERF.json")
    mod.set_quiet(True)
    return mod


def last_record(mod) -> dict:
    return json.loads(mod.HISTORY_PATH.read_text().splitlines()[-1])


class TestInferDim:
    def test_largest_numeric_wins(self, common) -> None:
        rows = [{"n": 4}, {"n": 12.0}, {"n": 8}]
        assert common._infer_dim(rows, "n") == 12

    def test_null_and_missing_skipped(self, common) -> None:
        rows = [{"n": None}, {"m": 3}, {"n": 6}]
        assert common._infer_dim(rows, "n") == 6

    def test_bool_is_not_a_dimension(self, common) -> None:
        assert common._infer_dim([{"n": True}], "n") is None

    def test_no_numeric_values_is_none(self, common) -> None:
        assert common._infer_dim([{"k": 1}], "n") is None
        assert common._infer_dim([], "n") is None


class TestSaveTableStampsDims:
    def test_inferred_from_rows(self, common) -> None:
        common.save_table("T-INFER", "t", "body",
                          rows=[{"n": 6, "m": 3}, {"n": 12, "m": None}])
        rec = last_record(common)
        assert rec["n"] == 12 and rec["m"] == 3

    def test_explicit_dims_win_over_rows(self, common) -> None:
        common.save_table("T-EXPL", "t", "body", rows=[{"n": 6}], n=99)
        assert last_record(common)["n"] == 99

    def test_dimensionless_rows_stay_null(self, common) -> None:
        common.save_table("T-NULL", "t", "body", rows=[{"k": 1}])
        rec = last_record(common)
        assert rec["n"] is None and rec["m"] is None

    def test_mixed_history_rolls_up(self, common) -> None:
        # One null-dim record and one stamped record coexist in the same
        # history; the trajectory roll-up must take both.
        common.save_table("T-NULL", "legacy", "body", rows=[{"k": 1}])
        common.save_table("T-DIM", "stamped", "body", rows=[{"n": 12, "m": 4}])
        recs = [json.loads(line)
                for line in common.HISTORY_PATH.read_text().splitlines()]
        assert [r["n"] for r in recs] == [None, 12]
        doc = json.loads(common.TRAJECTORY_PATH.read_text())
        assert {"T-NULL", "T-DIM"} <= set(doc["experiments"])


class TestWallTime:
    def test_time_between_saves_is_not_recorded(self, common) -> None:
        common.save_table("T-A", "t", "body")
        time.sleep(0.2)
        common.save_table("T-B", "t", "body")
        recs = [json.loads(line)
                for line in common.HISTORY_PATH.read_text().splitlines()]
        assert all("wall_time_s" not in r["metrics"] for r in recs)
