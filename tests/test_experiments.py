"""Tests for the experiment registry and ``repro reproduce``, its one runner."""

from __future__ import annotations

import dataclasses
import json
import time

import pytest

from repro.cli import main
from repro.experiments import EXPERIMENTS, Experiment
from repro.experiments.pipeline import count_census
from repro.experiments.runner import infer_dim, record, require, run_experiments

#: Every experiment id DESIGN.md's index promises.
PROMISED = {
    "F01", "F02", "F03", "F04", "F05", "F07", "F10-F11", "F12-F16",
    "F17", "F18", "F18-VEC", "F19", "F19-VEC", "F20", "F20-BIT", "F21",
    "F22", "DS-AGREE", "T-EVAL", "T-BASE", "T-FT",
    "A-POL", "A-GRP", "A-ALN", "A-CHAIN", "A-EXT", "A-COST", "A-HYB",
    "A-PERF",
}


def test_registry_covers_design_index() -> None:
    assert set(EXPERIMENTS) == PROMISED
    for exp in EXPERIMENTS.values():
        assert exp.title
        assert callable(exp.build) and callable(exp.check)


@pytest.mark.parametrize("exp_id", ["F05", "F07", "F10-F11", "A-GRP", "A-COST"])
def test_fast_experiments_produce_tables(exp_id: str) -> None:
    exp = EXPERIMENTS[exp_id]
    rows = exp.build()
    assert rows and isinstance(rows, list)
    assert all(isinstance(r, dict) for r in rows)
    # All rows of one table share the same columns.
    keys = set(rows[0])
    assert all(set(r) == keys for r in rows)
    exp.check(rows)


def test_run_experiment_unknown() -> None:
    with pytest.raises(KeyError):
        run_experiments(["F99"])


def test_cli_reproduce_lists(capsys) -> None:
    assert main(["reproduce"]) == 0
    out = capsys.readouterr().out
    for exp_id in ("F18", "T-EVAL", "A-POL", "A-PERF"):
        assert exp_id in out


def test_cli_reproduce_runs_one(capsys) -> None:
    assert main(["reproduce", "F10-F11"]) == 0
    out = capsys.readouterr().out
    assert "n(n-1)(n-2)" in out


def test_cli_reproduce_rejects_unknown() -> None:
    assert main(["reproduce", "NOPE"]) == 2


def test_reproduce_parallel_vector_matches_sequential(capsys) -> None:
    assert main(["reproduce", "F20", "F07"]) == 0
    seq = capsys.readouterr().out
    assert main(["reproduce", "--jobs", "2", "--backend", "vector",
                 "F20", "F07"]) == 0
    assert capsys.readouterr().out == seq
    assert "vertical-path order:" in seq  # F20's own renderer


def _broken_counts() -> list[dict]:
    rows = count_census((4, 6))
    rows[1]["pruned_ops"] += 1
    return rows


def test_failed_check_exits_one_and_records_nothing(
    capsys, monkeypatch, tmp_path
) -> None:
    monkeypatch.chdir(tmp_path)
    (tmp_path / "benchmarks").mkdir()
    monkeypatch.setitem(EXPERIMENTS, "F10-F11", dataclasses.replace(
        EXPERIMENTS["F10-F11"], build=_broken_counts))
    assert main(["reproduce", "--record", "F10-F11", "F05"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["reproduce: check failed: F10-F11: pruned_ops == n(n-1)(n-2)"]
    out = tmp_path / "benchmarks" / "out"
    assert not (out / "F10-F11.txt").exists()
    assert not (out / "F10-F11.json").exists()
    history = (out / "history.jsonl").read_text().splitlines()
    assert [json.loads(line)["exp_id"] for line in history] == ["F05"]


def test_builder_guard_exits_one_naming_the_experiment(
    capsys, monkeypatch
) -> None:
    def guarded() -> list[dict]:
        require(False, "product == a @ b")
        return []

    monkeypatch.setitem(EXPERIMENTS, "F03", dataclasses.replace(
        EXPERIMENTS["F03"], build=guarded))
    assert main(["reproduce", "F03"]) == 1
    assert capsys.readouterr().err.strip() == (
        "reproduce: check failed: F03: product == a @ b"
    )


def test_record_needs_a_benchmarks_dir(capsys, monkeypatch, tmp_path) -> None:
    monkeypatch.chdir(tmp_path)
    assert main(["reproduce", "--record", "F05"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "benchmarks" in err[0]


def test_record_writes_tables_history_and_rollup(
    capsys, monkeypatch, tmp_path
) -> None:
    monkeypatch.chdir(tmp_path)
    (tmp_path / "benchmarks").mkdir()
    assert main(["reproduce", "--record", "F10-F11"]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "benchmarks" / "out"
    text = (out / "F10-F11.txt").read_text()
    assert printed == text + "\n"
    assert text.startswith("== F10-F11: FPDG size and superfluous-node pruning ==")
    doc = json.loads((out / "F10-F11.json").read_text())
    assert doc["exp_id"] == "F10-F11" and doc["version"] == 1
    assert [r["n"] for r in doc["rows"]] == [4, 6, 8, 10, 12]
    (line,) = (out / "history.jsonl").read_text().splitlines()
    rec = json.loads(line)
    assert rec["run_id"].startswith("reproduce-")
    assert (rec["n"], rec["m"]) == (12, None)
    assert rec["metrics"] == {}
    traj = json.loads((tmp_path / "BENCH_PERF.json").read_text())
    (run,) = traj["experiments"]["F10-F11"]["runs"]
    assert run["run_id"] == rec["run_id"]


class TestInferDim:
    def test_largest_numeric_wins(self) -> None:
        assert infer_dim([{"n": 4}, {"n": 12.0}, {"n": 8}], "n") == 12

    def test_null_and_missing_skipped(self) -> None:
        assert infer_dim([{"n": None}, {"m": 3}, {"n": 6}], "n") == 6

    def test_bool_is_not_a_dimension(self) -> None:
        assert infer_dim([{"n": True}], "n") is None

    def test_no_numeric_values_is_none(self) -> None:
        assert infer_dim([{"k": 1}], "n") is None
        assert infer_dim([], "n") is None


class TestRecord:
    """:func:`record` on hand-made experiments, outside any run ledger."""

    @pytest.fixture()
    def out(self, monkeypatch, tmp_path):
        for exp_id in ("T-A", "T-B"):
            monkeypatch.setitem(EXPERIMENTS, exp_id, Experiment(
                exp_id, f"title {exp_id}", list, lambda rows: None,
                measures=lambda rows: {"stall_cycles_total": len(rows)},
            ))
        (tmp_path / "benchmarks").mkdir()
        return tmp_path / "benchmarks" / "out"

    @staticmethod
    def records(out) -> list[dict]:
        return [json.loads(line)
                for line in (out / "history.jsonl").read_text().splitlines()]

    def test_inferred_from_rows(self, out) -> None:
        record([("T-A", [{"n": 6, "m": 3}, {"n": 12, "m": None}], "t")],
               out.parent.parent)
        (rec,) = self.records(out)
        assert rec["n"] == 12 and rec["m"] == 3
        assert rec["metrics"] == {"stall_cycles_total": 2}

    def test_dimensionless_rows_stay_null(self, out) -> None:
        record([("T-A", [{"k": 1}], "t")], out.parent.parent)
        (rec,) = self.records(out)
        assert rec["n"] is None and rec["m"] is None

    def test_mixed_history_rolls_up(self, out) -> None:
        record([("T-A", [{"k": 1}], "t")], out.parent.parent)
        record([("T-B", [{"n": 12, "m": 4}], "t")], out.parent.parent)
        assert [r["n"] for r in self.records(out)] == [None, 12]
        doc = json.loads((out.parent.parent / "BENCH_PERF.json").read_text())
        assert {"T-A", "T-B"} <= set(doc["experiments"])

    def test_no_wall_time_is_recorded(self, out) -> None:
        record([("T-A", [{"n": 3}], "t")], out.parent.parent)
        time.sleep(0.2)
        record([("T-B", [{"n": 3}], "t")], out.parent.parent)
        for rec in self.records(out):
            assert set(rec["metrics"]) == {"stall_cycles_total"}


def test_backend_timing_reports_cold_and_warm_ratios() -> None:
    from repro.experiments.arrays import backend_timing

    (r,) = backend_timing(configs=((6, 3, "linear"),), replays=1)
    assert r["identical"]
    ref, vec, comp = (r["wall_reference_s"], r["wall_vector_s"],
                      r["wall_compile_s"])
    # Cold pays the compile, so it never beats warm.
    assert r["cold_speedup"] <= r["warm_speedup"]
    assert r["cold_speedup"] == pytest.approx(ref / (comp + vec), rel=0.05)
    if ref > vec:
        assert r["break_even_replays"] == pytest.approx(
            comp / (ref - vec), rel=0.05
        )
    else:
        assert r["break_even_replays"] == float("inf")
