"""Tests for the experiment registry and the reproduce CLI."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.experiments import EXPERIMENTS, run_experiment

#: Every experiment id DESIGN.md's index promises.
PROMISED = {
    "F01", "F02", "F03", "F04", "F05", "F07", "F10-F11", "F12-F16",
    "F17", "F18", "F19", "F20", "F20-BIT", "F21", "F22", "DS-AGREE",
    "T-EVAL", "T-BASE", "T-FT",
    "A-POL", "A-GRP", "A-ALN", "A-CHAIN", "A-EXT", "A-COST", "A-HYB",
}


def test_registry_covers_design_index() -> None:
    assert set(EXPERIMENTS) == PROMISED
    for exp in EXPERIMENTS.values():
        assert exp.title
        assert callable(exp.build)


@pytest.mark.parametrize("exp_id", ["F05", "F07", "F10-F11", "A-GRP", "A-COST"])
def test_fast_experiments_produce_tables(exp_id: str) -> None:
    rows = run_experiment(exp_id)
    assert rows and isinstance(rows, list)
    assert all(isinstance(r, dict) for r in rows)
    # All rows of one table share the same columns.
    keys = set(rows[0])
    assert all(set(r) == keys for r in rows)


def test_run_experiment_unknown() -> None:
    with pytest.raises(KeyError):
        run_experiment("F99")


def test_cli_reproduce_lists(capsys) -> None:
    assert main(["reproduce"]) == 0
    out = capsys.readouterr().out
    for exp_id in ("F18", "T-EVAL", "A-POL"):
        assert exp_id in out


def test_cli_reproduce_runs_one(capsys) -> None:
    assert main(["reproduce", "F10-F11"]) == 0
    out = capsys.readouterr().out
    assert "n(n-1)(n-2)" in out


def test_cli_reproduce_rejects_unknown() -> None:
    assert main(["reproduce", "NOPE"]) == 2


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
