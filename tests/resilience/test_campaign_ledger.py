"""Satellite: a ``--jobs 2`` campaign ledger must match the sequential one.

Event content and order must be byte-identical modulo the wall-clock
fields (``ts`` / ``dur_s`` / ``compile_s``), the two runs must share one
run ID (parallelism degree is not part of the run's identity), and
``repro obs verify`` must find both ledgers clean.
"""

from __future__ import annotations

import pytest

from repro.arrays.vector_compile import clear_compiled_cache
from repro.obs import runlog
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.resilience import run_campaign

CONFIGS = ["linear-n9-m3", "mesh-n8-m4"]
#: Two configs whose permanent-fault cells compile the same
#: ``tc_regular(n=12)/gset(0, 0)`` program: a sequential run must not
#: reuse the first config's plan for the second.
SHARED_PLAN = ["linear-packed-n12-m4", "linear-memaware-n12-m4"]


@pytest.fixture()
def _quiet_registry():
    previous = get_registry()
    set_registry(MetricsRegistry())
    yield
    set_registry(previous)


def _campaign_ledger(tmp_path, monkeypatch, name: str, jobs,
                     backend=None, fresh_cache=True, configs=CONFIGS, **kw):
    d = tmp_path / name
    monkeypatch.setenv("REPRO_RUNLOG_DIR", str(d))
    # Each CLI run starts with an empty compiled-plan cache; by default
    # start every run here the same way, so cache hits left by an
    # earlier run in this process cannot differ.
    if fresh_cache:
        clear_compiled_cache()
    result = run_campaign(
        seed=0, configs=configs, jobs=jobs, record_metrics=False,
        backend=backend, **kw,
    )
    assert result.ok
    paths = sorted(d.glob("*.jsonl"))
    assert len(paths) == 1, "one campaign -> one ledger file"
    events, problems = runlog.read_ledger(paths[0])
    assert problems == []
    return paths[0], events


def test_parallel_ledger_matches_sequential(
    tmp_path, monkeypatch, _quiet_registry
) -> None:
    seq_path, seq = _campaign_ledger(tmp_path, monkeypatch, "seq", None)
    par_path, par = _campaign_ledger(tmp_path, monkeypatch, "par", 2)

    # Same semantic parameters -> same run ID, jobs notwithstanding.
    assert seq_path.name == par_path.name

    # Integrity-clean on both sides (the `repro obs verify` check).
    assert runlog.verify_ledger(seq) == []
    assert runlog.verify_ledger(par) == []

    # Content-identical modulo wall-clock fields — same events, same
    # order, same task attribution, same payloads.
    assert runlog.strip_nondeterministic(par) == (
        runlog.strip_nondeterministic(seq)
    )


@pytest.mark.parametrize("configs, regime", [
    pytest.param(CONFIGS, None, id="None"),
    pytest.param(CONFIGS, ["correlated", "hammer"], id="regime1"),
    pytest.param(SHARED_PLAN, None, id="shared-plan"),
])
def test_vector_campaign_ledger_parity(
    tmp_path, monkeypatch, _quiet_registry, configs, regime
) -> None:
    """The vector backend keeps the parity, with every stage span --
    compile and replay included -- in the ledger."""
    seq_path, seq = _campaign_ledger(
        tmp_path, monkeypatch, "vseq", None, "vector",
        configs=configs, regime=regime,
    )
    par_path, par = _campaign_ledger(
        tmp_path, monkeypatch, "vpar", 2, "vector",
        configs=configs, regime=regime,
    )
    assert seq_path.name == par_path.name
    assert runlog.verify_ledger(seq) == []
    assert runlog.verify_ledger(par) == []
    assert runlog.strip_nondeterministic(par) == (
        runlog.strip_nondeterministic(seq)
    )
    stages = {ev["stage"] for ev in seq if ev["event"] == "stage_start"}
    assert {
        "campaign.config", "campaign.cell", "resilience.run",
    } <= stages


def test_parallel_workers_start_with_an_empty_plan_cache(
    tmp_path, monkeypatch, _quiet_registry
) -> None:
    """A ``jobs=2`` vector campaign right after a sequential one in the
    same process: the forked workers must not inherit the compiled
    plans the sequential run cached, so both ledgers record the same
    ``sim.compile`` stages and ``plan_cache`` outcomes."""
    clear_compiled_cache()
    _, seq = _campaign_ledger(
        tmp_path, monkeypatch, "cseq", None, "vector", fresh_cache=False
    )
    _, par = _campaign_ledger(
        tmp_path, monkeypatch, "cpar", 2, "vector", fresh_cache=False
    )
    assert runlog.strip_nondeterministic(par) == (
        runlog.strip_nondeterministic(seq)
    )
    assert any(
        ev["event"] == "plan_cache" and ev["outcome"] == "compile"
        for ev in par
    )


def test_campaign_ledger_covers_pipeline_events(
    tmp_path, monkeypatch, _quiet_registry
) -> None:
    _, events = _campaign_ledger(tmp_path, monkeypatch, "cov", 2)
    kinds = {ev["event"] for ev in events}
    assert {
        "run_start", "run_end", "stage_start", "stage_end", "lint",
        "plan_cache", "backend", "fault_inject", "fault_detect",
        "fault_recover", "checkpoint", "repartition", "oracle",
    } <= kinds
    # Every worker's events landed under the one campaign run ID.
    run_ids = {ev["run"] for ev in events}
    assert len(run_ids) == 1
    tasks = {ev["task"] for ev in events if ev["task"] is not None}
    assert tasks == set(CONFIGS)


def _regime_ledger(tmp_path, monkeypatch, name: str, jobs):
    d = tmp_path / name
    monkeypatch.setenv("REPRO_RUNLOG_DIR", str(d))
    result = run_campaign(
        seed=0, configs=CONFIGS, regime=["correlated", "hammer"],
        jobs=jobs, record_metrics=False,
    )
    assert result.ok
    paths = sorted(d.glob("*.jsonl"))
    assert len(paths) == 1
    events, problems = runlog.read_ledger(paths[0])
    assert problems == []
    return paths[0], events


def test_regime_campaign_ledger_parity(
    tmp_path, monkeypatch, _quiet_registry
) -> None:
    """The regime matrix keeps the same ledger guarantees as the classic
    kind matrix: one file, jobs-independent run ID, deterministic
    content, and the new ladder events present and attributed."""
    seq_path, seq = _regime_ledger(tmp_path, monkeypatch, "rseq", None)
    par_path, par = _regime_ledger(tmp_path, monkeypatch, "rpar", 2)

    assert seq_path.name == par_path.name
    assert runlog.verify_ledger(seq) == []
    assert runlog.strip_nondeterministic(par) == (
        runlog.strip_nondeterministic(seq)
    )

    kinds = {ev["event"] for ev in seq}
    assert {"fault_regime", "quarantine"} <= kinds
    regimes = {
        ev["regime"] for ev in seq if ev["event"] == "fault_regime"
    }
    assert regimes == {"correlated", "hammer"}


def test_regime_campaign_has_distinct_run_id(
    tmp_path, monkeypatch, _quiet_registry
) -> None:
    """Regime parameters are part of the run's identity — a regime
    campaign must not collide with a classic one, and the classic run ID
    must be unchanged by the regime machinery's existence."""
    classic_path, _ = _campaign_ledger(tmp_path, monkeypatch, "classic", None)
    regime_path, _ = _regime_ledger(tmp_path, monkeypatch, "regime", None)
    assert classic_path.name != regime_path.name
