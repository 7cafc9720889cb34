"""The event→counter table: every table counter is a view of the ledger.

``runlog.record()`` writes each fact once: it appends the event to the
open ledger and applies the ``EVENT_METRICS`` rows for it.  These tests
recompute every row from the ledger events of real workloads and compare
it with the registry, check the table against the documented event
schema, pin one help text per metric, and exercise the static check
that keeps other modules from updating the table's metrics directly.
"""

from __future__ import annotations

import importlib.util
import re
from collections import defaultdict
from pathlib import Path

import pytest

from repro.algorithms.warshall import random_adjacency
from repro.arrays.vector_compile import clear_compiled_cache, compiled_cache_info
from repro.cli import main
from repro.core.partitioner import partition_transitive_closure
from repro.lint import LintTarget, clear_lint_cache, lint_cache_info
from repro.lint.passes_plan import check_fallback_audit
from repro.obs import runlog
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.resilience import run_campaign

ROOT = Path(__file__).resolve().parents[2]
CONFIGS = ["linear-n9-m3", "mesh-n8-m4"]


@pytest.fixture
def registry():
    """A fresh process registry (and empty plan/lint caches) per test."""
    reg = MetricsRegistry()
    prev = set_registry(reg)
    clear_compiled_cache()
    clear_lint_cache()
    try:
        yield reg
    finally:
        set_registry(prev)


def _uncounted(ev: dict) -> bool:
    # run_lint(record_metrics=False) (the resilient runtime's policy and
    # resume gates) marks its ``lint`` event as counting no lint run.
    return ev.get("counted", True) is False


def _recompute(rule: runlog.CounterRule, events: list[dict]) -> dict:
    """One table row's series, rebuilt from ledger events alone."""
    series: dict[tuple, float] = defaultdict(float)
    for ev in events:
        if (
            ev["event"] != rule.event
            or ev.get("outcome") != rule.outcome
            or (rule.when is not None and not rule.when(ev))
            or _uncounted(ev)
        ):
            continue
        labels = tuple(sorted(
            (name, str((ev["task"] or "") if src == "task" else ev[src]))
            for name, src in rule.labels.items()
        ))
        series[labels] += 1 if rule.amount is None else ev[rule.amount]
    return dict(series)


def _registry_series(reg: MetricsRegistry, metric: str) -> dict:
    m = reg.get(metric)
    if m is None:
        return {}
    return {
        tuple(sorted(s["labels"].items())): s["value"]
        for s in m.to_json()["series"]
    }


def test_counters_are_a_view_of_the_ledger(
    registry, tmp_path, monkeypatch
) -> None:
    monkeypatch.delenv("REPRO_LINT_PLANNER", raising=False)
    with runlog.run_scope("view", {}, dir=tmp_path) as rl:
        assert rl is not None
        for backend in ("reference", "vector"):
            assert run_campaign(seed=3, configs=CONFIGS, backend=backend).ok
        assert run_campaign(seed=3, configs=CONFIGS, regime="hammer").ok
        monkeypatch.setenv("REPRO_LINT_PLANNER", "1")
        impl = partition_transitive_closure(n=8, m=3)
        a = random_adjacency(8, seed=2)
        res = impl.simulate(a, backend="vector")
        assert res.ok
    events = rl.events
    seen = set()
    for rule in runlog.EVENT_METRICS:
        want = _recompute(rule, events)
        got = _registry_series(registry, rule.metric)
        assert got.keys() == want.keys(), rule.metric
        for key, value in want.items():
            assert got[key] == pytest.approx(value), (rule.metric, key)
        if want:
            seen.add(rule.metric)
    # The workload reaches every part of the table it is meant to.
    assert {
        "repro_plan_cache_hits_total", "repro_plan_cache_misses_total",
        "repro_vector_compile_seconds_total", "repro_vector_fallback_total",
        "repro_lint_cache_misses_total", "repro_lint_runs_total",
        "repro_fault_injected_total", "repro_fault_detected_total",
        "repro_fault_retries_total", "repro_fault_repartitions_total",
        "repro_cell_quarantined_total",
    } <= seen


def test_record_metrics_false_writes_the_event_but_no_counter(
    registry, tmp_path
) -> None:
    with runlog.run_scope("optout", {}, dir=tmp_path) as rl:
        runlog.record("lint", metrics=False, target="t", ok=True,
                      errors=0, warnings=0, passes=1)
    assert [ev["event"] for ev in rl.events].count("lint") == 1
    assert registry.get("repro_lint_runs_total") is None


def test_counters_update_with_no_ledger_open(registry) -> None:
    assert runlog.current_run() is None
    runlog.record("fallback", backend="vector", reason="probe")
    runlog.record("plan_cache", outcome="summary", hits=1, misses=0)
    assert runlog.event_counter("repro_vector_fallback_total").value(
        reason="probe"
    ) == 1
    assert registry.get("repro_plan_cache_hits_total") is None


def test_every_table_event_is_documented_and_metrics_are_unique() -> None:
    doc = (ROOT / "docs" / "observability.md").read_text()
    rows = {
        m.group(1): line
        for line in doc.splitlines()
        for m in [re.match(r"\|\s*`([a-z_]+)`\s*\|", line)]
        if m
    }
    for rule in runlog.EVENT_METRICS:
        assert rule.event in rows, rule.event
        assert rule.metric in rows[rule.event], (rule.event, rule.metric)
    metrics = [rule.metric for rule in runlog.EVENT_METRICS]
    assert len(metrics) == len(set(metrics))


def _fallback_help(audit_first: bool) -> list[str]:
    reg = MetricsRegistry()
    prev = set_registry(reg)
    try:
        target = LintTarget(description="fallback audit")
        if audit_first:
            assert not list(check_fallback_audit(target))
        runlog.record("fallback", backend="vector", reason="bitpack")
        assert not list(check_fallback_audit(target))
    finally:
        set_registry(prev)
    return [
        line for line in reg.to_prometheus().splitlines()
        if line.startswith("# HELP repro_vector_fallback_total")
    ]


def test_one_help_text_in_either_registration_order() -> None:
    expected = [
        "# HELP repro_vector_fallback_total "
        "Vector-backend fast-path fallbacks by reason"
    ]
    assert _fallback_help(audit_first=True) == expected
    assert _fallback_help(audit_first=False) == expected


def test_cache_info_readers_do_not_register_other_help(registry) -> None:
    assert compiled_cache_info() == {"hits": 0, "misses": 0, "size": 0}
    assert registry.get("repro_plan_cache_hits_total") is None
    assert lint_cache_info()["misses"] == 0
    assert (
        registry.get("repro_lint_cache_misses_total").help
        == "Planner-tier lint runs that executed the passes"
    )


def test_preflight_lint_cache_miss_reaches_the_ledger(
    registry, tmp_path, monkeypatch, capsys
) -> None:
    monkeypatch.setenv("REPRO_LINT_PLANNER", "1")
    monkeypatch.setenv("REPRO_RUNLOG_DIR", str(tmp_path))
    assert main([
        "partition", "--n", "8", "--m", "3", "--simulate",
        "--backend", "vector",
    ]) == 0
    capsys.readouterr()
    (ledger,) = tmp_path.glob("partition-*.jsonl")
    events, problems = runlog.read_ledger(ledger)
    assert not problems
    misses = [
        ev for ev in events
        if ev["event"] == "lint_cache" and ev["outcome"] == "miss"
    ]
    counted = registry.get("repro_lint_cache_misses_total").value()
    assert counted == len(misses) == 1
    assert misses[0]["target"].endswith("planner preflight")


def _check_static():
    spec = importlib.util.spec_from_file_location(
        "check_static", ROOT / "tools" / "check_static.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_static_check_knows_the_table() -> None:
    mod = _check_static()
    assert mod.table_metrics(ROOT) == {
        rule.metric for rule in runlog.EVENT_METRICS
    }


def test_static_check_flags_a_table_metric_updated_elsewhere(tmp_path) -> None:
    mod = _check_static()
    owned = mod.table_metrics(ROOT)
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from repro.obs.metrics import get_registry\n\n\n"
        "def f() -> None:\n"
        '    get_registry().counter("repro_plan_cache_hits_total").inc()\n'
        '    get_registry().counter("repro_sim_other_total").inc()\n'
    )
    problems = mod.check_file(bad, strict_types=False, owned=owned)
    assert len(problems) == 1
    assert "repro_plan_cache_hits_total" in problems[0]
    assert not mod.check_file(bad, strict_types=False, owned=None)
