"""Run-ledger unit tests: identity, scopes, merge, integrity, queries."""

from __future__ import annotations

import json

import pytest

from repro.obs import runlog
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.tracing import stage_span


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Isolate run-close metrics from other tests."""
    reg = MetricsRegistry()
    set_registry(reg)
    yield reg
    set_registry(MetricsRegistry())


# ----------------------------------------------------------------------
# Identity
# ----------------------------------------------------------------------

def test_run_id_deterministic():
    a = runlog.make_run_id("campaign", {"seed": 0, "configs": ["x"]})
    b = runlog.make_run_id("campaign", {"configs": ["x"], "seed": 0})
    assert a == b
    assert a.startswith("campaign-")
    assert len(a.split("-")[-1]) == 12


def test_run_id_sensitive_to_params_and_entry():
    base = runlog.make_run_id("campaign", {"seed": 0})
    assert runlog.make_run_id("campaign", {"seed": 1}) != base
    assert runlog.make_run_id("verify", {"seed": 0}) != base


def test_ledger_path_respects_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUNLOG_DIR", str(tmp_path / "led"))
    assert runlog.ledger_path("r-1") == tmp_path / "led" / "r-1.jsonl"
    # Explicit override beats the environment.
    assert runlog.ledger_path("r-1", tmp_path) == tmp_path / "r-1.jsonl"


# ----------------------------------------------------------------------
# Scopes and emission
# ----------------------------------------------------------------------

def test_emit_is_noop_without_scope():
    assert runlog.current_run() is None
    runlog.record("lint", ok=True)  # must not raise
    with runlog.task_scope("t"), stage_span("s"):
        pass
    assert runlog.current_run_id() is None
    assert runlog.current_task() == ""


def test_run_scope_writes_ledger(tmp_path):
    with runlog.run_scope("verify", {"n": 5}, dir=tmp_path) as rl:
        assert rl is not None
        assert runlog.current_run_id() == rl.run_id
        with runlog.task_scope("task-a"):
            assert runlog.current_task() == "task-a"
            runlog.record("oracle", ok=True)
        with stage_span("trials", trials=3):
            pass
    path = tmp_path / f"{rl.run_id}.jsonl"
    events = [json.loads(line) for line in path.read_text().splitlines()]
    names = [ev["event"] for ev in events]
    assert names == [
        "run_start", "oracle", "stage_start", "stage_end", "run_end",
    ]
    assert events[1]["task"] == "task-a"
    assert events[2]["task"] is None
    assert events[3]["dur_s"] >= 0
    assert events[-1]["ok"] is True
    assert [ev["seq"] for ev in events] == list(range(len(events)))
    assert all(ev["v"] == runlog.RUNLOG_SCHEMA_VERSION for ev in events)
    assert runlog.verify_ledger(events) == []


def test_nested_run_scope_joins_active_run(tmp_path):
    with runlog.run_scope("faults", {"seed": 0}, dir=tmp_path) as outer:
        with runlog.run_scope("campaign", {"seed": 0}, dir=tmp_path) as inner:
            assert inner is outer
            runlog.record("backend", backend="reference")
    assert len(list(tmp_path.glob("*.jsonl"))) == 1


def test_disabled_via_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUNLOG", "0")
    with runlog.run_scope("verify", {}, dir=tmp_path) as rl:
        assert rl is None
        runlog.record("oracle", ok=True)
    assert list(tmp_path.glob("*.jsonl")) == []


def test_error_path_flushes_partial_ledger(tmp_path):
    with pytest.raises(RuntimeError, match="boom"):
        with runlog.run_scope("verify", {"n": 5}, dir=tmp_path) as rl:
            runlog.record("backend", backend="reference")
            raise RuntimeError("boom")
    events, problems = runlog.read_ledger(
        tmp_path / f"{rl.run_id}.jsonl"
    )
    assert problems == []
    names = [ev["event"] for ev in events]
    assert names == ["run_start", "backend", "error", "run_end"]
    assert events[2]["error"] == "RuntimeError"
    assert events[2]["message"] == "boom"
    assert events[-1]["ok"] is False
    assert runlog.current_run() is None  # scope fully unwound


def test_reserved_field_collision_rejected(tmp_path):
    with runlog.run_scope("verify", {}, dir=tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            runlog.record("oracle", seq=7)


def test_run_close_metrics_published(tmp_path, _fresh_registry):
    with runlog.run_scope("verify", {"n": 5}, dir=tmp_path):
        runlog.record("oracle", ok=True)
    series = {
        (name, tuple(sorted(s["labels"].items()))): s["value"]
        for name, m in _fresh_registry.to_json().items()
        for s in m["series"]
    }
    assert series[(
        "repro_runs_total", (("entry", "verify"), ("ok", "True")),
    )] == 1
    assert series[(
        "repro_run_events_total",
        (("entry", "verify"), ("event", "oracle")),
    )] == 1


# ----------------------------------------------------------------------
# Event-buffer cap
# ----------------------------------------------------------------------

def test_runlog_max_events_env(monkeypatch):
    assert runlog.runlog_max_events() == runlog.DEFAULT_MAX_EVENTS
    monkeypatch.setenv("REPRO_RUNLOG_MAX_EVENTS", "500")
    assert runlog.runlog_max_events() == 500
    monkeypatch.setenv("REPRO_RUNLOG_MAX_EVENTS", "bogus")
    assert runlog.runlog_max_events() == runlog.DEFAULT_MAX_EVENTS
    monkeypatch.setenv("REPRO_RUNLOG_MAX_EVENTS", "1")
    assert runlog.runlog_max_events() == 2  # floor: run_start + run_end


def test_event_cap_drops_with_single_marker(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUNLOG_MAX_EVENTS", "5")
    with runlog.run_scope("verify", {"n": 5}, dir=tmp_path) as rl:
        for i in range(20):
            runlog.record("oracle", ok=True, i=i)
    events, problems = runlog.read_ledger(tmp_path / f"{rl.run_id}.jsonl")
    assert problems == []
    names = [ev["event"] for ev in events]
    # run_start + 4 oracles fill the cap of 5; the single overflow
    # marker takes the next slot, and the terminal run_end always lands.
    assert names == [
        "run_start", "oracle", "oracle", "oracle", "oracle",
        "events_dropped", "run_end",
    ]
    marker = events[5]
    assert marker["limit"] == 5
    assert marker["dropped"] == 16
    # seq stays contiguous: the marker consumes exactly one seq.
    assert [ev["seq"] for ev in events] == list(range(len(events)))


def test_event_cap_terminal_events_always_kept(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUNLOG_MAX_EVENTS", "2")
    with pytest.raises(RuntimeError, match="boom"):
        with runlog.run_scope("verify", {}, dir=tmp_path) as rl:
            for _ in range(10):
                runlog.record("oracle", ok=True)
            raise RuntimeError("boom")
    events, _ = runlog.read_ledger(tmp_path / f"{rl.run_id}.jsonl")
    names = [ev["event"] for ev in events]
    assert names[0] == "run_start"
    assert "events_dropped" in names
    assert names[-2:] == ["error", "run_end"]


def test_event_cap_publishes_dropped_metric(tmp_path, monkeypatch,
                                            _fresh_registry):
    monkeypatch.setenv("REPRO_RUNLOG_MAX_EVENTS", "3")
    with runlog.run_scope("verify", {}, dir=tmp_path):
        for _ in range(6):
            runlog.record("oracle", ok=True)
    doc = _fresh_registry.to_json()["repro_run_events_dropped_total"]
    [series] = doc["series"]
    assert series["labels"] == {"entry": "verify"}
    assert series["value"] == 4  # run_start + 2 kept of 6 emitted


def test_event_cap_applies_to_absorbed_workers(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUNLOG_MAX_EVENTS", "4")
    with runlog.run_scope("campaign", {"seed": 0}, dir=tmp_path) as rl:
        payload = runlog.worker_payload()
        with runlog.worker_scope(payload, task="cfg-a") as wrl:
            for _ in range(10):
                runlog.record("oracle", ok=True)
        rl.absorb(wrl.events)
    events, _ = runlog.read_ledger(tmp_path / f"{rl.run_id}.jsonl")
    assert [ev["seq"] for ev in events] == list(range(len(events)))
    assert sum(1 for ev in events if ev["event"] == "events_dropped") == 1
    assert rl.dropped > 0


def test_no_drops_means_no_marker(tmp_path):
    with runlog.run_scope("verify", {}, dir=tmp_path) as rl:
        runlog.record("oracle", ok=True)
    events, _ = runlog.read_ledger(tmp_path / f"{rl.run_id}.jsonl")
    assert all(ev["event"] != "events_dropped" for ev in events)


# ----------------------------------------------------------------------
# Worker propagation
# ----------------------------------------------------------------------

def test_worker_scope_merge_matches_sequential(tmp_path):
    """A parent + two worker buffers == one sequential task sequence."""
    with runlog.run_scope("campaign", {"seed": 0}, dir=tmp_path) as rl:
        payload = runlog.worker_payload()
        buffers = []
        for name in ("cfg-a", "cfg-b"):
            # Simulate each worker in-process: worker_scope must shadow
            # the (forked) parent's active scope and restore it after.
            with runlog.worker_scope(payload, task=name) as wrl:
                assert wrl is not None and wrl is not rl
                runlog.record("oracle", ok=True)
            buffers.append(wrl.events)
        assert runlog.current_run() is rl  # parent scope restored
        for events in buffers:
            rl.absorb(events)
    events, _ = runlog.read_ledger(tmp_path / f"{rl.run_id}.jsonl")
    assert [ev["seq"] for ev in events] == list(range(len(events)))
    assert [ev.get("task") for ev in events[1:-1]] == ["cfg-a", "cfg-b"]
    assert all(ev["run"] == rl.run_id for ev in events)
    assert runlog.verify_ledger(events) == []


def test_worker_scope_none_payload_records_nothing():
    with runlog.worker_scope(None, task="x") as rl:
        assert rl is None
        runlog.record("oracle", ok=True)  # no-op


# ----------------------------------------------------------------------
# Integrity checks
# ----------------------------------------------------------------------

def _sample_events(tmp_path):
    with runlog.run_scope("verify", {"n": 5}, dir=tmp_path) as rl:
        with stage_span("trials"):
            runlog.record("oracle", ok=True)
    events, _ = runlog.read_ledger(tmp_path / f"{rl.run_id}.jsonl")
    return events


def test_verify_detects_tampered_seq(tmp_path):
    events = _sample_events(tmp_path)
    events[2]["seq"] = 99
    assert any("non-contiguous" in f for f in runlog.verify_ledger(events))


def test_verify_detects_missing_run_end(tmp_path):
    events = _sample_events(tmp_path)[:-1]
    assert any("run_end" in f for f in runlog.verify_ledger(events))


def test_verify_detects_unbalanced_stage(tmp_path):
    events = _sample_events(tmp_path)
    events = [ev for ev in events if ev["event"] != "stage_end"]
    for i, ev in enumerate(events):
        ev["seq"] = i
    assert any("unclosed stage" in f for f in runlog.verify_ledger(events))


def test_verify_detects_timestamp_regression(tmp_path):
    events = _sample_events(tmp_path)
    events[2]["ts"] = events[1]["ts"] - 10.0
    assert any("regression" in f for f in runlog.verify_ledger(events))


def test_verify_detects_orphan_run(tmp_path):
    events = _sample_events(tmp_path)
    events[1]["run"] = "other-000000000000"
    assert any("orphan" in f for f in runlog.verify_ledger(events))


def test_verify_detects_schema_mismatch(tmp_path):
    events = _sample_events(tmp_path)
    events[1]["v"] = 99
    assert any("schema version" in f for f in runlog.verify_ledger(events))


def test_read_ledger_reports_bad_lines(tmp_path):
    p = tmp_path / "x.jsonl"
    p.write_text('{"v": 1}\nnot json\n[1, 2]\n')
    events, problems = runlog.read_ledger(p)
    assert len(events) == 1
    assert len(problems) == 2


# ----------------------------------------------------------------------
# Queries: list / summarize / show / diff
# ----------------------------------------------------------------------

def test_list_runs_and_summarize(tmp_path):
    with runlog.run_scope("verify", {"n": 5}, dir=tmp_path):
        runlog.record("oracle", ok=True)
    with runlog.run_scope("campaign", {"seed": 0}, dir=tmp_path):
        with runlog.task_scope("cfg-a"):
            runlog.record("oracle", ok=True)
    runs = runlog.list_runs(tmp_path)
    assert len(runs) == 2
    assert {r["entry"] for r in runs} == {"verify", "campaign"}
    camp = next(r for r in runs if r["entry"] == "campaign")
    assert camp["ok"] is True
    assert camp["tasks"] == ["cfg-a"]
    assert camp["counts"]["oracle"] == 1


def test_format_show_smoke(tmp_path):
    events = _sample_events(tmp_path)
    text = runlog.format_show(events)
    assert "run_start" in text and "oracle" in text and "trials" in text


def test_format_diff_identical_and_differing(tmp_path):
    a = _sample_events(tmp_path)
    text, identical = runlog.format_diff(a, a, "a", "b")
    assert identical
    assert "identical" in text
    b = [dict(ev) for ev in a]
    b[2]["ok"] = False
    text, identical = runlog.format_diff(a, b, "a", "b")
    assert not identical


def test_strip_nondeterministic_removes_wall_clock(tmp_path):
    events = _sample_events(tmp_path)
    for ev in runlog.strip_nondeterministic(events):
        assert not (set(ev) & runlog.NONDETERMINISTIC_FIELDS)
