"""Tests for span tracing and the Chrome trace-event exporter."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    Tracer,
    get_tracer,
    install_tracer,
    runlog,
    stage_span,
    uninstall_tracer,
)
from repro.obs.tracing import NULL_SPAN, SIM_PID, WALL_PID, Span


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Every test starts and ends with tracing off."""
    uninstall_tracer()
    yield
    uninstall_tracer()


class TestTracer:
    def test_span_records_duration_and_tags(self) -> None:
        t = Tracer()
        with t.span("stage.one", n=6) as s:
            s.tag("nodes_out", 42)
        assert len(t.spans) == 1
        done = t.spans[0]
        assert done.name == "stage.one"
        assert done.args == {"n": 6, "nodes_out": 42}
        assert done.duration_ns >= 0

    def test_nested_spans_both_recorded(self) -> None:
        t = Tracer()
        with t.span("outer"):
            with t.span("inner"):
                pass
        assert [s.name for s in t.spans] == ["inner", "outer"]

    def test_span_closed_on_exception(self) -> None:
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("bad"):
                raise RuntimeError("boom")
        assert t.spans[0].end_ns is not None

    def test_find_spans(self) -> None:
        t = Tracer()
        with t.span("a"):
            pass
        with t.span("a"):
            pass
        assert len(t.find_spans("a")) == 2
        assert t.find_spans("b") == []

    def test_fraction_tags_become_floats(self) -> None:
        from fractions import Fraction

        t = Tracer()
        with t.span("s", ratio=Fraction(1, 2)):
            pass
        assert t.spans[0].args["ratio"] == 0.5


class TestChromeExport:
    def test_trace_event_schema(self, tmp_path) -> None:
        t = Tracer()
        with t.span("stage.alpha", n=5):
            pass
        t.instant("marker", hint="here")
        t.add_chrome_event(
            {"name": "fires/cycle", "ph": "C", "ts": 3.0, "pid": SIM_PID,
             "tid": 0, "args": {"fires/cycle": 2}}
        )
        path = tmp_path / "t.json"
        count = t.write_chrome(path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        assert len(events) == count
        for ev in events:
            assert {"name", "ph", "pid"} <= set(ev)
            if ev["ph"] == "X":
                assert "ts" in ev and "dur" in ev and ev["dur"] >= 0
        x = [e for e in events if e["ph"] == "X"]
        assert x[0]["name"] == "stage.alpha"
        assert x[0]["pid"] == WALL_PID
        assert x[0]["args"]["n"] == 5

    def test_process_metadata_present(self) -> None:
        doc = Tracer().to_chrome()
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {e["pid"] for e in meta} == {WALL_PID, SIM_PID}


class TestStageSpan:
    def test_noop_without_tracer(self, tmp_path, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_RUNLOG_DIR", str(tmp_path))
        assert get_tracer() is None
        assert runlog.current_run() is None
        with stage_span("anything", n=1) as sp:
            assert sp is NULL_SPAN
            sp.tag("x", 1)  # must be harmless
        # Neither sink installed: nothing recorded, nothing written.
        assert get_tracer() is None
        assert list(tmp_path.iterdir()) == []

    def test_records_when_installed(self) -> None:
        t = install_tracer()
        with stage_span("stage.beta", m=4) as sp:
            sp.tag("out", 9)
        assert t.find_spans("stage.beta")[0].args == {"m": 4, "out": 9}

    def test_open_run_gets_a_stage_pair(self) -> None:
        from fractions import Fraction

        with runlog.worker_scope({"run": "r-1", "entry": "t"}) as rl:
            with stage_span("stage.gamma", n=5) as sp:
                assert isinstance(sp, Span)
                sp.tag("ratio", Fraction(1, 2))
        start, end = rl.events
        assert start["event"] == "stage_start"
        assert start["stage"] == "stage.gamma" and start["n"] == 5
        assert end["event"] == "stage_end" and end["stage"] == "stage.gamma"
        # Tags set inside the block go on stage_end, JSON-converted.
        assert end["ratio"] == 0.5 and "n" not in end
        assert end["dur_s"] >= 0

    def test_both_sinks_record_one_stage(self) -> None:
        t = install_tracer()
        with runlog.worker_scope({"run": "r-1", "entry": "t"}) as rl:
            with pytest.raises(RuntimeError):
                with stage_span("stage.delta", m=4) as sp:
                    sp.tag("out", 9)
                    raise RuntimeError("boom")
        [span] = t.find_spans("stage.delta")
        assert span.args == {"m": 4, "out": 9}
        assert span.end_ns is not None
        assert [ev["event"] for ev in rl.events] == [
            "stage_start", "stage_end",
        ]
        assert rl.events[1]["error"] == "RuntimeError"
        assert rl.events[1]["out"] == 9

    def test_install_uninstall_roundtrip(self) -> None:
        t = install_tracer()
        assert get_tracer() is t
        assert uninstall_tracer() is t
        assert get_tracer() is None


class TestPipelineIntegration:
    def test_partition_pipeline_emits_stage_spans(self) -> None:
        from repro import partition_transitive_closure

        t = install_tracer()
        impl = partition_transitive_closure(n=6, m=3)
        _ = impl.exec_plan
        names = {s.name for s in t.spans}
        assert {
            "frontend.tc_regular",
            "partition.group",
            "partition.select_gsets",
            "partition.schedule",
            "partition.verify",
            "partition.evaluate",
            "plan.partitioned",
        } <= names
        group = t.find_spans("partition.group")[0]
        assert group.args["nodes"] > 0 and group.args["gnodes"] > 0
        plan = t.find_spans("plan.partitioned")[0]
        assert plan.args["fires"] == len(impl.exec_plan.fires)
        assert plan.args["makespan"] == impl.exec_plan.makespan
        assert plan.args["stall_cycles"] == 0

    def test_transforms_emit_spans_with_node_counts(self) -> None:
        from repro.algorithms.transitive_closure import tc_pruned
        from repro.core.transform import pipeline_broadcasts

        t = install_tracer()
        dg = tc_pruned(5)
        pipeline_broadcasts(dg)
        span = t.find_spans("transform.pipeline_broadcasts")[0]
        assert span.args["nodes_in"] == len(dg)
        assert span.args["edges_in"] > 0
        assert "nodes_out" in span.args

    def test_campaign_and_verify_emit_spans(self) -> None:
        from repro import partition_transitive_closure
        from repro.core.verify import verify_implementation
        from repro.resilience import run_campaign

        t = install_tracer()
        run_campaign(
            seed=0, configs=["linear-n9-m3"], kinds=["transient"],
            record_metrics=False,
        )
        verify_implementation(partition_transitive_closure(n=6, m=3), trials=1)
        names = {s.name for s in t.spans}
        assert {
            "campaign.config", "campaign.cell",
            "verify.preflight", "verify.trials",
        } <= names
        assert t.find_spans("campaign.cell")[0].args == {"kind": "transient"}

    def test_chained_instances_emit_spans(self) -> None:
        from repro.algorithms.transitive_closure import (
            make_inputs,
            tc_regular,
        )
        from repro.algorithms.warshall import random_adjacency
        from repro.arrays.pipeline import run_chained_instances
        from repro.arrays.plan import fixed_array_plan, min_initiation_interval
        from repro.core.ggraph import GGraph, group_by_columns

        n = 5
        dg = tc_regular(n)
        gg = GGraph(dg, group_by_columns)
        ep = fixed_array_plan(gg)
        delta = min_initiation_interval(ep)
        envs = [make_inputs(random_adjacency(n, seed=s)) for s in (0, 1)]
        t = install_tracer()
        run_chained_instances(dg, ep, envs, delta)
        names = {s.name for s in t.spans}
        assert {"chain.replicate_graph", "chain.chain_plans", "sim.simulate"} <= names


class TestTracedRun:
    def test_normal_exit_returns_tracer_without_flush(self, tmp_path) -> None:
        from repro.obs import traced_run

        out = tmp_path / "t.json"
        with traced_run(out) as tracer:
            with stage_span("stage.work"):
                pass
        assert get_tracer() is None
        assert len(tracer.find_spans("stage.work")) == 1
        # Normal exit leaves export to the caller.
        assert not out.exists()

    def test_crash_flushes_valid_partial_trace(self, tmp_path) -> None:
        from repro.obs import traced_run

        out = tmp_path / "crash.json"
        with pytest.raises(RuntimeError, match="kaboom"):
            with traced_run(out):
                with stage_span("stage.before"):
                    pass
                with stage_span("stage.during"):
                    raise RuntimeError("kaboom")
        assert get_tracer() is None  # uninstalled during unwind
        doc = json.loads(out.read_text())
        names = [ev["name"] for ev in doc["traceEvents"]]
        # Every stage up to the failure survived, spans are closed
        # (complete "X" events), and the terminal error marker is there.
        assert "stage.before" in names
        assert "stage.during" in names
        assert "trace.error" in names
        err = next(
            ev for ev in doc["traceEvents"] if ev["name"] == "trace.error"
        )
        assert err["ph"] == "i"
        assert err["args"]["error"] == "RuntimeError"
        assert err["args"]["message"] == "kaboom"

    def test_crash_without_path_still_uninstalls(self) -> None:
        from repro.obs import traced_run

        with pytest.raises(ValueError):
            with traced_run():
                raise ValueError("x")
        assert get_tracer() is None
