"""Profiler + hotspot attribution tests (:mod:`repro.obs.profile`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import profile as prof
from repro.obs.metrics import MetricsRegistry, set_registry


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Isolate kernel-profiler metrics from other tests."""
    reg = MetricsRegistry()
    set_registry(reg)
    yield reg
    set_registry(MetricsRegistry())


@pytest.fixture(autouse=True)
def _no_leftover_profiler():
    yield
    prof.uninstall_kernel_profiler()


# ----------------------------------------------------------------------
# Phase trees
# ----------------------------------------------------------------------

def stages(*intervals):
    """Ledger stage events for ``(name, start_ms, end_ms)`` intervals.

    Events are ordered as a run emits them: at equal times an end comes
    before a start, an enclosing stage starts before (and ends after)
    the stages it contains.
    """
    keyed = []
    for name, lo, hi in intervals:
        keyed.append(((lo, 1, -hi), {
            "event": "stage_start", "stage": name, "ts": lo / 1e3,
        }))
        keyed.append(((hi, 0, -lo), {
            "event": "stage_end", "stage": name, "ts": hi / 1e3,
            "dur_s": (hi - lo) / 1e3,
        }))
    return [ev for _, ev in sorted(keyed, key=lambda p: p[0])]


class TestPhaseTree:
    def test_nesting_from_interval_containment(self):
        events = stages(
            ("inner.a", 10, 40),
            ("inner.b", 50, 90),
            ("outer", 0, 100),
        )
        root = prof.profile_from_runlog(events, wall_s=0.1)
        outer = root.children["outer"]
        assert set(outer.children) == {"inner.a", "inner.b"}
        assert outer.total_s == pytest.approx(0.1)
        assert outer.self_s == pytest.approx(0.03)  # 100 - 30 - 40 ms

    def test_self_times_sum_to_wall(self):
        events = stages(("a", 0, 60), ("a.x", 5, 25), ("b", 60, 80))
        root = prof.profile_from_runlog(events, wall_s=0.1)
        self_sum = sum(node.self_s for _, node in root.walk())
        assert self_sum == pytest.approx(0.1)

    def test_repeated_phases_aggregate(self):
        events = stages(("step", 0, 10), ("step", 20, 35))
        root = prof.profile_from_runlog(events)
        step = root.children["step"]
        assert step.count == 2
        assert step.total_s == pytest.approx(0.025)

    def test_empty_spans(self):
        root = prof.profile_from_runlog([], wall_s=1.5)
        assert root.total_s == 1.5
        assert root.children == {}

    def test_to_dict_sorted_by_total(self):
        events = stages(("small", 0, 5), ("big", 10, 90))
        doc = prof.profile_from_runlog(events).to_dict()
        assert [c["name"] for c in doc["children"]] == ["big", "small"]
        assert doc["children"][0]["self_s"] == pytest.approx(0.08)

    def test_profile_from_runlog_rebuilds_nesting(self):
        events = [
            {"event": "run_start", "ts": 0.0},
            {"event": "stage_start", "stage": "outer", "task": "cfg", "ts": 0.1},
            {"event": "stage_start", "stage": "inner", "task": "cfg", "ts": 0.2},
            {"event": "stage_end", "stage": "inner", "task": "cfg",
             "ts": 0.5, "dur_s": 0.3},
            {"event": "stage_end", "stage": "outer", "task": "cfg",
             "ts": 0.9, "dur_s": 0.8},
            {"event": "run_end", "ts": 1.0},
        ]
        root = prof.profile_from_runlog(events, root_name="r")
        assert root.total_s == pytest.approx(1.0)
        cfg = root.children["cfg"]
        outer = cfg.children["outer"]
        assert outer.total_s == pytest.approx(0.8)
        assert outer.children["inner"].total_s == pytest.approx(0.3)
        # The task prefix node inherits its children's time, so the
        # tree's self-times telescope to the root total.
        assert cfg.total_s == pytest.approx(0.8)
        self_sum = sum(node.self_s for _, node in root.walk())
        assert self_sum == pytest.approx(root.total_s)

    def test_to_folded_format(self):
        events = stages(("a", 0, 100), ("a.x", 10, 60))
        root = prof.profile_from_runlog(events, root_name="run", wall_s=0.1)
        lines = prof.to_folded(root)
        assert "run;a;a.x 50000" in lines
        assert "run;a 50000" in lines
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            assert stack and value.isdigit()


# ----------------------------------------------------------------------
# Kernel profiler + seam
# ----------------------------------------------------------------------

class TestKernelProfiler:
    def test_record_and_summary(self, _fresh_registry):
        kp = prof.KernelProfiler(_fresh_registry)
        kp.record("mac", 100, 2e-5, depth=1, backend="vector")
        kp.record("mac", 100, 3e-5, depth=1, backend="vector")
        kp.record("min", 10, 1e-3, depth=2, backend="vector")
        rows = kp.summary()
        assert [r["opcode"] for r in rows] == ["min", "mac"]  # by total
        mac = rows[1]
        assert mac["calls"] == 2
        assert mac["elements"] == 200
        assert mac["total_s"] == pytest.approx(5e-5)
        assert 2e-5 <= mac["p99_s"] <= 5e-5

    def test_observations_land_in_registry_histogram(self, _fresh_registry):
        kp = prof.KernelProfiler(_fresh_registry)
        kp.record("mac", 7, 1e-5, depth=3)
        text = _fresh_registry.to_prometheus()
        assert "repro_profile_kernel_step_seconds_bucket" in text
        assert 'opcode="mac"' in text and 'depth="3"' in text
        assert "repro_profile_kernel_elements_total" in text

    def test_seam_install_uninstall(self):
        assert prof.kernel_profiler() is None
        kp = prof.install_kernel_profiler()
        assert prof.kernel_profiler() is kp
        assert prof.uninstall_kernel_profiler() is kp
        assert prof.kernel_profiler() is None

    def test_kernel_profiling_context(self):
        with prof.kernel_profiling() as kp:
            assert prof.kernel_profiler() is kp
        assert prof.kernel_profiler() is None

    def test_off_by_default_zero_metrics(self, _fresh_registry):
        """The zero-overhead contract: nothing recorded when off."""
        from repro.algorithms.transitive_closure import make_inputs
        from repro.algorithms.warshall import random_adjacency
        from repro.arrays.vector_sim import dispatch_simulate
        from repro.core.partitioner import partition_transitive_closure

        impl = partition_transitive_closure(n=6, m=2)
        a = random_adjacency(6, seed=0)
        dispatch_simulate(impl.exec_plan, impl.dg, make_inputs(a),
                          backend="vector")
        assert "repro_profile_kernel_step_seconds" not in _fresh_registry

    def test_vector_backend_bit_identical_under_profiler(self):
        from repro.algorithms.transitive_closure import make_inputs
        from repro.algorithms.warshall import random_adjacency
        from repro.arrays.cycle_sim import simulate
        from repro.arrays.vector_sim import simulate_vector
        from repro.core.partitioner import partition_transitive_closure

        impl = partition_transitive_closure(n=7, m=3)
        inputs = make_inputs(random_adjacency(7, seed=1))
        ref = simulate(impl.exec_plan, impl.dg, inputs)
        with prof.kernel_profiling() as kp:
            vec = simulate_vector(impl.exec_plan, impl.dg, inputs)
        assert np.array_equal(vec.output_matrix(7), ref.output_matrix(7))
        assert vec.makespan == ref.makespan
        rows = kp.summary()
        assert rows and all(r["backend"] == "vector" for r in rows)
        assert len({r["depth"] for r in rows}) > 1  # per-depth attribution

    def test_reference_interpreter_records_when_on(self):
        from repro.algorithms.transitive_closure import make_inputs
        from repro.algorithms.warshall import random_adjacency
        from repro.arrays.cycle_sim import simulate
        from repro.core.partitioner import partition_transitive_closure

        impl = partition_transitive_closure(n=6, m=2)
        inputs = make_inputs(random_adjacency(6, seed=0))
        with prof.kernel_profiling() as kp:
            simulate(impl.exec_plan, impl.dg, inputs)
        rows = kp.summary()
        assert rows and all(r["backend"] == "reference" for r in rows)


# ----------------------------------------------------------------------
# Critical path + attribution
# ----------------------------------------------------------------------

class TestCriticalPath:
    def shipped(self, geometry="linear", n=9, m=3):
        return prof.build_config_plan(geometry, n, m)

    def test_matches_makespan_on_shipped_linear_config(self):
        dg, ep = self.shipped()
        cp = prof.critical_path(ep, dg)
        assert cp.start_cycle == 0
        assert cp.end_cycle == ep.makespan - 1
        assert cp.length == ep.makespan
        assert cp.matches_makespan

    def test_matches_makespan_on_shipped_mesh_config(self):
        dg, ep = self.shipped("mesh", 10, 4)
        cp = prof.critical_path(ep, dg)
        assert cp.matches_makespan

    def test_steps_strictly_increase_in_cycle(self):
        dg, ep = self.shipped(n=7, m=3)
        cp = prof.critical_path(ep, dg)
        cycles = [s.cycle for s in cp.steps]
        assert cycles == sorted(cycles)
        assert len(set(cycles)) == len(cycles)
        assert cp.steps[-1].edge == "end"
        assert cp.steps[-1].slack == 0
        assert all(
            s.edge in ("data-local", "data-memory", "resource")
            for s in cp.steps[:-1]
        )

    def test_deterministic(self):
        dg, ep = self.shipped(n=8, m=3)
        a = prof.critical_path(ep, dg)
        b = prof.critical_path(ep, dg)
        assert [s.node for s in a.steps] == [s.node for s in b.steps]

    def test_empty_plan(self):
        from repro.arrays.plan import ExecutionPlan
        from repro.arrays.topology import linear_topology
        from repro.algorithms.transitive_closure import tc_regular

        ep = ExecutionPlan(topology=linear_topology(2), fires={})
        cp = prof.critical_path(ep, tc_regular(3))
        assert cp.steps == [] and cp.length == 0

    def test_attribution_sums_to_length(self):
        dg, ep = self.shipped()
        cp = prof.critical_path(ep, dg)
        rows = prof.attribute_makespan(cp, top=10_000)
        assert sum(r["cycles"] for r in rows) == cp.length
        assert all(0 < r["share"] <= 1 for r in rows)
        # Sorted heaviest first.
        cycles = [r["cycles"] for r in rows]
        assert cycles == sorted(cycles, reverse=True)

    def test_attribution_top_k(self):
        dg, ep = self.shipped()
        cp = prof.critical_path(ep, dg)
        assert len(prof.attribute_makespan(cp, top=3)) == 3

    def test_config_critical_report_cross_checks_simulator(self):
        rep = prof.config_critical_report("linear", 9, 3)
        assert rep["matches_makespan"] is True
        assert rep["length"] == rep["makespan"]
        assert rep["busy"] == rep["fired_nodes"]
        assert rep["hotspots"]

    def test_experiment_configs(self):
        f18 = prof.experiment_configs("F18")
        assert f18 and all(g == "linear" for g, _, _ in f18)
        f19 = prof.experiment_configs("F19")
        assert f19 and all(g == "mesh" for g, _, _ in f19)
        assert prof.experiment_configs("F20") == []


# ----------------------------------------------------------------------
# Document + rendering
# ----------------------------------------------------------------------

class TestProfileDocument:
    def doc(self):
        events = stages(("a", 0, 60), ("b", 60, 100))
        phases = prof.profile_from_runlog(events, wall_s=0.1)
        return prof.build_profile_document(
            phases, 0.1,
            kernels=[{"backend": "vector", "depth": 1, "opcode": "mac",
                      "calls": 2, "elements": 10, "total_s": 0.01,
                      "p50_s": 1e-5, "p99_s": 2e-5}],
            critical_paths=[prof.config_critical_report("linear", 6, 2)],
            experiment="F18", backend="vector",
        )

    def test_versioned_document_shape(self):
        doc = self.doc()
        assert doc["version"] == prof.PROFILE_SCHEMA_VERSION
        assert doc["kind"] == "repro-profile"
        assert doc["self_sum_s"] == pytest.approx(doc["wall_s"])
        assert doc["phases"]["children"]
        assert doc["kernels"] and doc["critical_paths"]

    def test_render_text(self):
        text = prof.render_profile_text(self.doc())
        assert "profile v1" in text
        assert "phases (top" in text
        assert "kernels (top" in text
        assert "critical path [linear-n6-m2]" in text
        assert "= makespan" in text
