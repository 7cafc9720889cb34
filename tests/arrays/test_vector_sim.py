"""Cross-backend equivalence: the vector backend vs the reference
interpreter, over every shipped configuration and the error paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.transitive_closure import make_inputs, tc_regular
from repro.algorithms.warshall import random_adjacency
from repro.core.ggraph import GGraph, group_by_columns
from repro.core.graph import GraphError
from repro.core.gsets import make_linear_gsets, make_mesh_gsets, schedule_gsets
from repro.core.partitioner import partition_transitive_closure
from repro.arrays.cycle_sim import SimulationError, simulate
from repro.arrays.plan import partitioned_plan
from repro.arrays.vector_compile import (
    UnvectorizableGraphError,
    clear_compiled_cache,
    compile_plan,
    compiled_cache_info,
    get_compiled,
    plan_fingerprint,
)
from repro.arrays.vector_sim import (
    BACKENDS,
    dispatch_simulate,
    get_backend,
    resolve_backend,
    set_default_backend,
    simulate_vector,
)
from repro.lint.configs import SHIPPED_CONFIGS
from repro.resilience import FaultKind, FaultSpec, run_resilient_closure


def build(n, m, geometry="linear", aligned=True):
    dg = tc_regular(n)
    gg = GGraph(dg, group_by_columns)
    if geometry == "linear":
        plan = make_linear_gsets(gg, m, aligned=aligned)
    else:
        plan = make_mesh_gsets(gg, m)
    order = schedule_gsets(plan, "vertical")
    return dg, partitioned_plan(plan, order)


def assert_identical(ref, vec) -> None:
    """Every observable SimResult field must match bit for bit."""
    assert vec.makespan == ref.makespan
    assert vec.cells == ref.cells
    assert vec.busy == ref.busy
    assert vec.useful == ref.useful
    assert vec.memory_words == ref.memory_words
    assert vec.memory_reads == ref.memory_reads
    assert vec.input_deadlines == ref.input_deadlines
    assert vec.input_cells == ref.input_cells
    assert vec.input_cell_of == ref.input_cell_of
    assert vec.violations == ref.violations
    assert set(vec.outputs) == set(ref.outputs)
    for nid, value in ref.outputs.items():
        assert vec.outputs[nid] == value, nid


class TestShippedConfigEquivalence:
    @pytest.mark.parametrize(
        "cfg", SHIPPED_CONFIGS, ids=[c.name for c in SHIPPED_CONFIGS]
    )
    def test_bit_identical_on_shipped_config(self, cfg) -> None:
        target = cfg.build()
        dg, ep = target.dg, target.exec_plan
        n = int(round(len(dg.inputs) ** 0.5))
        inputs = make_inputs(random_adjacency(n, 0.35, seed=7))
        ref = simulate(ep, dg, inputs)
        vec = simulate_vector(ep, dg, inputs)
        assert_identical(ref, vec)
        assert np.array_equal(ref.output_matrix(n), vec.output_matrix(n))


class TestErrorParity:
    def test_violations_match_on_tampered_plan(self) -> None:
        dg, ep = build(8, 3)
        victim = max(ep.fires, key=lambda nid: ep.fires[nid][1])
        cell, _t = ep.fires[victim]
        ep.fires[victim] = (cell, 0)  # fire before its operands exist
        inputs = make_inputs(random_adjacency(8, seed=3))
        ref = simulate(ep, dg, inputs)
        vec = simulate_vector(ep, dg, inputs)
        assert ref.violations and vec.violations == ref.violations

    def test_strict_raises_the_same_first_violation(self) -> None:
        dg, ep = build(8, 3)
        victim = max(ep.fires, key=lambda nid: ep.fires[nid][1])
        cell, _t = ep.fires[victim]
        ep.fires[victim] = (cell, 0)
        inputs = make_inputs(random_adjacency(8, seed=3))
        with pytest.raises(SimulationError) as ref_err:
            simulate(ep, dg, inputs, strict=True)
        with pytest.raises(SimulationError) as vec_err:
            simulate_vector(ep, dg, inputs, strict=True)
        assert str(vec_err.value) == str(ref_err.value)

    def test_missing_input_raises_the_same_error(self) -> None:
        dg, ep = build(6, 2)
        inputs = make_inputs(random_adjacency(6, seed=1))
        missing = sorted(inputs)[3]
        del inputs[missing]
        assert inputs.matrix is None  # a mutated grid is a plain mapping
        with pytest.raises(GraphError) as ref_err:
            simulate(ep, dg, inputs)
        with pytest.raises(GraphError) as vec_err:
            simulate_vector(ep, dg, inputs)
        assert str(vec_err.value) == str(ref_err.value)
        assert repr(missing) in str(vec_err.value)

    def test_uncovered_slot_node_raises_like_reference(self) -> None:
        from repro.core.semiring import BOOLEAN

        dg, ep = build(6, 2)
        victim = next(iter(ep.fires))
        del ep.fires[victim]
        inputs = make_inputs(random_adjacency(6, seed=1))
        with pytest.raises(GraphError, match="does not cover"):
            simulate(ep, dg, inputs)
        with pytest.raises(GraphError, match="does not cover"):
            compile_plan(ep, dg, BOOLEAN)


class TestGridPath:
    """Contracts of binding an :class:`InputGrid` and of array outputs."""

    def _errors(self, fn):
        try:
            fn()
        except Exception as exc:  # compared across backends
            return type(exc), str(exc)
        return None

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_wrong_size_matrix_fails_alike(self, delta: int) -> None:
        impl = partition_transitive_closure(n=6, m=2)
        a = random_adjacency(6 + delta, seed=2)
        ref = self._errors(lambda: impl.run(a, backend="reference"))
        vec = self._errors(lambda: impl.run(a, backend="vector"))
        assert ref is not None and vec == ref

    @pytest.mark.parametrize("strict", [False, True])
    def test_deleted_key_names_the_node_on_both_backends(
        self, strict: bool
    ) -> None:
        dg, ep = build(6, 2)
        if strict:  # a violation the walk reaches after every input
            victim = max(ep.fires, key=lambda nid: ep.fires[nid][1])
            ep.fires[victim] = (ep.fires[victim][0], 0)
        for missing in (("in", 0, 0), ("in", 5, 2)):
            inputs = make_inputs(random_adjacency(6, seed=1))
            del inputs[missing]
            ref = self._errors(lambda: simulate(ep, dg, inputs, strict=strict))
            vec = self._errors(
                lambda: simulate_vector(ep, dg, inputs, strict=strict)
            )
            assert vec == ref == (
                GraphError, f"no value supplied for input {missing!r}"
            )

    def test_strict_violation_on_a_full_grid(self) -> None:
        dg, ep = build(8, 3)
        victim = max(ep.fires, key=lambda nid: ep.fires[nid][1])
        ep.fires[victim] = (ep.fires[victim][0], 0)
        inputs = make_inputs(random_adjacency(8, seed=3))
        ref = self._errors(lambda: simulate(ep, dg, inputs, strict=True))
        vec = self._errors(
            lambda: simulate_vector(ep, dg, inputs, strict=True)
        )
        assert vec == ref and ref[0] is SimulationError

    def test_later_changes_to_the_matrix_do_not_leak(self) -> None:
        impl = partition_transitive_closure(n=7, m=3)
        a = random_adjacency(7, seed=4)
        expected = impl.run(a, backend="reference")
        inputs = make_inputs(a)
        a[:] = 1 - a
        vec = simulate_vector(impl.exec_plan, impl.dg, inputs)
        assert np.array_equal(vec.output_matrix(7), expected)
        assert inputs._env is None  # the replay never built the dict

    def test_input_grid_pickles_attached(self) -> None:
        import pickle

        from repro.core.semiring import MIN_PLUS

        inputs = make_inputs(random_adjacency(6, seed=5), MIN_PLUS)
        back = pickle.loads(pickle.dumps(inputs))
        assert back.matrix is not None
        assert np.array_equal(back.matrix, inputs.matrix)
        assert back == inputs and dict(back) == dict(inputs)

    def test_input_grid_needs_a_square_matrix(self) -> None:
        from repro.algorithms.transitive_closure import InputGrid

        with pytest.raises(ValueError, match="square"):
            InputGrid(np.zeros((2, 8), dtype=np.bool_))

    def test_outputs_mapping_and_fresh_matrices(self) -> None:
        from repro.algorithms.transitive_closure import OutputGrid
        from repro.core.semiring import MIN_PLUS

        dg, ep = build(7, 3)
        inputs = make_inputs(random_adjacency(7, seed=6))
        ref = simulate(ep, dg, inputs)
        vec = simulate_vector(ep, dg, inputs)
        assert isinstance(vec.outputs, OutputGrid)
        assert vec.outputs == ref.outputs and ref.outputs == vec.outputs
        assert list(vec.outputs) == list(ref.outputs)
        first = vec.output_matrix(7)
        first[:] = False
        second = vec.output_matrix(7)
        assert np.array_equal(second, ref.output_matrix(7))
        assert not np.shares_memory(second, vec.outputs.grid)
        as_float = vec.output_matrix(7, MIN_PLUS)
        assert as_float.dtype == np.float64
        assert np.array_equal(as_float, ref.output_matrix(7, MIN_PLUS))

    @pytest.mark.parametrize("semiring", ["boolean", "min_plus"])
    def test_kernel_profile_steps_match_the_mapping_path(
        self, semiring: str
    ) -> None:
        from repro.core.semiring import BOOLEAN, MIN_PLUS
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.profile import KernelProfiler

        sr = {"boolean": BOOLEAN, "min_plus": MIN_PLUS}[semiring]
        dg, ep = build(6, 2)
        compiled = get_compiled(ep, dg, sr)
        inputs = make_inputs(random_adjacency(6, seed=7), sr)

        def steps(env) -> dict:
            kp = KernelProfiler(MetricsRegistry())
            compiled.replay(env, kprof=kp)
            return {
                key: (st["calls"], st["elements"])
                for key, st in kp._stats.items()
            }

        if compiled.bitpack is not None:
            expected = {("vector", k + 1, "mac"): (1, 36) for k in range(6)}
        else:
            expected = {}
            for step in compiled.steps:
                key = ("vector", step.depth, step.opcode)
                calls, width = expected.get(key, (0, 0))
                expected[key] = (calls + 1, width + step.width)
        assert steps(inputs) == steps(dict(inputs)) == expected


class TestFallbacks:
    def test_probe_falls_back_to_reference(self) -> None:
        from repro.obs import RecordingProbe

        dg, ep = build(6, 2)
        inputs = make_inputs(random_adjacency(6, seed=2))
        probe = RecordingProbe()
        vec = simulate_vector(ep, dg, inputs, probe=probe)
        assert probe.fires  # the probe really saw interpreter events
        assert_identical(simulate(ep, dg, inputs), vec)

    def test_rotation_graph_falls_back(self) -> None:
        from repro.algorithms.givens import givens_graph, givens_inputs
        from repro.core.semiring import REAL

        def group_cols(g, nid):
            if not g.kind(nid).occupies_slot:
                return None
            k, _, j = g.pos(nid)
            return (k, j)

        n = 6
        dg = givens_graph(n)
        gg = GGraph(dg, group_cols)
        plan = make_linear_gsets(gg, 2)
        ep = partitioned_plan(plan, schedule_gsets(plan), skew_unit=2)
        with pytest.raises(UnvectorizableGraphError):
            compile_plan(ep, dg, REAL)
        a = np.eye(n) + 0.1
        vec = simulate_vector(ep, dg, givens_inputs(a), REAL)
        ref = simulate(ep, dg, givens_inputs(a), REAL)
        assert vec.outputs == ref.outputs


class TestCompiledCache:
    def test_replays_hit_the_cache(self) -> None:
        # The counts are registry counters, which outlive the cache:
        # check the deltas of one miss, then one hit.
        clear_compiled_cache()
        start = compiled_cache_info()
        dg, ep = build(7, 3)
        inputs = make_inputs(random_adjacency(7, seed=5))
        first = simulate_vector(ep, dg, inputs)
        info = compiled_cache_info()
        assert (
            info["hits"] - start["hits"],
            info["misses"] - start["misses"],
            info["size"],
        ) == (0, 1, 1)
        again = simulate_vector(ep, dg, make_inputs(random_adjacency(7, seed=6)))
        info = compiled_cache_info()
        assert (
            info["hits"] - start["hits"],
            info["misses"] - start["misses"],
            info["size"],
        ) == (1, 1, 1)
        assert first.makespan == again.makespan

    def test_fingerprint_distinguishes_plans_and_semirings(self) -> None:
        from repro.core.semiring import BOOLEAN, MIN_PLUS

        dg, ep = build(6, 2)
        dg2, ep2 = build(6, 3)
        fp = plan_fingerprint(ep, dg, BOOLEAN)
        assert fp == plan_fingerprint(ep, dg, BOOLEAN)
        assert fp != plan_fingerprint(ep2, dg2, BOOLEAN)
        assert fp != plan_fingerprint(ep, dg, MIN_PLUS)

    def test_get_compiled_returns_same_object(self) -> None:
        from repro.core.semiring import BOOLEAN

        clear_compiled_cache()
        dg, ep = build(6, 2)
        assert get_compiled(ep, dg, BOOLEAN) is get_compiled(ep, dg, BOOLEAN)


class TestBackendSelection:
    def test_registry_and_resolution(self) -> None:
        assert set(BACKENDS) == {"reference", "vector"}
        assert get_backend("vector") is simulate_vector
        with pytest.raises(ValueError, match="unknown simulator backend"):
            get_backend("gpu")
        assert resolve_backend("vector") == "vector"

    def test_set_default_backend_round_trips(self) -> None:
        prev = set_default_backend("vector")
        try:
            assert resolve_backend(None) == "vector"
        finally:
            set_default_backend(prev)

    def test_dispatch_simulate_matches_both_ways(self) -> None:
        dg, ep = build(6, 2)
        inputs = make_inputs(random_adjacency(6, seed=4))
        ref = dispatch_simulate(ep, dg, inputs, backend="reference")
        vec = dispatch_simulate(ep, dg, inputs, backend="vector")
        assert_identical(ref, vec)


class TestResilienceEdgeCasesOnVectorBackend:
    """The resilience edge cases, with fault-free attempts vectorized.

    Faulty attempts always fall back to the reference interpreter's
    injection seam; these check the recovery story is unchanged when
    everything else replays on the compiled backend.
    """

    @pytest.fixture(scope="class")
    def impl(self):
        return partition_transitive_closure(n=9, m=3)

    @pytest.fixture(scope="class")
    def matrix(self):
        rng = np.random.default_rng(13)
        return (rng.random((9, 9)) < 0.4).astype(np.int64)

    def test_fault_at_cycle_zero(self, impl, matrix) -> None:
        spec = FaultSpec(kind=FaultKind.PERMANENT, cell=0, onset=0)
        result = run_resilient_closure(
            impl, matrix, faults=[spec], record_metrics=False,
            backend="vector",
        )
        assert result.detections[0].sid == impl.order[0].sid
        assert result.repartitions == 1
        assert result.retired_cells == frozenset({0})
        assert result.recovered and result.oracle_ok

    def test_fault_in_final_gset(self, impl, matrix) -> None:
        last = impl.order[-1]
        members = []
        for gid in last.gids:
            members.extend(impl.gg.gnodes[gid].members)
        spec = FaultSpec(kind=FaultKind.TRANSIENT, node=members[0])
        result = run_resilient_closure(
            impl, matrix, faults=[spec], record_metrics=False,
            backend="vector",
        )
        assert [d.sid for d in result.detections] == [last.sid]
        assert result.retries == 1
        assert result.recovered and result.oracle_ok

    def test_backends_agree_on_recovery(self, impl, matrix) -> None:
        def spec():
            return FaultSpec(kind=FaultKind.PERMANENT, cell=1, onset=5)

        ref = run_resilient_closure(
            impl, matrix, faults=[spec()], record_metrics=False,
            backend="reference",
        )
        vec = run_resilient_closure(
            impl, matrix, faults=[spec()], record_metrics=False,
            backend="vector",
        )
        assert np.array_equal(ref.output_matrix(9), vec.output_matrix(9))
        assert ref.retired_cells == vec.retired_cells
        assert ref.retries == vec.retries
        assert [d.sid for d in ref.detections] == [d.sid for d in vec.detections]
