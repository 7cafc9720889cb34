"""Tests for the transitive-closure graph pipeline (Figs. 10-17)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.transitive_closure import (
    TC_STAGES,
    expected_computed_ops,
    expected_full_ops,
    expected_regular_slots,
    is_computed,
    make_inputs,
    node_tag_census,
    read_output_matrix,
    run_graph,
    tc_full,
    tc_pipelined,
    tc_pruned,
    tc_regular,
    tc_unidirectional,
)
from repro.algorithms.warshall import (
    floyd_warshall_reference,
    random_adjacency,
    warshall,
)
from repro.core.analysis import (
    communication_patterns,
    find_broadcasts,
    flow_directions,
    long_edges,
    max_fanout,
)
from repro.core.evaluate import evaluate
from repro.core.graph import NodeKind, node_counts
from repro.core.semiring import BOOLEAN, COUNTING, MAX_MIN, MIN_PLUS


STAGES = sorted(TC_STAGES)


@pytest.mark.parametrize("stage", STAGES)
@given(n=st.integers(3, 7), seed=st.integers(0, 200))
@settings(max_examples=8, deadline=None)
def test_every_stage_computes_the_closure(stage: str, n: int, seed: int) -> None:
    """Semantic equivalence: the heart of the transformational method."""
    a = random_adjacency(n, 0.35, seed=seed)
    dg = TC_STAGES[stage](n)
    assert np.array_equal(run_graph(dg, a), warshall(a))


@pytest.mark.parametrize("stage", STAGES)
def test_every_stage_validates(stage: str, tc_stage_graphs) -> None:
    tc_stage_graphs[stage].validate()


class TestNodeCounts:
    def test_full_graph_has_n_cubed_ops(self) -> None:
        for n in (3, 5, 8):
            assert node_counts(tc_full(n))[NodeKind.OP] == expected_full_ops(n)

    def test_pruned_graph_count(self) -> None:
        for n in (3, 5, 8):
            assert node_counts(tc_pruned(n))[NodeKind.OP] == expected_computed_ops(n)

    def test_regular_graph_slot_count(self) -> None:
        for n in (3, 6):
            c = node_counts(tc_regular(n))
            assert c[NodeKind.OP] + c[NodeKind.DELAY] == expected_regular_slots(n)

    def test_is_computed_predicate(self) -> None:
        n = 5
        count = sum(
            is_computed(n, k, i, j)
            for k in range(n)
            for i in range(n)
            for j in range(n)
        )
        assert count == expected_computed_ops(n)

    def test_tag_census_regular(self) -> None:
        n = 6
        census = node_tag_census(tc_regular(n))
        assert census["compute"] == expected_computed_ops(n)
        assert census["delay"] == n * n
        assert census["transmit-row"] == n * n
        assert census["transmit-col"] == n * (n - 1)
        assert census["superfluous"] == n * (n - 1)


class TestBroadcastRemoval:
    """Figs. 10 -> 12: fan-out collapses from O(n) to O(1)."""

    def test_full_graph_broadcasts_grow_with_n(self) -> None:
        assert max_fanout(tc_full(8)) > max_fanout(tc_full(4))

    def test_pipelined_fanout_bounded(self) -> None:
        assert max_fanout(tc_pipelined(5)) <= 5
        assert max_fanout(tc_pipelined(9)) <= 5  # constant, not O(n)

    def test_flipped_stages_fully_pipelined(self) -> None:
        for n in (4, 7):
            assert max_fanout(tc_unidirectional(n)) == 1
            assert max_fanout(tc_regular(n)) == 1
            assert find_broadcasts(tc_regular(n), fanout_threshold=1).count == 0


class TestFlowDirections:
    """Figs. 12 -> 14: the flips make the drawing uni-directional."""

    def test_pipelined_is_bidirectional(self) -> None:
        rep = flow_directions(tc_pipelined(6), pos_attr="draw")
        assert not rep.is_unidirectional

    def test_flipped_stages_unidirectional(self) -> None:
        for ctor in (tc_unidirectional, tc_regular):
            rep = flow_directions(ctor(6), pos_attr="draw")
            assert rep.is_unidirectional


class TestRegularity:
    """Figs. 15 -> 16: the delay column removes the irregular boundary."""

    def test_stencil_count_constant_in_n(self) -> None:
        assert (
            communication_patterns(tc_regular(5)).distinct
            == communication_patterns(tc_regular(9)).distinct
        )

    def test_regular_has_fewer_stencils(self) -> None:
        assert (
            communication_patterns(tc_regular(7)).distinct
            < communication_patterns(tc_unidirectional(7)).distinct
        )

    def test_corner_is_the_only_long_wire(self) -> None:
        """One special (corner) edge per level transition in both stages."""
        n = 7
        for ctor in (tc_unidirectional, tc_regular):
            assert len(long_edges(ctor(n), max_len=1, dims=(1, 2))) == n - 1

    def test_delay_column_regularizes_the_ggraph(self) -> None:
        """Fig. 15c's point: only the regularized graph groups into a
        nearest-neighbour G-graph; without the delay column the boundary
        communication surfaces as long G-edges."""
        from repro.core.ggraph import GGraph, group_by_columns

        n = 7
        irregular = GGraph(tc_unidirectional(n), group_by_columns)
        regular = GGraph(tc_regular(n), group_by_columns)
        assert set(regular.edge_deltas()) == {(0, 1), (1, -1)}
        assert regular.is_nearest_neighbour()
        assert not irregular.is_nearest_neighbour()
        assert len(set(irregular.edge_deltas())) > 2

    def test_interior_stencil_dominates_regular(self) -> None:
        rep = communication_patterns(tc_regular(9))
        assert rep.dominant_fraction > 0.5


class TestSemiringGenerality:
    def test_min_plus_all_stages(self) -> None:
        n = 5
        rng = np.random.default_rng(11)
        w = np.where(rng.random((n, n)) < 0.4,
                     rng.integers(1, 9, (n, n)).astype(float), np.inf)
        expected = floyd_warshall_reference(w)
        for stage in STAGES:
            got = run_graph(TC_STAGES[stage](n), w, MIN_PLUS)
            assert np.array_equal(got, expected), stage

    def test_max_min_bottleneck_paths(self) -> None:
        n = 5
        rng = np.random.default_rng(12)
        w = MAX_MIN.random_matrix(n, rng)
        from repro.core.semiring import closure_reference

        expected = closure_reference(w, MAX_MIN)
        got = run_graph(tc_regular(n), w, MAX_MIN)
        assert np.array_equal(got, expected)

    def test_counting_valid_on_full_graph_only(self) -> None:
        """Superfluous pruning is unsound on non-idempotent semirings."""
        n = 4
        rng = np.random.default_rng(13)
        a = COUNTING.random_matrix(n, rng, density=0.5)
        from repro.core.semiring import closure_reference

        expected = closure_reference(a, COUNTING)
        full = run_graph(tc_full(n), a, COUNTING)
        assert np.array_equal(full, expected)
        assert not COUNTING.supports_superfluous_pruning()


class TestIOHelpers:
    def test_make_inputs_forces_diagonal(self) -> None:
        a = np.zeros((4, 4), dtype=bool)
        env = make_inputs(a)
        assert env[("in", 2, 2)] is True or env[("in", 2, 2)] == True  # noqa: E712

    def test_read_output_matrix_roundtrip(self) -> None:
        n = 4
        a = random_adjacency(n, seed=1)
        outs = evaluate(tc_pruned(n), make_inputs(a), BOOLEAN)
        m = read_output_matrix(outs, n)
        assert np.array_equal(m, warshall(a))

    def test_n_too_small(self) -> None:
        with pytest.raises(ValueError, match="n >= 3"):
            tc_full(2)


def test_critical_path_scales_linearly() -> None:
    """The pipelined graph's delay is O(n), not O(n^2)."""
    d5 = tc_regular(5).critical_path_length()
    d8 = tc_regular(8).critical_path_length()
    assert d5 < d8 <= 5 * 8
