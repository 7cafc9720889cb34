"""Tests for the generic graph transformations (Fig. 4 toolkit)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.transitive_closure import (
    expected_computed_ops,
    is_superfluous,
    run_graph,
    tc_full,
    tc_pruned,
)
from repro.algorithms.warshall import random_adjacency, warshall
from repro.core.analysis import find_broadcasts, max_fanout
from repro.core.graph import DependenceGraph, NodeKind, node_counts
from repro.core.transform import (
    TransformError,
    pipeline_broadcasts,
    prune_superfluous,
)


def test_prune_matches_paper_count() -> None:
    n = 5
    pruned = prune_superfluous(tc_full(n), is_superfluous)
    pruned.validate()
    assert node_counts(pruned)[NodeKind.OP] == expected_computed_ops(n)


@given(n=st.integers(3, 6), seed=st.integers(0, 100))
@settings(max_examples=10, deadline=None)
def test_prune_preserves_semantics(n: int, seed: int) -> None:
    a = random_adjacency(n, 0.35, seed=seed)
    pruned = prune_superfluous(tc_full(n), is_superfluous)
    assert np.array_equal(run_graph(pruned, a), warshall(a))


def test_prune_equals_direct_generator() -> None:
    """The Fig. 11 stage is the generic pruning rewrite of Fig. 10."""
    n = 5
    generic = prune_superfluous(tc_full(n), is_superfluous)
    direct = tc_pruned(n)
    generic_ops = set(generic.nodes_of_kind(NodeKind.OP))
    direct_ops = set(direct.nodes_of_kind(NodeKind.OP))
    assert generic_ops == direct_ops


def test_prune_missing_carrier_role() -> None:
    dg = DependenceGraph()
    dg.add_input("x")
    dg.add_input("y")
    dg.add_op("d", "div", {"a": "x", "b": "y"})
    with pytest.raises(TransformError, match="no 'q' operand"):
        prune_superfluous(dg, lambda g, nid: nid == "d", carrier_role="q")


def test_prune_collapses_chains() -> None:
    """Consecutive superfluous nodes resolve to the first real producer."""
    dg = DependenceGraph()
    dg.add_input("x")
    dg.add_input("one")
    prev = "x"
    for i in range(3):
        dg.add_op(f"s{i}", "mac", {"a": prev, "b": prev, "c": "one"})
        prev = f"s{i}"
    dg.add_output("o", prev)
    out = prune_superfluous(dg, lambda g, nid: str(nid).startswith("s"))
    assert node_counts(out)[NodeKind.OP] == 0
    assert out.operands("o") == {"a": ("x", "out")}


def test_pipeline_kills_broadcasts() -> None:
    n = 5
    pruned = tc_pruned(n)
    assert max_fanout(pruned) > 3
    piped = pipeline_broadcasts(pruned, fanout_threshold=1)
    piped.validate()
    assert max_fanout(piped) == 1
    assert find_broadcasts(piped, fanout_threshold=1).count == 0


@given(n=st.integers(3, 6), seed=st.integers(0, 100))
@settings(max_examples=10, deadline=None)
def test_pipeline_preserves_semantics(n: int, seed: int) -> None:
    a = random_adjacency(n, 0.35, seed=seed)
    piped = pipeline_broadcasts(tc_pruned(n), fanout_threshold=1)
    assert np.array_equal(run_graph(piped, a), warshall(a))


def test_pipeline_with_cyclic_order_key() -> None:
    """A flip-style order key keeps semantics (chain direction is free)."""
    n = 5
    a = random_adjacency(n, 0.4, seed=7)

    def cyclic_key(dg: DependenceGraph, nid) -> tuple:
        _, k, i, j = nid
        return (k, (i - k) % n, (j - k) % n)

    flipped = pipeline_broadcasts(tc_pruned(n), order_key=cyclic_key, fanout_threshold=1)
    assert max_fanout(flipped) == 1
    assert np.array_equal(run_graph(flipped, a), warshall(a))


def test_pipeline_leaves_outputs_direct() -> None:
    dg = DependenceGraph()
    dg.add_input("src", pos=(0,))
    for i in range(3):
        dg.add_output(f"o{i}", "src")
    piped = pipeline_broadcasts(dg, fanout_threshold=1)
    # Output fan-out is host wiring; nothing to chain.
    for i in range(3):
        assert piped.operands(f"o{i}") == {"a": ("src", "out")}


def test_pipeline_chains_through_pass_nodes() -> None:
    dg = DependenceGraph()
    dg.add_input("src", pos=(0, 0))
    for i in range(4):
        dg.add_pass(f"p{i}", "src", pos=(0, i + 1))
    piped = pipeline_broadcasts(dg, fanout_threshold=1)
    assert piped.operands("p0") == {"a": ("src", "out")}
    for i in range(1, 4):
        assert piped.operands(f"p{i}") == {"a": (f"p{i-1}", "out")}
