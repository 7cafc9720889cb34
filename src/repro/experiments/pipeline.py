"""Experiments F04-F16: the transformation pipeline and grouping."""

from __future__ import annotations

import numpy as np

from ..algorithms.lu import lu_ggraph
from ..algorithms.transitive_closure import (
    TC_STAGES,
    expected_computed_ops,
    expected_full_ops,
    is_superfluous,
    run_graph,
    tc_full,
    tc_pruned,
    tc_regular,
)
from ..algorithms.warshall import random_adjacency, warshall
from ..core.analysis import (
    communication_patterns,
    find_broadcasts,
    flow_directions,
    max_fanout,
)
from ..core.ggraph import (
    GGraph,
    GroupingError,
    group_by_blocks,
    group_by_columns,
    group_by_diagonals,
    group_by_rows,
)
from ..core.graph import NodeKind, node_counts
from ..core.gsets import make_linear_gsets, schedule_gsets, verify_schedule
from ..core.transform import pipeline_broadcasts, prune_superfluous

__all__ = [
    "transform_census",
    "grouping_census",
    "gset_census",
    "count_census",
    "stage_census",
]


def transform_census(ns=(4, 6, 8, 10)) -> list[dict]:
    """F04: generic rewrites kill broadcasts, preserve the closure."""
    rows = []
    for n in ns:
        full = tc_full(n)
        pruned = prune_superfluous(full, is_superfluous)
        piped = pipeline_broadcasts(pruned, fanout_threshold=1)
        a = random_adjacency(n, 0.35, seed=n)
        ok = np.array_equal(run_graph(piped, a), warshall(a))
        rows.append(
            {
                "n": n,
                "fanout_before": max_fanout(full),
                "fanout_pruned": max_fanout(pruned),
                "fanout_pipelined": max_fanout(piped),
                "semantics_preserved": ok,
            }
        )
    return rows


def grouping_census(n: int = 12) -> list[dict]:
    """F05: the Fig. 6 grouping alternatives and their G-graph quality."""
    dg = tc_regular(n)
    rows = []
    for name, assign in [
        ("diagonal-paths (cols)", group_by_columns),
        ("horizontal-paths (rows)", group_by_rows),
        ("2x2 blocks", group_by_blocks(2, 2, n)),
    ]:
        gg = GGraph(dg, assign)
        deltas = gg.edge_deltas()
        rows.append(
            {
                "grouping": name,
                "gnodes": len(gg),
                "uniform_time": gg.is_uniform_time(),
                "nearest_neighbour": gg.is_nearest_neighbour(),
                "distinct_edge_dirs": len(deltas),
                "max_time": max(gn.comp_time for gn in gg.gnodes.values()),
            }
        )
    try:
        GGraph(dg, group_by_diagonals(n + 1))
        cyclic = False
    except GroupingError:
        cyclic = True
    rows.append(
        {
            "grouping": "cyclic anti-diagonals",
            "gnodes": 0,
            "uniform_time": "-",
            "nearest_neighbour": "-",
            "distinct_edge_dirs": "-",
            "max_time": "REJECTED (cyclic G-graph)" if cyclic else "??",
        }
    )
    return rows


def gset_census(n: int = 12, m: int = 4) -> list[dict]:
    """F07: G-sets are internally uniform even on non-uniform G-graphs."""
    rows = []
    for name, gg in [
        ("transitive closure", GGraph(tc_regular(n), group_by_columns)),
        ("LU decomposition", lu_ggraph(n)),
    ]:
        plan = make_linear_gsets(gg, m)
        order = schedule_gsets(plan, "vertical")
        verify_schedule(plan, order)
        uniform_sets = sum(1 for s in plan.gsets if s.is_uniform(gg))
        rows.append(
            {
                "algorithm": name,
                "gnodes": len(gg),
                "cells": m,
                "gnodes/cell": round(len(gg) / m, 1),
                "gsets": len(plan.gsets),
                "uniform_gsets": uniform_sets,
                "globally_uniform": gg.is_uniform_time(),
            }
        )
    return rows


def count_census(ns=(4, 6, 8, 10, 12)) -> list[dict]:
    """F10/F11: n^3 op nodes; n(n-1)(n-2) after pruning."""
    rows = []
    for n in ns:
        full = tc_full(n)
        pruned = tc_pruned(n)
        rows.append(
            {
                "n": n,
                "full_ops": node_counts(full)[NodeKind.OP],
                "n^3": expected_full_ops(n),
                "pruned_ops": node_counts(pruned)[NodeKind.OP],
                "n(n-1)(n-2)": expected_computed_ops(n),
                "superfluous": expected_full_ops(n) - expected_computed_ops(n),
                "broadcast_sources": find_broadcasts(full).count,
                "max_fanout": max_fanout(full),
            }
        )
    return rows


def stage_census(n: int = 12) -> list[dict]:
    """F12-F16: per-stage property census of the whole pipeline."""
    a = random_adjacency(n, 0.35, seed=0)
    ref = warshall(a)
    rows = []
    for name, ctor in TC_STAGES.items():
        dg = ctor(n)
        bc = find_broadcasts(dg)
        fl = flow_directions(dg, pos_attr="draw")
        cp = communication_patterns(dg)
        rows.append(
            {
                "stage": name,
                "nodes": len(dg),
                "max_fanout": bc.max_fanout if bc.sources else 1,
                "unidirectional": fl.is_unidirectional,
                "stencils": cp.distinct,
                "dominant_stencil": float(cp.dominant_fraction),
                "closure_ok": bool(np.array_equal(run_graph(dg, a), ref)),
            }
        )
    return rows
