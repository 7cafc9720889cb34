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
from .runner import require

__all__ = [
    "transform_census",
    "check_transforms",
    "grouping_census",
    "check_groupings",
    "gset_census",
    "check_gsets",
    "count_census",
    "check_counts",
    "stage_census",
    "check_stages",
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


def check_transforms(rows: list[dict]) -> None:
    """F04: pipelining drops the O(n) fan-out to 1, same closure."""
    for r in rows:
        require(r["semantics_preserved"], "semantics_preserved")
        require(r["fanout_pipelined"] == 1, "fanout_pipelined == 1")
        require(r["fanout_before"] >= 2 * r["n"] - 3, "fanout_before >= 2n - 3")

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


def check_groupings(rows: list[dict]) -> None:
    """F05: columns win (uniform, nearest-neighbour, 2 edge directions);
    rows leave long edges; cyclic anti-diagonals are rejected."""
    by_name = {r["grouping"]: r for r in rows}
    winner = by_name["diagonal-paths (cols)"]
    require(winner["uniform_time"] and winner["nearest_neighbour"],
            "column grouping is uniform and nearest-neighbour")
    require(winner["distinct_edge_dirs"] == 2,
            "column grouping has 2 edge directions (right, down-left)")
    require(not by_name["horizontal-paths (rows)"]["nearest_neighbour"],
            "row grouping is not nearest-neighbour")
    require(by_name["cyclic anti-diagonals"]["max_time"].startswith("REJECTED"),
            "cyclic anti-diagonals are rejected")

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


def check_gsets(rows: list[dict]) -> None:
    """F07: many G-nodes per cell (Fig. 9); every G-set uniform (Fig. 8),
    even on LU's non-uniform G-graph."""
    for r in rows:
        require(r["gnodes"] > 5 * r["cells"], "gnodes > 5 cells")
        require(r["uniform_gsets"] == r["gsets"], "uniform_gsets == gsets")
    require(not rows[1]["globally_uniform"], "LU is not globally uniform")

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


def check_counts(rows: list[dict]) -> None:
    """F10/F11: n^3 ops, n(n-1)(n-2) after pruning, O(n) fan-out."""
    for r in rows:
        require(r["full_ops"] == r["n^3"], "full_ops == n^3")
        require(r["pruned_ops"] == r["n(n-1)(n-2)"], "pruned_ops == n(n-1)(n-2)")
        require(r["superfluous"] == 3 * r["n"] ** 2 - 2 * r["n"],
                "superfluous == 3n^2 - 2n")
        require(r["max_fanout"] >= r["n"], "max_fanout >= n")

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


def check_stages(rows: list[dict], n: int = 12) -> None:
    """F12-F16: pipelining cuts the fan-out, the flips make flow
    uni-directional, the delays cut the stencils, and the column grouping
    of the regular stage is nearest-neighbour; every stage is correct."""
    by = {r["stage"]: r for r in rows}
    require(all(r["closure_ok"] for r in rows), "every stage computes the closure")
    require(by["full"]["max_fanout"] >= n, "full max_fanout >= n")
    require(by["pipelined"]["max_fanout"] <= 5, "pipelined max_fanout <= 5")
    require(not by["pipelined"]["unidirectional"], "pipelined is bi-directional")
    require(by["unidirectional"]["unidirectional"], "unidirectional is uni-directional")
    require(by["regular"]["unidirectional"], "regular is uni-directional")
    require(by["regular"]["stencils"] < by["unidirectional"]["stencils"],
            "regular has fewer stencils than unidirectional")
    require(GGraph(tc_regular(n), group_by_columns).is_nearest_neighbour(),
            "the column G-graph of the regular stage is nearest-neighbour")
