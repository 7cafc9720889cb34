"""Experiments F22, T-EVAL, T-BASE, T-FT: the paper's comparisons."""

from __future__ import annotations

import numpy as np

from ..algorithms.faddeev import faddeev_ggraph
from ..algorithms.givens import givens_ggraph
from ..algorithms.lu import lu_ggraph
from ..algorithms.transitive_closure import tc_regular
from ..algorithms.warshall import random_adjacency, warshall
from ..baselines.nunez_torralba import run_nunez_torralba
from ..core.ggraph import GGraph, group_by_columns
from ..core.gsets import make_linear_gsets, make_mesh_gsets, schedule_gsets
from ..core.metrics import (
    boundary_loss,
    evaluate_schedule,
    tc_io_bandwidth,
    tc_linear_throughput,
    tc_utilization,
    time_mixing_loss,
)
from ..arrays.faults import degraded_throughput
from .runner import require

__all__ = [
    "varying_time_census",
    "check_varying_time",
    "tradeoff_sweep",
    "check_tradeoffs",
    "baseline_sweep",
    "check_baseline",
    "fault_sweep",
    "check_faults",
]


def varying_time_census(n: int = 12, m: int = 4) -> list[dict]:
    """F22: time-mixing loss — zero on linear paths, positive on blocks."""
    rows = []
    for name, gg in [
        ("LU", lu_ggraph(n)),
        ("Faddeev", faddeev_ggraph(max(3, n // 2))),
        ("Givens QR", givens_ggraph(n)),
    ]:
        lin_plan = make_linear_gsets(gg, m)
        lin_order = schedule_gsets(lin_plan)
        mesh_plan = make_mesh_gsets(gg, m)
        mesh_order = schedule_gsets(mesh_plan)
        lin = evaluate_schedule(lin_plan, lin_order)
        mesh = evaluate_schedule(mesh_plan, mesh_order)
        rows.append(
            {
                "algorithm": name,
                "m": m,
                "linear_mixing_loss": float(time_mixing_loss(lin_plan, lin_order)),
                "mesh_mixing_loss": float(time_mixing_loss(mesh_plan, mesh_order)),
                "linear_boundary": float(boundary_loss(lin_plan, lin_order)),
                "mesh_boundary": float(boundary_loss(mesh_plan, mesh_order)),
                "linear_occ": float(lin.occupancy),
                "mesh_occ": float(mesh.occupancy),
            }
        )
    return rows


def check_varying_time(rows: list[dict]) -> None:
    """F22: linear G-sets never mix times (Fig. 22b), 2-D blocks do
    (Fig. 22a); occupancy + mixing + boundary losses sum to 1."""
    for r in rows:
        require(r["linear_mixing_loss"] == 0.0, "linear_mixing_loss == 0")
        require(r["mesh_mixing_loss"] > 0.02, "mesh_mixing_loss > 0.02")
        for geo in ("linear", "mesh"):
            require(abs(r[f"{geo}_occ"] + r[f"{geo}_mixing_loss"]
                        + r[f"{geo}_boundary"] - 1) < 1e-12,
                    f"{geo} occ + mixing_loss + boundary == 1")


def tradeoff_sweep(configs=((11, 4), (15, 4), (17, 9), (19, 4))) -> list[dict]:
    """T-EVAL: the Sec. 4.2 linear-vs-mesh comparison table."""
    rows = []
    for n, m in configs:
        gg = GGraph(tc_regular(n), group_by_columns)
        for geometry in ("linear", "mesh"):
            if geometry == "linear":
                plan = make_linear_gsets(gg, m, aligned=False)
            else:
                plan = make_mesh_gsets(gg, m)
            rep = evaluate_schedule(plan, schedule_gsets(plan))
            rows.append(
                {
                    "n": n,
                    "m": m,
                    "geometry": geometry,
                    "T_measured": float(rep.throughput),
                    "T_paper": float(tc_linear_throughput(n, m)),
                    "U_measured": float(rep.utilization),
                    "U_paper": float(tc_utilization(n)),
                    "D_IO_paper": float(tc_io_bandwidth(n, m)),
                    "mem_ports": rep.memory_connections,
                    "overhead": rep.overhead,
                }
            )
    return rows


def check_tradeoffs(rows: list[dict]) -> None:
    """T-EVAL: linear and mesh within one throughput class, linear ahead;
    zero overhead; m+1 vs 2 sqrt(m) memory ports."""
    by_cfg: dict[tuple[int, int], dict[str, dict]] = {}
    for r in rows:
        by_cfg.setdefault((r["n"], r["m"]), {})[r["geometry"]] = r
    for (n, m), pair in by_cfg.items():
        lin, mesh = pair["linear"], pair["mesh"]
        require(0.6 < lin["T_measured"] / mesh["T_measured"] < 1.7,
                "0.6 < linear / mesh throughput < 1.7")
        require(lin["T_measured"] >= mesh["T_measured"],
                "linear throughput >= mesh throughput")
        require(lin["overhead"] == mesh["overhead"] == 0, "overhead == 0")
        require(lin["mem_ports"] == m + 1, "linear mem_ports == m + 1")
        require(mesh["mem_ports"] == 2 * int(m**0.5), "mesh mem_ports == 2 sqrt(m)")


def baseline_sweep(configs=((8, 2), (12, 2), (12, 3), (16, 4))) -> list[dict]:
    """T-BASE: against the Núñez-Torralba block partitioning [22]."""
    rows = []
    for n, s in configs:
        m = s * s
        a = random_adjacency(n, 0.35, seed=n)
        theirs = run_nunez_torralba(a, s)
        require(np.array_equal(theirs.result, warshall(a)),
                f"Nunez-Torralba computes the closure at n={n}")
        gg = GGraph(tc_regular(n), group_by_columns)
        plan = make_mesh_gsets(gg, m)
        ours = evaluate_schedule(plan, schedule_gsets(plan))
        rows.append(
            {
                "n": n,
                "cells": m,
                "NT_kernels": theirs.kernels,
                "NT_control_steps": theirs.control_steps,
                "NT_cycles": theirs.total_cycles,
                "ours_cycles": ours.total_time,
                "speedup": round(theirs.total_cycles / ours.total_time, 2),
                "NT_mem_words": theirs.memory_words,
                "ours_mem_words": ours.memory_words,
            }
        )
    return rows


def check_baseline(rows: list[dict]) -> None:
    """T-BASE: (n/s)^3 chained kernels with per-kernel control, slower
    than one steady cut-and-pile schedule."""
    for r in rows:
        q = -(-r["n"] // int(r["cells"] ** 0.5))
        require(r["NT_kernels"] == q**3, "NT_kernels == ceil(n/s)^3")
        require(r["NT_control_steps"] > 1, "NT_control_steps > 1")
        require(r["speedup"] > 1.0, "speedup > 1")


def fault_sweep(configs=((12, 4, 1), (16, 9, 1), (16, 9, 2))) -> list[dict]:
    """T-FT: graceful degradation, linear bypass vs mesh row retirement."""
    rows = []
    for n, m, f in configs:
        gg = GGraph(tc_regular(n), group_by_columns)
        reports = degraded_throughput(gg, m, f)
        for geometry, rep in reports.items():
            rows.append(
                {
                    "n": n,
                    "m": m,
                    "failures": f,
                    "geometry": geometry,
                    "cells_lost": rep.cells_lost,
                    "cells_used": rep.cells_used,
                    "healthy_cycles": rep.healthy_time,
                    "degraded_cycles": rep.degraded_time,
                    "throughput_retention": round(float(rep.retention), 3),
                }
            )
    return rows


def check_faults(rows: list[dict]) -> None:
    """T-FT: a linear bypass loses fewer cells and keeps more throughput
    than a mesh row retirement."""
    by_cfg: dict[tuple[int, int, int], dict[str, dict]] = {}
    for r in rows:
        by_cfg.setdefault((r["n"], r["m"], r["failures"]), {})[r["geometry"]] = r
    for pair in by_cfg.values():
        require(pair["linear"]["cells_lost"] < pair["mesh"]["cells_lost"],
                "linear cells_lost < mesh cells_lost")
        require(pair["linear"]["throughput_retention"]
                > pair["mesh"]["throughput_retention"],
                "linear throughput_retention > mesh throughput_retention")
