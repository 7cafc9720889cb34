"""Experiments F01-F03: the three partitioning approaches (Figs. 1-3)."""

from __future__ import annotations

import numpy as np

from ..algorithms.transitive_closure import tc_regular
from ..core.ggraph import group_by_columns
from ..core.partitioner import partition
from ..partitioning.coalescing import coalesce_by_strips
from ..partitioning.decomposition import band_matmul_decomposition
from .runner import require

__all__ = [
    "coalescing_storage", "check_coalescing", "cut_and_pile_census",
    "check_cut_and_pile", "band_decomposition", "check_bands",
]


def coalescing_storage(ns=(6, 9, 12, 15), m: int = 4) -> list[dict]:
    """F01: LSGP per-cell live storage (O(n^2/m)) vs LPGS (zero local)."""
    rows = []
    for n in ns:
        impl = partition(tc_regular(n), group_by_columns, m)
        co = coalesce_by_strips(impl.gg, m)
        rows.append(
            {
                "n": n,
                "m": m,
                "lsgp_storage_per_cell": co.max_local_storage,
                "n^2/m": n * n // m,
                "lsgp_occupancy": float(co.occupancy),
                "lpgs_local_storage": 0,
                "lpgs_external_words": impl.report.memory_words,
            }
        )
    return rows


def check_coalescing(rows: list[dict]) -> None:
    """F01: LSGP storage grows super-linearly, within 5x of n^2/m."""
    storages = [r["lsgp_storage_per_cell"] for r in rows]
    require(storages == sorted(storages), "storage grows with n")
    require(storages[-1] > storages[0] * (rows[-1]["n"] / rows[0]["n"]),
            "storage grows super-linearly in n")
    for r in rows:
        require(0.2 * r["n^2/m"] <= r["lsgp_storage_per_cell"] <= 5 * r["n^2/m"],
                "0.2 n^2/m <= lsgp_storage_per_cell <= 5 n^2/m")


def cut_and_pile_census(
    configs=((12, 3, "linear"), (12, 4, "linear"), (12, 4, "mesh"), (16, 4, "mesh")),
) -> list[dict]:
    """F02: cut-and-pile runs with zero stalls and external-only storage."""
    rows = []
    for n, m, geometry in configs:
        impl = partition(tc_regular(n), group_by_columns, m, geometry)
        r = impl.report.row()
        rows.append(
            {
                "n": n,
                "m": m,
                "geometry": geometry,
                "gsets": r["gsets"],
                "stalls": impl.exec_plan.stall_cycles,
                "overhead": r["overhead"],
                "external_words": r["mem_words"],
                "mem_ports": r["mem_ports"],
                "occupancy": r["occupancy"],
            }
        )
    return rows


def check_cut_and_pile(rows: list[dict]) -> None:
    """F02: zero partitioning overhead; data piles through memory."""
    for r in rows:
        require(r["stalls"] == 0, "stalls == 0")
        require(r["overhead"] == 0, "overhead == 0")
        require(r["external_words"] > 0, "external_words > 0")


def band_decomposition(n: int = 24, bands=(2, 4, 8, 12, 24), seed: int = 42) -> list[dict]:
    """F03: dense matmul as chained band sub-algorithms (Navarro)."""
    rng = np.random.default_rng(seed)
    a, b = rng.random((n, n)), rng.random((n, n))
    rows = []
    for w in bands:
        res = band_matmul_decomposition(a, b, w)
        require(np.allclose(res.result, a @ b), f"band_w={w} product == a @ b")
        rows.append(
            {
                "n": n,
                "band_w": w,
                "passes": res.passes,
                "C_traffic_words": res.c_traffic,
                "input_words": res.input_words,
                "est_time": res.est_time,
                "traffic/pass": float(res.traffic_per_pass),
            }
        )
    return rows


def check_bands(rows: list[dict]) -> None:
    """F03: fewer passes with wider bands; C re-read on every pass."""
    n = rows[0]["n"]
    passes = [r["passes"] for r in rows]
    require(passes == sorted(passes, reverse=True), "passes fall as bands widen")
    require(rows[-1]["passes"] == 1, "the full-width band takes one pass")
    require(rows[-1]["C_traffic_words"] == n * n,
            "the full-width band moves C once (n^2 words)")
    require(rows[0]["C_traffic_words"] > 10 * n * n,
            "the narrowest band moves C more than 10 times")
