"""Experiments F01-F03: the three partitioning approaches (Figs. 1-3)."""

from __future__ import annotations

import numpy as np

from ..algorithms.transitive_closure import tc_regular
from ..core.ggraph import group_by_columns
from ..core.partitioner import partition
from ..partitioning.coalescing import coalesce_by_strips
from ..partitioning.decomposition import band_matmul_decomposition

__all__ = ["coalescing_storage", "cut_and_pile_census", "band_decomposition"]


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


def band_decomposition(n: int = 24, bands=(2, 4, 8, 12, 24), seed: int = 42) -> list[dict]:
    """F03: dense matmul as chained band sub-algorithms (Navarro)."""
    rng = np.random.default_rng(seed)
    a, b = rng.random((n, n)), rng.random((n, n))
    rows = []
    for w in bands:
        res = band_matmul_decomposition(a, b, w)
        assert np.allclose(res.result, a @ b)
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
