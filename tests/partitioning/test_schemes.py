"""Tests for the three partitioning approaches (Figs. 1-3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.transitive_closure import tc_regular
from repro.core.ggraph import GGraph, group_by_columns
from repro.core.partitioner import partition
from repro.partitioning.coalescing import coalesce_by_strips
from repro.partitioning.decomposition import band_matmul_decomposition


def tc_gg(n: int) -> GGraph:
    return GGraph(tc_regular(n), group_by_columns)


def cut_and_pile(n: int, m: int, geometry: str = "linear"):
    """The paper's LPGS scheme: the partitioner on the Fig. 17 grouping."""
    return partition(tc_regular(n), group_by_columns, m, geometry)


class TestCoalescing:
    def test_partition_into_m_cells(self) -> None:
        gg = tc_gg(8)
        res = coalesce_by_strips(gg, 3)
        assert set(res.cell_of.values()) <= {0, 1, 2}
        assert res.total_time > 0
        assert 0 < float(res.occupancy) <= 1

    def test_local_storage_grows_quadratically(self) -> None:
        """The Fig. 1 caveat: per-cell storage is O(n^2/m), not O(1)."""
        m = 2
        s1 = coalesce_by_strips(tc_gg(6), m).max_local_storage
        s2 = coalesce_by_strips(tc_gg(12), m).max_local_storage
        assert s2 > 3 * s1  # super-linear growth in n

    def test_cut_and_pile_needs_no_local_storage(self) -> None:
        """Contrast: LPGS parks everything in *external* memory."""
        co = coalesce_by_strips(tc_gg(10), 2)
        cp = cut_and_pile(10, 2)
        assert co.max_local_storage > 10
        assert cp.report.memory_words > 0  # external, not per-cell

    def test_single_cell_has_no_links(self) -> None:
        res = coalesce_by_strips(tc_gg(5), 1)
        assert res.link_words == 0

    def test_rejects_zero_cells(self) -> None:
        with pytest.raises(ValueError, match="at least one"):
            coalesce_by_strips(tc_gg(5), 0)


class TestCutAndPile:
    def test_linear_and_mesh(self) -> None:
        lin = cut_and_pile(8, 4, "linear")
        mesh = cut_and_pile(8, 4, "mesh")
        assert lin.report.geometry == "linear"
        assert mesh.report.geometry == "mesh"
        assert lin.exec_plan.stall_cycles == 0
        assert mesh.exec_plan.stall_cycles == 0

    def test_unknown_geometry(self) -> None:
        with pytest.raises(ValueError, match="unknown geometry"):
            cut_and_pile(6, 4, "torus")

    def test_zero_overhead(self) -> None:
        cp = cut_and_pile(9, 3)
        assert cp.report.overhead == 0


class TestDecomposition:
    @given(
        n=st.integers(2, 10),
        band=st.integers(1, 10),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=20, deadline=None)
    def test_band_decomposition_correct(self, n, band, seed) -> None:
        band = min(band, n)
        rng = np.random.default_rng(seed)
        a, b = rng.random((n, n)), rng.random((n, n))
        res = band_matmul_decomposition(a, b, band)
        assert np.allclose(res.result, a @ b)
        assert res.passes == -(-n // band)

    def test_traffic_shrinks_with_wider_bands(self) -> None:
        rng = np.random.default_rng(0)
        a, b = rng.random((12, 12)), rng.random((12, 12))
        narrow = band_matmul_decomposition(a, b, 2)
        wide = band_matmul_decomposition(a, b, 6)
        assert narrow.c_traffic > wide.c_traffic
        assert narrow.passes > wide.passes

    def test_validation(self) -> None:
        a = np.zeros((3, 3))
        with pytest.raises(ValueError, match="band width"):
            band_matmul_decomposition(a, a, 0)
        with pytest.raises(ValueError, match="mismatch"):
            band_matmul_decomposition(np.zeros((2, 3)), np.zeros((2, 3)), 1)

    def test_traffic_per_pass(self) -> None:
        rng = np.random.default_rng(1)
        a, b = rng.random((8, 8)), rng.random((8, 8))
        res = band_matmul_decomposition(a, b, 4)
        assert res.traffic_per_pass > 0
