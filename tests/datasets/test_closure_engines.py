"""Closure engines and SSC baselines: every engine vs the dense oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.ssc import SSC_BASELINES, ssc1, ssc2, ssc12
from repro.core.bitmatrix import pack_rows, unpack_rows
from repro.core.semiring import BOOLEAN, closure_reference
from repro.datasets import DatasetError, compute_closure, from_edges, kronecker
from repro.datasets.closure import (
    CLOSURE_ENGINES,
    DENSE_CUTOFF,
    _closure_scc_packed,
)


def reflexive_oracle(ds) -> np.ndarray:
    return pack_rows(closure_reference(ds.adjacency(), BOOLEAN))


class TestEngines:
    @pytest.mark.parametrize("engine", CLOSURE_ENGINES)
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_engine_agrees_with_oracle(self, engine: str, seed: int) -> None:
        ds = kronecker(6, 6, seed=seed)  # n=64: one full word per row
        res = compute_closure(ds, engine)
        assert np.array_equal(res.words, reflexive_oracle(ds))

    @pytest.mark.parametrize("engine", CLOSURE_ENGINES)
    def test_word_boundary_n65(self, engine: str) -> None:
        rng = np.random.default_rng(9)
        edges = rng.integers(0, 65, size=(180, 2))
        ds = from_edges("n65", edges)
        assert ds.n == 65
        res = compute_closure(ds, engine)
        assert np.array_equal(res.words, reflexive_oracle(ds))

    def test_scc_kernel_forced(self) -> None:
        # dense_cutoff=0 forces the SCC-condensation path on a graph
        # small enough to check against the dense oracle.
        ds = kronecker(7, 6, seed=5)
        res = compute_closure(ds, "bitpack", dense_cutoff=0)
        assert res.kernel == "bitpack-scc"
        assert np.array_equal(res.words, reflexive_oracle(ds))

    def test_scc_kernel_empty_and_cyclic(self) -> None:
        empty = from_edges("e", [], n=5)
        words = _closure_scc_packed(empty)
        assert np.array_equal(words, empty.packed_adjacency(diagonal=True))
        # One big cycle: everything reaches everything.
        cyc = from_edges("c", [(i, (i + 1) % 7) for i in range(7)])
        assert unpack_rows(_closure_scc_packed(cyc), 7).all()

    def test_sources_slice(self) -> None:
        ds = kronecker(6, 6, seed=1)
        full = compute_closure(ds, "bitpack")
        part = compute_closure(ds, "ssc12", sources=[3, 17, 40])
        assert np.array_equal(part.words, full.words[[3, 17, 40]])
        assert part.sources.tolist() == [3, 17, 40]

    def test_result_metadata(self) -> None:
        ds = from_edges("t", [(0, 1), (1, 2)])
        res = compute_closure(ds, "bitpack")
        # Rows: {0,1,2}, {1,2}, {2} reflexively closed.
        assert res.reach_counts.tolist() == [3, 2, 1]
        assert res.closure_edges == 6
        assert res.agrees_with(compute_closure(ds, "reference"))

    def test_unknown_engine_and_bad_sources(self) -> None:
        ds = from_edges("t", [(0, 1)])
        with pytest.raises(DatasetError):
            compute_closure(ds, "warp-drive")
        with pytest.raises(DatasetError):
            compute_closure(ds, "ssc1", sources=[99])


class TestSSCBaselines:
    def test_registry(self) -> None:
        assert set(SSC_BASELINES) == {"ssc1", "ssc2", "ssc12"}

    def test_hybrid_matches_both_modes(self) -> None:
        ds = kronecker(7, 8, seed=2)
        srcs = np.arange(0, ds.n, 7)
        a = ssc1(ds, srcs)
        b = ssc2(ds, srcs)
        # Promotion cutoffs at the extremes pin ssc12 to each pure mode.
        set_only = ssc12(ds, srcs, alpha=2.0, beta=2.0)
        bit_only = ssc12(ds, srcs, alpha=0.0, beta=0.0)
        for rows in (b, set_only, bit_only):
            assert np.array_equal(a, rows)

    def test_rows_are_reflexive(self) -> None:
        ds = from_edges("t", [], n=66)
        rows = ssc12(ds, [0, 64, 65])
        assert unpack_rows(rows, 66)[[0, 1, 2], [0, 64, 65]].all()
        from repro.core.bitmatrix import popcount_rows

        assert popcount_rows(rows).tolist() == [1, 1, 1]  # reflexive only


class TestAtScale:
    def test_ten_k_nodes_bitpack_vs_ssc12(self) -> None:
        # The acceptance bar: closure of a >=10k-node sparse graph via
        # the bit-packed path, agreeing with the SSC12 hybrid on a
        # deterministic sample of sources.
        ds = kronecker(14, 4, seed=0)
        assert ds.n == 16384
        res = compute_closure(ds, "bitpack")
        assert res.kernel == "bitpack-scc"
        rng = np.random.default_rng(0)
        srcs = np.sort(rng.choice(ds.n, size=48, replace=False))
        assert np.array_equal(res.words[srcs], ssc12(ds, srcs))

    @pytest.mark.parametrize("n, kernel, cutoff, other", [
        (DENSE_CUTOFF, "bitpack-dense", DENSE_CUTOFF - 1, "bitpack-scc"),
        (DENSE_CUTOFF + 1, "bitpack-scc", DENSE_CUTOFF + 1, "bitpack-dense"),
    ])
    def test_default_kernel_around_dense_cutoff(
        self, n: int, kernel: str, cutoff: int, other: str
    ) -> None:
        # The default picks the dense kernel up to DENSE_CUTOFF and the
        # SCC kernel above it; forcing the other one gives the same rows.
        rng = np.random.default_rng(n)
        ds = from_edges(f"cutoff-{n}", rng.integers(0, n, size=(2 * n, 2)), n=n)
        res = compute_closure(ds, "bitpack")
        forced = compute_closure(ds, "bitpack", dense_cutoff=cutoff)
        assert (res.kernel, forced.kernel) == (kernel, other)
        assert np.array_equal(res.words, forced.words)
        assert 1 < int(res.reach_counts.max()) < n  # neither empty nor all
