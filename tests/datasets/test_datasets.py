"""Loaders, generators, and the one canonical edge semantics."""

from __future__ import annotations

import gzip

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import (
    DatasetError,
    GraphDataset,
    from_edges,
    kronecker,
    load_edgelist,
    resolve_dataset,
    save_edgelist,
)


class TestFromEdges:
    def test_dedup_and_canonical_order(self) -> None:
        ds = from_edges("t", [(2, 1), (0, 1), (2, 1), (0, 1)])
        assert ds.m == 2
        assert ds.edges.tolist() == [[0, 1], [2, 1]]
        assert ds.meta["duplicates_dropped"] == 2

    def test_self_loops_kept(self) -> None:
        ds = from_edges("t", [(0, 0), (1, 1), (0, 1)])
        assert ds.self_loops == 2
        assert ds.m == 3

    def test_n_inferred_and_explicit(self) -> None:
        assert from_edges("t", [(0, 5)]).n == 6
        assert from_edges("t", [(0, 5)], n=10).n == 10

    def test_out_of_range_is_structured(self) -> None:
        with pytest.raises(DatasetError) as exc:
            from_edges("t", [(0, 5)], n=3)
        assert exc.value.reason == "vertex-out-of-range"
        assert "remap=True" in str(exc.value)

    def test_negative_id_raises(self) -> None:
        with pytest.raises(DatasetError) as exc:
            from_edges("t", [(0, -1)])
        assert exc.value.reason == "vertex-out-of-range"

    def test_non_integer_raises(self) -> None:
        with pytest.raises(DatasetError) as exc:
            from_edges("t", [("a", "b")])
        assert exc.value.reason == "parse"

    def test_bad_shape_raises(self) -> None:
        with pytest.raises(DatasetError) as exc:
            from_edges("t", [(0, 1, 2)])
        assert exc.value.reason == "shape"

    def test_remap_compacts_external_ids(self) -> None:
        ds = from_edges("t", [(100, 7), (7, 9000)], remap=True)
        assert ds.n == 3
        assert ds.edges.tolist() == [[0, 2], [1, 0]]  # 7->0, 100->1, 9000->2
        assert ds.meta["remapped_from"] == 9001

    def test_empty(self) -> None:
        ds = from_edges("t", [])
        assert ds.n == 0 and ds.m == 0
        assert ds.adjacency().shape == (0, 0)

    @given(
        rows=st.lists(st.tuples(st.integers(0, 70), st.integers(0, 70)),
                      max_size=60),
        presort=st.booleans(),
    )
    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    def test_dedup_matches_row_unique(self, rows, presort) -> None:
        # The one-word-key dedup must equal np.unique(axis=0) on sorted,
        # unsorted and duplicated input.
        arr = np.asarray(rows, dtype=np.int64).reshape(-1, 2)
        if presort:
            arr = np.unique(arr, axis=0)
        ds = from_edges("t", arr, n=71)
        expected = np.unique(arr, axis=0) if arr.size else arr
        assert ds.edges.dtype == np.int64
        assert np.array_equal(ds.edges, expected)
        assert ds.meta["duplicates_dropped"] == len(arr) - len(expected)

    def test_dedup_beyond_one_word_keys(self) -> None:
        far = 4_000_000_000  # n * n overflows int64: row-wise unique
        ds = from_edges("t", [(5, far), (0, 1), (5, far)])
        assert ds.edges.tolist() == [[0, 1], [5, far]]

    def test_canonical_input_is_copied(self) -> None:
        arr = np.array([[0, 1], [1, 2]], dtype=np.int64)
        ds = from_edges("t", arr)
        arr[0, 1] = 2
        assert ds.edges.tolist() == [[0, 1], [1, 2]]

    def test_out_of_range_message_prints_plain_ids(self) -> None:
        with pytest.raises(DatasetError, match=r"edge \(-3, 2\)"):
            from_edges("t", [(0, 1), (-3, 2)])
        with pytest.raises(DatasetError, match=r"edge \(4, 2\) exceeds"):
            from_edges("t", [(0, 1), (4, 2)], n=3)

    def test_csr_is_cached_outside_the_fields(self) -> None:
        import dataclasses

        ds = from_edges("t", [(2, 1), (0, 1), (0, 0)], n=4)
        indptr, indices = ds.csr
        assert ds.csr[0] is indptr  # built once
        assert indptr.tolist() == [0, 2, 2, 3, 3]
        assert indices.tolist() == [0, 1, 1]
        assert ds.out_degrees().tolist() == [2, 0, 1, 0]
        names = [f.name for f in dataclasses.fields(ds)]
        assert names == ["name", "n", "edges", "meta"]

    def test_packed_adjacency_matches_dense(self) -> None:
        from repro.core.bitmatrix import unpack_rows

        ds = from_edges("t", [(0, 64), (64, 65), (65, 0), (3, 3)])
        for diag in (False, True):
            dense = ds.adjacency(diagonal=diag)
            packed = ds.packed_adjacency(diagonal=diag)
            assert np.array_equal(unpack_rows(packed, ds.n), dense)


class TestEdgelist:
    def test_roundtrip(self, tmp_path) -> None:
        ds = from_edges("t", [(0, 1), (1, 2), (2, 2)])
        path = tmp_path / "nested" / "t.txt"
        save_edgelist(ds, path)  # creates parent dirs
        back = load_edgelist(path)
        assert back.n == ds.n
        assert np.array_equal(back.edges, ds.edges)

    def test_gzip_and_comments(self, tmp_path) -> None:
        path = tmp_path / "g.txt.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("# SNAP-style header\n0 1\n\n1 2\n# trailing\n")
        ds = load_edgelist(path)
        assert ds.name == "g"
        assert ds.m == 2 and ds.n == 3

    def test_parse_error_carries_line(self, tmp_path) -> None:
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n1 two\n")
        with pytest.raises(DatasetError) as exc:
            load_edgelist(path)
        assert exc.value.reason == "parse"
        assert exc.value.line == 2

    def test_missing_file_is_io_error(self, tmp_path) -> None:
        with pytest.raises(DatasetError) as exc:
            load_edgelist(tmp_path / "nope.txt")
        assert exc.value.reason == "io"


class TestKronecker:
    def test_deterministic(self) -> None:
        a = kronecker(6, 4, seed=3)
        b = kronecker(6, 4, seed=3)
        assert np.array_equal(a.edges, b.edges)
        assert not np.array_equal(a.edges, kronecker(6, 4, seed=4).edges)

    def test_shape_and_meta(self) -> None:
        ds = kronecker(7, 8, seed=0)
        assert ds.n == 128
        assert 0 < ds.m <= 8 * 128
        assert ds.meta["format"] == "kronecker"
        assert ds.meta["scale"] == 7

    def test_bad_scale(self) -> None:
        with pytest.raises(DatasetError):
            kronecker(-1)
        with pytest.raises(DatasetError):
            kronecker(31)


class TestResolveDataset:
    def test_kron_spec(self) -> None:
        ds = resolve_dataset("kron:scale=5,edges=4,seed=2")
        assert ds.n == 32
        assert ds.meta["seed"] == 2

    def test_path_spec(self, tmp_path) -> None:
        p = tmp_path / "e.txt"
        p.write_text("0 1\n")
        assert resolve_dataset(str(p)).m == 1

    @pytest.mark.parametrize(
        "spec", ["kron:", "kron:edges=4", "kron:scale=x", "kron:whee=1"]
    )
    def test_bad_kron_spec(self, spec: str) -> None:
        with pytest.raises(DatasetError) as exc:
            resolve_dataset(spec)
        assert exc.value.reason == "spec"

    def test_dataset_is_frozen(self) -> None:
        ds = from_edges("t", [(0, 1)])
        with pytest.raises(AttributeError):
            ds.n = 5  # type: ignore[misc]
        assert isinstance(ds, GraphDataset)


class TestSharedSeams:
    """The one edge semantics, shared beyond the loaders (satellite 2)."""

    def test_adjacency_from_edges_same_semantics(self) -> None:
        from repro.algorithms.warshall import adjacency_from_edges

        # Duplicates and self-loops are tolerated (dedup is a no-op on
        # a boolean matrix; the diagonal is forced anyway).
        a = adjacency_from_edges(4, [(0, 1), (0, 1), (2, 2)])
        assert a[0, 1] and a.diagonal().all()
        assert not a[1, 0]

    def test_adjacency_from_edges_structured_errors(self) -> None:
        from repro.algorithms.warshall import adjacency_from_edges

        with pytest.raises(DatasetError) as exc:
            adjacency_from_edges(3, [(1, 7)])
        assert exc.value.reason == "vertex-out-of-range"
        with pytest.raises(DatasetError) as exc:
            adjacency_from_edges(3, [(-1, 0)])
        assert exc.value.reason == "vertex-out-of-range"
        # Still a ValueError for pre-existing callers.
        with pytest.raises(ValueError):
            adjacency_from_edges(3, [(0, 9)])

    def test_fpdg_rejects_self_loops(self) -> None:
        from repro.core.graph import DependenceGraph, GraphError

        dg = DependenceGraph("loop")
        x = dg.add_input(("in", 0))
        with pytest.raises(GraphError, match="self-loop"):
            dg.add_op(("op", 0), "mac", {"a": x, "b": x, "c": ("op", 0)})
