"""Bit-packed boolean kernels vs the unpacked Warshall oracle.

Word-boundary sizes (63/64/65, 127/128) are the regression surface: an
off-by-one in the pack layout or the pivot mask shows up exactly there.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bitmatrix import (
    WORD_BITS,
    bit_column,
    closure_boolean,
    closure_words,
    pack_rows,
    popcount_rows,
    unpack_rows,
    words_per_row,
)
from repro.core.semiring import BOOLEAN, closure_reference

WORD_BOUNDARY_SIZES = (1, 2, 63, 64, 65, 127, 128)


def random_bool(n: int, density: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((n, n)) < density


def unpackbits_popcount(words: np.ndarray) -> np.ndarray:
    """Reference row popcount: unpack every bit into a byte, then sum."""
    bytes_ = np.ascontiguousarray(words, dtype=np.uint64).view(np.uint8)
    return np.unpackbits(bytes_, axis=1).sum(axis=1, dtype=np.int64)


class TestPacking:
    def test_words_per_row(self) -> None:
        assert words_per_row(0) == 0
        assert words_per_row(1) == 1
        assert words_per_row(64) == 1
        assert words_per_row(65) == 2
        with pytest.raises(ValueError):
            words_per_row(-1)

    @pytest.mark.parametrize("n", WORD_BOUNDARY_SIZES)
    def test_roundtrip(self, n: int) -> None:
        a = random_bool(n, 0.3, seed=n)
        words = pack_rows(a)
        assert words.shape == (n, words_per_row(n))
        assert words.dtype == np.uint64
        assert np.array_equal(unpack_rows(words, n), a)

    def test_column_bit_layout(self) -> None:
        # Column j lives in bit j % 64 of word j // 64.
        a = np.zeros((1, 130), dtype=np.bool_)
        a[0, 0] = a[0, 63] = a[0, 64] = a[0, 129] = True
        w = pack_rows(a)[0]
        assert w[0] == (np.uint64(1) | (np.uint64(1) << np.uint64(63)))
        assert w[1] == np.uint64(1)
        assert w[2] == np.uint64(1) << np.uint64(1)

    @pytest.mark.parametrize("n", (1, 64, 65, 130))
    def test_bit_column(self, n: int) -> None:
        a = random_bool(n, 0.4, seed=n + 1)
        words = pack_rows(a)
        for k in {0, n // 2, n - 1, min(n - 1, WORD_BITS - 1)}:
            assert np.array_equal(bit_column(words, k), a[:, k])

    def test_popcount(self) -> None:
        a = random_bool(100, 0.37, seed=5)
        assert np.array_equal(
            popcount_rows(pack_rows(a)), a.sum(axis=1, dtype=np.int64)
        )

    @pytest.mark.parametrize("ncols", (63, 64, 65, 127, 128, 129))
    @pytest.mark.parametrize("fill", ("random", "ones", "zeros"))
    def test_popcount_matches_unpackbits(self, ncols: int, fill: str) -> None:
        if fill == "random":
            a = np.random.default_rng(ncols).random((9, ncols)) < 0.5
        else:
            a = np.full((9, ncols), fill == "ones", dtype=np.bool_)
        words = pack_rows(a)
        assert np.array_equal(popcount_rows(words), unpackbits_popcount(words))
        assert np.array_equal(popcount_rows(words), a.sum(axis=1))

    @pytest.mark.parametrize("w", (0, 1, 3))
    def test_popcount_no_rows(self, w: int) -> None:
        counts = popcount_rows(np.zeros((0, w), dtype=np.uint64))
        assert counts.shape == (0,) and counts.dtype == np.int64

    def test_popcount_non_contiguous(self) -> None:
        words = pack_rows(random_bool(200, 0.5, seed=7))
        view = words[::3, 1:]
        assert not view.flags["C_CONTIGUOUS"]
        assert np.array_equal(popcount_rows(view), unpackbits_popcount(view))

    def test_shape_errors(self) -> None:
        with pytest.raises(ValueError):
            pack_rows(np.zeros(4, dtype=np.bool_))
        with pytest.raises(ValueError):
            unpack_rows(np.zeros((2, 2), dtype=np.uint64), 200)
        with pytest.raises(ValueError):
            closure_words(np.zeros((3, 1), dtype=np.uint64), 4)
        with pytest.raises(ValueError):
            closure_boolean(np.zeros((2, 3), dtype=np.bool_))


class TestClosureKernels:
    @pytest.mark.parametrize("n", WORD_BOUNDARY_SIZES)
    def test_reflexive_closure_matches_reference(self, n: int) -> None:
        a = random_bool(n, 2.5 / max(n, 1), seed=n)
        assert np.array_equal(
            closure_boolean(a), closure_reference(a, BOOLEAN)
        )

    @pytest.mark.parametrize("n", (3, 64, 65))
    def test_raw_kernel_no_diagonal_forcing(self, n: int) -> None:
        # closure_words evaluates the raw recurrence: with an all-False
        # input nothing becomes reachable (no reflexive pairs).
        zeros = np.zeros((n, words_per_row(n)), dtype=np.uint64)
        assert np.array_equal(closure_words(zeros, n), zeros)

    def test_empty_matrix(self) -> None:
        out = closure_boolean(np.zeros((0, 0), dtype=np.bool_))
        assert out.shape == (0, 0)

    def test_single_node(self) -> None:
        for bit in (False, True):
            a = np.array([[bit]], dtype=np.bool_)
            assert closure_boolean(a)[0, 0]  # reflexive either way

    def test_all_ones(self) -> None:
        n = 65
        a = np.ones((n, n), dtype=np.bool_)
        assert closure_boolean(a).all()

    def test_disconnected_components(self) -> None:
        # Two cliques with no cross edges stay mutually unreachable.
        n = 70
        a = np.zeros((n, n), dtype=np.bool_)
        a[:35, :35] = True
        a[35:, 35:] = True
        closed = closure_boolean(a)
        assert closed[:35, :35].all() and closed[35:, 35:].all()
        assert not closed[:35, 35:].any() and not closed[35:, :35].any()

    @pytest.mark.parametrize("seed", range(4))
    def test_dense_random(self, seed: int) -> None:
        a = random_bool(97, 0.15, seed=seed)
        assert np.array_equal(
            closure_boolean(a), closure_reference(a, BOOLEAN)
        )
