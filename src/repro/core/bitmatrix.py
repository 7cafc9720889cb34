"""Bit-packed boolean matrices: 64 closure columns per machine word.

Over the boolean semiring a dense matrix row is a bitset, and Warshall's
update for one pivot ``k``

    x[i,j] <- x[i,j] OR (x[i,k] AND x[k,j])

collapses to a word-parallel row OR: every row ``i`` whose bit ``k`` is
set absorbs row ``k`` wholesale.  This is the "boolean array" trick of
the SSC2 single-source-closure algorithm (Yang & Zaniolo 2014), realised
NumPy-natively: rows are packed into ``uint64`` words (64 columns per
word, column ``j`` lives in bit ``j % 64`` of word ``j // 64``), and one
pivot step touches ``n/64`` words per selected row instead of ``n``
bools.

Two closure kernels are exposed:

* :func:`closure_words` — the *raw* recurrence, no diagonal forcing.
  It is bit-identical to evaluating the fully-parallel dependence graph
  (``tc_full``/``tc_regular``) on the same inputs, which is what the
  vector backend's bit-packed replay needs (see
  :mod:`repro.arrays.vector_compile`).
* :func:`closure_boolean` — diagonal preset to ``True`` first, matching
  :func:`repro.core.semiring.closure_reference` over ``BOOLEAN`` (the
  reflexive closure every dataset-level engine reports).

Packing relies on the native byte order being little-endian (every
platform this repo targets); :func:`pack_rows` asserts it once.
"""

from __future__ import annotations

import sys

import numpy as np

__all__ = [
    "WORD_BITS",
    "words_per_row",
    "pack_rows",
    "unpack_rows",
    "bit_column",
    "closure_words",
    "closure_boolean",
    "popcount_rows",
]

#: Columns packed into one machine word.
WORD_BITS = 64


def words_per_row(ncols: int) -> int:
    """Words needed to hold ``ncols`` boolean columns."""
    if ncols < 0:
        raise ValueError(f"negative column count {ncols}")
    return (ncols + WORD_BITS - 1) // WORD_BITS


def pack_rows(a: np.ndarray) -> np.ndarray:
    """Pack a 2-D boolean matrix into ``uint64`` words, row-major.

    Column ``j`` of the input becomes bit ``j % 64`` of word ``j // 64``
    in the same row; trailing pad bits are zero.  Returns an array of
    shape ``(rows, words_per_row(cols))``.
    """
    if sys.byteorder != "little":  # pragma: no cover - x86/arm are LE
        raise RuntimeError("bit-packed kernels require a little-endian host")
    m = np.ascontiguousarray(a, dtype=np.bool_)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    rows, cols = m.shape
    nw = words_per_row(cols)
    packed = np.packbits(m, axis=1, bitorder="little")
    if packed.shape[1] < nw * 8:
        pad = np.zeros((rows, nw * 8 - packed.shape[1]), dtype=np.uint8)
        packed = np.concatenate([packed, pad], axis=1)
    return np.ascontiguousarray(packed).view(np.uint64)


def unpack_rows(words: np.ndarray, ncols: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`: words back to an ``(rows, ncols)`` bool matrix."""
    w = np.ascontiguousarray(words, dtype=np.uint64)
    if w.ndim != 2:
        raise ValueError(f"expected a 2-D word array, got shape {w.shape}")
    if w.shape[1] != words_per_row(ncols):
        raise ValueError(
            f"word array has {w.shape[1]} words/row, "
            f"expected {words_per_row(ncols)} for {ncols} columns"
        )
    bits = np.unpackbits(w.view(np.uint8), axis=1, bitorder="little")
    return bits[:, :ncols].astype(np.bool_)


def bit_column(words: np.ndarray, k: int) -> np.ndarray:
    """Boolean column ``k`` extracted from a packed matrix."""
    w, b = divmod(k, WORD_BITS)
    return (words[:, w] >> np.uint64(b)) & np.uint64(1) != 0


def closure_words(words: np.ndarray, n: int) -> np.ndarray:
    """Warshall's closure on a packed matrix — the raw recurrence.

    For each pivot ``k`` the rows with bit ``k`` set absorb (OR in) row
    ``k``; row and column ``k`` are frozen per pivot exactly like
    :func:`~repro.core.semiring.closure_reference` freezes them, so the
    result is bit-identical to the unpacked kernel on the same input.
    The diagonal is *not* forced — callers wanting the reflexive closure
    preset it (or use :func:`closure_boolean`).
    """
    x = np.array(words, dtype=np.uint64, copy=True)
    if x.shape[0] != n or x.shape[1] != words_per_row(n):
        raise ValueError(
            f"packed matrix shape {x.shape} does not match n={n}"
        )
    for k in range(n):
        mask = bit_column(x, k)
        row = x[k].copy()
        x[mask] |= row
    return x


def closure_boolean(a: np.ndarray) -> np.ndarray:
    """Reflexive boolean closure of a dense matrix via the packed kernel.

    Bit-identical to ``closure_reference(a, BOOLEAN)`` — the diagonal is
    preset to ``True`` (Warshall's precondition) before the sweep.
    """
    m = np.array(a, dtype=np.bool_, copy=True)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    np.fill_diagonal(m, True)
    n = m.shape[0]
    return unpack_rows(closure_words(pack_rows(m), n), n)


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Per-row set-bit counts of a packed matrix (reach-set sizes).

    A word-level popcount (``np.bitwise_count``, NumPy >= 2.0): no
    unpacked one-byte-per-bit intermediate, so the cost is one pass
    over the words.
    """
    counts = np.bitwise_count(np.asarray(words, dtype=np.uint64))
    return counts.sum(axis=1, dtype=np.int64)
