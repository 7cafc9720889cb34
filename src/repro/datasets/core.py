"""Canonical sparse-graph dataset container and edge semantics.

Every loader and generator in :mod:`repro.datasets` funnels through
:func:`from_edges`, which enforces one edge semantics for the whole
repo (the seam that :func:`repro.algorithms.warshall.adjacency_from_edges`
and the SSC baselines share):

* **duplicates are dropped** — an edge list is a *relation*, and the
  closure of a relation does not depend on multiplicity;
* **self-loops are allowed** (and kept) — transitive closure over the
  boolean semiring presets the diagonal anyway, so ``(v, v)`` edges are
  harmless and real SNAP exports contain them;
* **out-of-range or malformed vertex ids raise** a structured
  :class:`DatasetError` instead of silently wrapping or truncating.
  Loaders that read external id spaces pass ``remap=True`` to compact
  arbitrary non-negative ids into ``0..n-1`` deterministically
  (ascending id order).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

import numpy as np

from ..core.bitmatrix import words_per_row

__all__ = ["DatasetError", "GraphDataset", "from_edges"]


class DatasetError(ValueError):
    """A malformed dataset, carrying structured context.

    Attributes
    ----------
    reason:
        Machine-readable category (``"vertex-out-of-range"``,
        ``"parse"``, ``"shape"``, ``"spec"`` ...).
    source:
        Where the offending data came from (a path or generator spec).
    line:
        1-based line number for file-backed datasets, else ``None``.
    """

    def __init__(
        self,
        reason: str,
        message: str,
        *,
        source: str | None = None,
        line: int | None = None,
    ) -> None:
        where = ""
        if source is not None:
            where = f" [{source}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(f"{reason}: {message}{where}")
        self.reason = reason
        self.source = source
        self.line = line


@dataclass(frozen=True)
class GraphDataset:
    """A loaded directed graph: ``n`` vertices and a deduped edge array.

    ``edges`` is an ``(m, 2)`` int64 array of ``(src, dst)`` pairs,
    sorted lexicographically — a canonical form, so two datasets with
    the same edge *relation* compare equal regardless of input order.
    """

    name: str
    n: int
    edges: np.ndarray
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def m(self) -> int:
        """Distinct edge count."""
        return int(self.edges.shape[0])

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Compressed sparse rows ``(indptr, indices)``, built once.

        ``edges`` is lex-sorted, so the out-neighbours of ``v`` are
        ``indices[indptr[v]:indptr[v + 1]]`` in ascending order.  Every
        sparse kernel (the SCC closure and the SSC baselines) reads this
        one adjacency.  Cached outside the dataclass fields, so equality
        stays field-based.
        """
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        if self.m:
            np.cumsum(np.bincount(self.edges[:, 0], minlength=self.n),
                      out=indptr[1:])
        return indptr, np.ascontiguousarray(self.edges[:, 1])

    @property
    def self_loops(self) -> int:
        """Number of ``(v, v)`` edges present."""
        if not self.m:
            return 0
        return int(np.count_nonzero(self.edges[:, 0] == self.edges[:, 1]))

    def adjacency(self, *, diagonal: bool = False) -> np.ndarray:
        """Dense boolean adjacency matrix (``diagonal=True`` presets it)."""
        a = np.zeros((self.n, self.n), dtype=np.bool_)
        if self.m:
            a[self.edges[:, 0], self.edges[:, 1]] = True
        if diagonal:
            np.fill_diagonal(a, True)
        return a

    def packed_adjacency(self, *, diagonal: bool = False) -> np.ndarray:
        """Bit-packed adjacency rows (:mod:`repro.core.bitmatrix` layout).

        Built straight from the edge array — no dense ``n x n``
        intermediate — so it stays cheap at 10k+ vertices.
        """
        words = np.zeros((self.n, words_per_row(self.n)), dtype=np.uint64)
        if self.m:
            src, dst = self.edges[:, 0], self.edges[:, 1]
            np.bitwise_or.at(
                words,
                (src, dst >> 6),
                np.uint64(1) << (dst & 63).astype(np.uint64),
            )
        if diagonal and self.n:
            idx = np.arange(self.n)
            words[idx, idx >> 6] |= np.uint64(1) << (idx & 63).astype(np.uint64)
        return words

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex."""
        return np.diff(self.csr[0])

    def describe(self) -> dict[str, Any]:
        """Summary row for tables, ledgers and the dashboard."""
        deg = self.out_degrees()
        return {
            "name": self.name,
            "n": self.n,
            "m": self.m,
            "self_loops": self.self_loops,
            "max_out_degree": int(deg.max()) if self.n else 0,
            "mean_out_degree": round(float(deg.mean()), 3) if self.n else 0.0,
            **{
                k: v
                for k, v in self.meta.items()
                if isinstance(v, (str, int, float, bool))
            },
        }


#: Largest ``n`` whose ``src * n + dst`` keys fit in one int64.
_ONE_WORD_KEYS = 3_037_000_499


def _distinct_rows(arr: np.ndarray, n: int) -> np.ndarray:
    """``np.unique(arr, axis=0)`` for ids in ``[0, n)``.

    Each row becomes one int64 key ``src * n + dst``, whose order is the
    rows' lex order, so the dedup is a 1-D sort, and no sort at all when
    the rows already are canonical (as
    :func:`~repro.datasets.edgelist.save_edgelist` writes them).
    """
    if n > _ONE_WORD_KEYS:
        return np.unique(arr, axis=0)
    keys = arr[:, 0] * n + arr[:, 1]
    if (np.diff(keys) > 0).all():
        return arr.copy()
    keys = np.unique(keys)
    return np.stack([keys // n, keys % n], axis=1)


def from_edges(
    name: str,
    edges: Any,
    *,
    n: int | None = None,
    remap: bool = False,
    source: str | None = None,
    meta: dict[str, Any] | None = None,
) -> GraphDataset:
    """Build a :class:`GraphDataset`, enforcing the canonical semantics.

    ``edges`` is any ``(m, 2)``-shaped integer sequence.  With ``n``
    given, every id must lie in ``[0, n)``; without it, ``n`` becomes
    ``max id + 1``.  ``remap=True`` instead compacts the distinct ids to
    ``0..n-1`` (ascending), recording the mapping size in ``meta``.
    Duplicate edges are dropped; self-loops are kept.
    """
    try:
        arr = np.asarray(edges, dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DatasetError(
            "parse", f"edge list is not integer-valued: {exc}", source=source
        ) from None
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DatasetError(
            "shape",
            f"edge array must be (m, 2), got shape {arr.shape}",
            source=source,
        )
    raw_count = int(arr.shape[0])
    if raw_count and int(arr.min()) < 0:
        bad = int(np.argmax((arr < 0).any(axis=1)))
        raise DatasetError(
            "vertex-out-of-range",
            f"negative vertex id in edge {tuple(arr[bad].tolist())}",
            source=source,
        )
    remapped_from = None
    if remap:
        ids = np.unique(arr)
        remapped_from = int(ids[-1]) + 1 if ids.size else 0
        arr = np.searchsorted(ids, arr)
        inferred = int(ids.size)
        if n is not None and n < inferred:
            raise DatasetError(
                "vertex-out-of-range",
                f"{inferred} distinct ids exceed requested n={n}",
                source=source,
            )
        n = inferred if n is None else n
    else:
        top = int(arr.max()) + 1 if raw_count else 0
        if n is None:
            n = top
        elif top > n:
            bad = int(np.argmax((arr >= n).any(axis=1)))
            raise DatasetError(
                "vertex-out-of-range",
                f"edge {tuple(arr[bad].tolist())} exceeds n={n} "
                "(pass remap=True to compact external id spaces)",
                source=source,
            )
    if n < 0:
        raise DatasetError("shape", f"negative vertex count n={n}", source=source)
    arr = _distinct_rows(arr, n) if raw_count else arr
    info: dict[str, Any] = dict(meta or {})
    info.setdefault("duplicates_dropped", raw_count - int(arr.shape[0]))
    if remapped_from is not None:
        info.setdefault("remapped_from", remapped_from)
    if source is not None:
        info.setdefault("source", source)
    return GraphDataset(name=name, n=int(n), edges=arr, meta=info)
