"""SSC1 / SSC2 / SSC12 single-source-closure baselines.

Behavioural ports of the three transitive-closure algorithms from Yang &
Zaniolo, *Main Memory Evaluation of Recursive Queries on Multicore
Machines* (IEEE Big Data 2014), after the reference implementations by
Thom Hurks (``single-source-closure``: SSC1.py / SSC2.py / SSC12.py),
which benchmark them on SNAP Kronecker graphs — exactly the datasets
:mod:`repro.datasets` loads and generates.  They serve two roles here:

* **oracle** — an independent implementation family (per-source search,
  no Warshall structure at all) to check the bit-packed closure engines
  against;
* **speed baseline** — what a tuned software closure costs on the same
  graphs the partitioned-array simulation runs, for the benchmark
  tables.

All three walk the dataset's one CSR adjacency
(:attr:`~repro.datasets.core.GraphDataset.csr`) and differ only in the
visited-set representation:

``ssc1``
    Hash-set BFS per source over CSR neighbour lists (the paper's
    dictionary variant).
``ssc2``
    Visited-row BFS per source: one flag per vertex (the "boolean
    array" trick, ``bitarray`` in the original), each frontier's
    neighbours gathered from the CSR in one vectorised step.
``ssc12``
    The hybrid: each source starts in set mode and promotes itself to
    row mode once its reach set passes ``alpha * n`` vertices or a
    frontier passes ``beta * n`` (the original exposes the same two
    cutoff knobs; ``alpha=1/8``, ``beta=1/128`` are its suggested
    defaults).

All three return the same canonical artefact: one bit-packed reach row
per requested source (:mod:`repro.core.bitmatrix` layout), *reflexive*
(a vertex reaches itself), so rows compare bit-for-bit against the
dataset closure engines and the simulated arrays.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.bitmatrix import pack_rows, words_per_row

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datasets.core import GraphDataset

__all__ = ["SSC_ALPHA", "SSC_BETA", "ssc1", "ssc2", "ssc12", "SSC_BASELINES"]

#: Default set->bitset promotion cutoffs of the SSC12 hybrid.
SSC_ALPHA = 1 / 8
SSC_BETA = 1 / 128


def _resolve_sources(n: int, sources: Sequence[int] | None) -> np.ndarray:
    if sources is None:
        return np.arange(n, dtype=np.int64)
    idx = np.asarray(sources, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"source ids out of range [0, {n})")
    return idx


def _set_search(
    ptr: list[int],
    adj: list[int],
    visited: set[int],
    frontier: list[int],
    visit_cutoff: float,
    frontier_cutoff: float,
) -> list[int]:
    """Set-mode BFS over CSR neighbour lists (grows ``visited``).

    Expands whole frontiers while ``visited`` holds at most
    ``visit_cutoff`` vertices and the frontier at most
    ``frontier_cutoff``; returns the frontier it stopped at (empty once
    the search is complete).
    """
    while frontier and (
        len(visited) <= visit_cutoff and len(frontier) <= frontier_cutoff
    ):
        nxt: list[int] = []
        for u in frontier:
            for v in adj[ptr[u] : ptr[u + 1]]:
                if v not in visited:
                    visited.add(v)
                    nxt.append(v)
        frontier = nxt
    return frontier


def _row_search(
    indptr: np.ndarray, indices: np.ndarray, seen: np.ndarray, front: np.ndarray
) -> None:
    """Row-mode BFS: one vectorised CSR gather per frontier (grows ``seen``).

    ``seen`` is the source's visited row, one flag per vertex.
    """
    while front.size:
        starts = indptr[front]
        lens = indptr[front + 1] - starts
        total = int(lens.sum())
        if not total:
            break
        # Edge positions of every frontier vertex, concatenated.
        offs = np.repeat(starts - (np.cumsum(lens) - lens), lens)
        nbrs = indices[offs + np.arange(total)]
        level = np.zeros_like(seen)
        level[nbrs[~seen[nbrs]]] = True
        seen |= level
        front = np.flatnonzero(level)


def _search_rows(
    ds: "GraphDataset",
    sources: Sequence[int] | None,
    visit_cutoff: float,
    frontier_cutoff: float,
) -> np.ndarray:
    """Packed reach rows, one per source, of the shared SSC search.

    Each source runs :func:`_set_search` within the cutoffs and, if a
    frontier is left, finishes with :func:`_row_search`.  Infinite
    cutoffs never promote (SSC1); negative ones promote at once (SSC2).
    """
    src_ids = _resolve_sources(ds.n, sources)
    indptr, indices = ds.csr
    ptr, adj = indptr.tolist(), indices.tolist()
    rows = np.zeros((src_ids.size, words_per_row(ds.n)), dtype=np.uint64)
    for out, s in enumerate(src_ids.tolist()):
        visited = {s}
        frontier = _set_search(
            ptr, adj, visited, [s], visit_cutoff, frontier_cutoff
        )
        seen = np.zeros(ds.n, dtype=np.bool_)
        seen[list(visited)] = True
        if frontier:  # promoted: finish with a visited row
            _row_search(
                indptr, indices, seen, np.asarray(frontier, dtype=np.int64)
            )
        rows[out] = pack_rows(seen[None, :])[0]
    return rows


def ssc1(
    ds: "GraphDataset", sources: Sequence[int] | None = None
) -> np.ndarray:
    """Set-based per-source closure (SSC1): hash-set BFS per source."""
    return _search_rows(ds, sources, math.inf, math.inf)


def ssc2(
    ds: "GraphDataset", sources: Sequence[int] | None = None
) -> np.ndarray:
    """Visited-row per-source closure (SSC2): vectorised frontier BFS."""
    return _search_rows(ds, sources, -1, -1)


def ssc12(
    ds: "GraphDataset",
    sources: Sequence[int] | None = None,
    *,
    alpha: float = SSC_ALPHA,
    beta: float = SSC_BETA,
) -> np.ndarray:
    """Hybrid closure (SSC12): set mode, promoted to row mode.

    A source's search runs SSC1-style until its reach set exceeds
    ``alpha * n`` vertices or one frontier exceeds ``beta * n``; it then
    moves its state into a visited row and finishes SSC2-style.  Sparse
    reach sets never pay for an ``n``-flag row; dense ones never pay
    per-edge set inserts.
    """
    return _search_rows(ds, sources, alpha * ds.n, beta * ds.n)


#: Baseline name -> callable, for CLI/benchmark dispatch.
SSC_BASELINES = {"ssc1": ssc1, "ssc2": ssc2, "ssc12": ssc12}
