"""Host-level closure engines over loaded datasets.

This is the scalable end of the closure story: the partitioned-array
simulator executes the paper's systolic schedules exactly (and tops out
around the graph sizes an FPDG can physically be built for), while these
engines compute the same closure relation on 10k+-vertex datasets:

``reference``
    Dense unpacked Warshall (:func:`repro.core.semiring.closure_reference`
    over ``BOOLEAN``) — the oracle, and the "unpacked vector path" the
    F20-BIT benchmark measures against.
``bitpack``
    The bit-packed boolean path.  Dense graphs (``n <= dense_cutoff``)
    run the packed Warshall sweep of
    :func:`repro.core.bitmatrix.closure_words`; larger graphs condense
    strongly-connected components first (an iterative Tarjan over the
    dataset's CSR) and union packed reach rows in reverse topological
    order, so the cost scales with the condensation DAG instead of
    ``n^3/64``.
``ssc1`` / ``ssc2`` / ``ssc12``
    The per-source baselines of :mod:`repro.baselines.ssc`.

All engines return the same canonical artefact — reflexive bit-packed
reach rows — so any two results for the same sources compare with
``np.array_equal``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..baselines.ssc import SSC_ALPHA, SSC_BETA, ssc1, ssc2, ssc12
from ..core.bitmatrix import (
    closure_words,
    pack_rows,
    popcount_rows,
    words_per_row,
)
from ..core.semiring import BOOLEAN, closure_reference
from .core import DatasetError, GraphDataset

__all__ = [
    "CLOSURE_ENGINES",
    "DENSE_CUTOFF",
    "ClosureResult",
    "compute_closure",
]

#: Engine names accepted by :func:`compute_closure` (CLI ``--engine``).
CLOSURE_ENGINES: tuple[str, ...] = (
    "bitpack",
    "reference",
    "ssc1",
    "ssc2",
    "ssc12",
)

#: Above this vertex count the ``bitpack`` engine switches from the
#: dense packed Warshall sweep to the SCC-condensation kernel.
DENSE_CUTOFF = 2048


@dataclass(frozen=True)
class ClosureResult:
    """Closure rows for a set of sources, in canonical packed form."""

    engine: str
    kernel: str
    n: int
    #: vertex ids the rows belong to (``arange(n)`` for full closures)
    sources: np.ndarray
    #: ``(len(sources), words_per_row(n))`` reflexive reach rows
    words: np.ndarray

    @property
    def reach_counts(self) -> np.ndarray:
        """Reach-set size per source (popcount of each row)."""
        return popcount_rows(self.words)

    @property
    def closure_edges(self) -> int:
        """Total pairs in the computed rows (incl. the reflexive ones)."""
        return int(self.reach_counts.sum())

    def agrees_with(self, other: "ClosureResult") -> bool:
        """Bit-for-bit agreement on the same source set."""
        return (
            self.n == other.n
            and np.array_equal(self.sources, other.sources)
            and np.array_equal(self.words, other.words)
        )


def _scc_labels(ds: GraphDataset) -> tuple[int, np.ndarray]:
    """Strongly connected components by an iterative Tarjan over ``ds.csr``.

    Returns ``(ncomp, labels)``.  Tarjan closes a component only after
    every component it reaches, so labels number the condensation DAG
    in reverse topological order: every cross edge runs from a higher
    label to a lower one.
    """
    indptr, indices = ds.csr
    ptr, adj = indptr.tolist(), indices.tolist()
    n = ds.n
    index = [-1] * n
    low = [0] * n
    label = [-1] * n
    cursor = ptr[:-1]  # next unexplored edge of each vertex
    stack: list[int] = []
    counter = ncomp = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        calls = [root]
        while calls:
            v = calls[-1]
            i, end = cursor[v], ptr[v + 1]
            while i < end:
                w = adj[i]
                i += 1
                if index[w] < 0:  # tree edge: descend into w
                    cursor[v] = i
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    calls.append(w)
                    break
                if label[w] < 0 and index[w] < low[v]:  # w is on the stack
                    low[v] = index[w]
            else:  # v is finished
                calls.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        label[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
                if calls and low[v] < low[calls[-1]]:
                    low[calls[-1]] = low[v]
    return ncomp, np.asarray(label, dtype=np.int64)


def _closure_scc_packed(ds: GraphDataset) -> np.ndarray:
    """Full reflexive closure via SCC condensation + packed row unions."""
    n = ds.n
    ncomp, labels = _scc_labels(ds)
    # Membership bitmask of every component, in vertex space; it grows
    # into the component's reach row.
    reach = np.zeros((ncomp, words_per_row(n)), dtype=np.uint64)
    verts = np.arange(n)
    np.bitwise_or.at(
        reach,
        (labels, verts >> 6),
        np.uint64(1) << (verts & 63).astype(np.uint64),
    )
    # Distinct cross-component edges, grouped by head component.
    cu, cv = labels[ds.edges[:, 0]], labels[ds.edges[:, 1]]
    cross = cu != cv
    keys = np.unique(cu[cross] * ncomp + cv[cross])
    heads, tails = keys // ncomp, keys % ncomp
    cptr = np.searchsorted(heads, np.arange(ncomp + 1))
    # Ascending labels are reverse topological: successors finish first.
    for c in np.flatnonzero(np.diff(cptr)).tolist():
        succ = tails[cptr[c] : cptr[c + 1]]
        reach[c] |= np.bitwise_or.reduce(reach[succ], axis=0)
    return reach[labels]


def compute_closure(
    ds: GraphDataset,
    engine: str = "bitpack",
    *,
    sources: Sequence[int] | None = None,
    dense_cutoff: int = DENSE_CUTOFF,
    alpha: float = SSC_ALPHA,
    beta: float = SSC_BETA,
) -> ClosureResult:
    """Compute (reflexive) closure rows of ``ds`` with the named engine.

    ``sources`` restricts the computation to those vertices where the
    engine supports it (the SSC family); full-matrix engines compute
    everything and slice.
    """
    if engine not in CLOSURE_ENGINES:
        raise DatasetError(
            "spec",
            f"unknown closure engine {engine!r}; "
            f"choose from {CLOSURE_ENGINES}",
        )
    src_ids = (
        np.arange(ds.n, dtype=np.int64)
        if sources is None
        else np.asarray(sources, dtype=np.int64)
    )
    if src_ids.size and (src_ids.min() < 0 or src_ids.max() >= ds.n):
        raise DatasetError(
            "vertex-out-of-range", f"closure sources outside [0, {ds.n})"
        )
    kernel = engine
    if engine == "reference":
        full = pack_rows(closure_reference(ds.adjacency(), BOOLEAN))
        words = full if sources is None else full[src_ids]
    elif engine == "bitpack":
        if ds.n <= dense_cutoff:
            kernel = "bitpack-dense"
            full = closure_words(ds.packed_adjacency(diagonal=True), ds.n)
        else:
            kernel = "bitpack-scc"
            full = _closure_scc_packed(ds)
        words = full if sources is None else full[src_ids]
    else:
        fn = {"ssc1": ssc1, "ssc2": ssc2, "ssc12": ssc12}[engine]
        if engine == "ssc12":
            words = ssc12(ds, src_ids, alpha=alpha, beta=beta)
        else:
            words = fn(ds, src_ids)
    return ClosureResult(
        engine=engine, kernel=kernel, n=ds.n, sources=src_ids, words=words
    )
