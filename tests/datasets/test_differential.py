"""Differential harness: every sparse closure engine on generated graphs.

Seeded Hypothesis (``derandomize=True``) draws graphs from families
that stress different parts of the engines: a chain (one long
condensation path), a complete graph and one giant SCC (one component),
many tiny SCCs linked in a DAG, random edges, and stochastic Kronecker
graphs (the generator behind the closure-sparse workload and DS-AGREE).  Every graph may also
carry self-loops, duplicate edges and isolated vertices, and the sizes
straddle the 64-bit word boundary.  On each one the harness checks:

* the CSR rebuilds ``ds.edges`` exactly;
* the Tarjan partition equals the brute-force mutual-reachability
  partition of ``closure_reference``, with labels in reverse
  topological order;
* ``bitpack-scc``, ``bitpack-dense``, ``reference``, ``ssc1``, ``ssc2``
  and ``ssc12`` return identical rows.

The tier-1 profile runs ``REPRO_DIFF_EXAMPLES`` examples (default 40,
about a second); CI raises it for a larger sweep.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitmatrix import pack_rows
from repro.core.semiring import BOOLEAN, closure_reference
from repro.datasets import GraphDataset, compute_closure, from_edges, kronecker
from repro.datasets.closure import _scc_labels

EXAMPLES = int(os.environ.get("REPRO_DIFF_EXAMPLES", "40"))
#: Wall-clock budget of the tier-1 profile, in seconds.
BUDGET_S = 20.0
FAMILIES = ("random", "chain", "complete", "giant", "tiny_sccs", "kron")


def make_graph(
    family: str, n: int, seed: int, *, loops: int, dups: int, isolated: int
) -> GraphDataset:
    """One seeded graph of ``family`` on ``n`` vertices, plus extras.

    ``isolated`` trailing vertices get no edges (``from_edges(n=...)``
    keeps them); ``loops`` self-loops and ``dups`` repeated edges are
    added on top of the family's edges.  A ``kron`` graph fills the
    largest power of two of vertices that fits (scale 5 or 6 at the
    word-boundary sizes 63-65); the vertices above it stay isolated.
    """
    rng = np.random.default_rng(seed)
    core = max(n - isolated, 1)
    v = np.arange(core)
    if family == "chain":
        edges = np.stack([v[:-1], v[1:]], axis=1)
    elif family == "complete":
        edges = np.stack(np.meshgrid(v, v, indexing="ij"), axis=-1).reshape(-1, 2)
    elif family == "giant":
        cycle = np.stack([v, np.roll(v, -1)], axis=1)
        extra = rng.integers(0, core, size=(core, 2))
        edges = np.concatenate([cycle, extra])
    elif family == "tiny_sccs":
        # 2- and 3-cycles, each linked forward to a later one.
        parts = []
        start = 0
        while start < core:
            size = int(rng.integers(1, 4))
            block = v[start : start + size]
            parts.append(np.stack([block, np.roll(block, -1)], axis=1))
            if start + size < core:
                target = int(rng.integers(start + size, core))
                parts.append(np.array([[block[0], target]]))
            start += size
        edges = np.concatenate(parts)
    elif family == "kron":
        scale = core.bit_length() - 1
        edges = kronecker(scale, int(rng.integers(1, 9)), seed=seed).edges
    else:
        edges = rng.integers(0, core, size=(int(rng.integers(0, 3 * core)), 2))
    extras = [edges.reshape(-1, 2)]
    if loops:
        s = rng.integers(0, core, size=loops)
        extras.append(np.stack([s, s], axis=1))
    if dups and edges.size:
        extras.append(edges[rng.integers(0, len(edges), size=dups)])
    return from_edges(family, np.concatenate(extras), n=n)


def check_graph(ds: GraphDataset) -> None:
    n = ds.n
    # The CSR is a lossless re-encoding of the canonical edge array.
    indptr, indices = ds.csr
    assert indptr[0] == 0 and indptr[-1] == ds.m
    assert (np.diff(indptr) >= 0).all()
    heads = np.repeat(np.arange(n), np.diff(indptr))
    assert np.array_equal(np.stack([heads, indices], axis=1), ds.edges)

    # Tarjan vs brute-force mutual reachability.
    reach = closure_reference(ds.adjacency(), BOOLEAN)
    mutual = reach & reach.T
    ncomp, labels = _scc_labels(ds)
    assert np.array_equal(labels[:, None] == labels[None, :], mutual)
    assert sorted(set(labels.tolist())) == list(range(ncomp))
    if ds.m:  # cross edges run from higher to lower labels
        assert (labels[ds.edges[:, 0]] >= labels[ds.edges[:, 1]]).all()

    oracle = pack_rows(reach)
    runs = {
        "bitpack-scc": compute_closure(ds, "bitpack", dense_cutoff=0),
        "bitpack-dense": compute_closure(ds, "bitpack", dense_cutoff=n),
        **{e: compute_closure(ds, e) for e in ("reference", "ssc1", "ssc2",
                                               "ssc12")},
    }
    if n:  # n=0 is at or below every cutoff
        assert runs["bitpack-scc"].kernel == "bitpack-scc"
    assert runs["bitpack-dense"].kernel == "bitpack-dense"
    for name, res in runs.items():
        assert np.array_equal(res.words, oracle), name


graphs = st.builds(
    make_graph,
    st.sampled_from(FAMILIES),
    st.one_of(st.sampled_from((63, 64, 65)), st.integers(1, 70)),
    st.integers(0, 2**32 - 1),
    loops=st.integers(0, 4),
    dups=st.integers(0, 6),
    isolated=st.integers(0, 3),
)


def test_differential_harness_within_budget() -> None:
    """The seeded tier-1 profile: every check on every drawn graph."""

    @given(ds=graphs)
    @settings(max_examples=EXAMPLES, deadline=None, derandomize=True,
              database=None)
    def run(ds: GraphDataset) -> None:
        check_graph(ds)

    t0 = time.perf_counter()
    run()
    if EXAMPLES <= 40:
        assert time.perf_counter() - t0 < BUDGET_S


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", (63, 64, 65))
def test_word_boundary_sizes(family: str, n: int) -> None:
    check_graph(make_graph(family, n, seed=n, loops=2, dups=3, isolated=1))


def test_empty_and_edgeless_graphs() -> None:
    check_graph(from_edges("empty", [], n=0))
    check_graph(from_edges("isolated", [], n=65))
