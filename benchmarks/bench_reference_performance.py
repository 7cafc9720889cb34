"""A-PERF: performance of the software oracles themselves.

The harness leans on the Warshall references for every cross-check, so
their speed bounds the sizes the reproduction can sweep.  Following the
scientific-python optimization guidance (measure, then vectorise), the
rank-1-update formulation `warshall_vectorized` replaces the scalar
triple loop's O(n^3) Python iterations with n numpy outer products — a
two-orders-of-magnitude speedup that the benchmark tracks as a
regression guard.
"""

from __future__ import annotations

import time

import numpy as np

from repro.algorithms.warshall import (
    random_adjacency,
    warshall,
    warshall_vectorized,
)
from repro.viz import format_table

from _common import save_table


def compare_references(n):
    a = random_adjacency(n, 0.3, seed=0)
    t0 = time.perf_counter()
    plain = warshall(a)
    t_plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    vec = warshall_vectorized(a)
    t_vec = time.perf_counter() - t0
    assert np.array_equal(plain, vec)
    return {
        "n": n,
        "scalar_ms": round(t_plain * 1e3, 2),
        "vectorized_ms": round(t_vec * 1e3, 3),
        "speedup": round(t_plain / max(t_vec, 1e-9), 1),
    }


def test_reference_vectorization(benchmark):
    rows = [compare_references(n) for n in (32, 64, 128)]
    # Time the vectorised oracle at the largest size (regression guard).
    a = random_adjacency(128, 0.3, seed=0)
    benchmark(warshall_vectorized, a)
    # The vectorised form must win by a wide, growing margin.
    speedups = [r["speedup"] for r in rows]
    assert speedups[-1] > 10
    assert speedups == sorted(speedups)
    save_table(
        "A-PERF", "software-oracle vectorization (guide-driven)",
        format_table(rows), rows=rows, n=rows[-1]["n"],
    )
