"""Dependence graph of the Faddeev algorithm (Sec. 4.3 workload).

The Faddeev algorithm computes ``D + C A^{-1} B`` by Gaussian elimination
on the compound matrix::

    [  A   B ]
    [ -C   D ]

annihilating the lower-left block with the rows of ``[A B]``; when the
first ``n`` columns are eliminated the lower-right block holds the result.
(The classics: with ``B = I, D = 0`` it inverts ``A``; with ``D = 0`` it
evaluates ``C A^{-1} B`` without ever forming the inverse.)

Like LU, the active region shrinks with the elimination level, so G-node
computation times decrease monotonically — the paper cites Faddeev
alongside LU as a Fig. 22 case (and devoted a companion paper [21] to it).

Structure, level ``k = 0..n-1``: rows ``i`` in ``{k+1..n-1}`` (remaining
``A|B`` rows) and ``{n..2n-1}`` (all ``-C|D`` rows) build a multiplier
``("div", k, i)`` against pivot row ``k`` and update columns
``j = k+1..2n-1`` with ``("op", k, i, j)`` (``msub``), with the same
pipelined chains as :mod:`repro.algorithms.lu`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.graph import DependenceGraph, NodeId, port
from ..core.evaluate import evaluate
from ..core.ggraph import GGraph, GNodeId

__all__ = ["faddeev_graph", "faddeev_inputs", "run_faddeev", "faddeev_ggraph"]


def _rows_at_level(n: int, k: int) -> list[int]:
    """Rows eliminated at level ``k`` (remaining A rows + all C rows)."""
    return list(range(k + 1, n)) + list(range(n, 2 * n))


def faddeev_graph(n: int) -> DependenceGraph:
    """Pipelined FPDG of the Faddeev algorithm on ``n x n`` blocks."""
    if n < 1:
        raise ValueError(f"Faddeev needs n >= 1, got {n}")
    rows, cols = 2 * n, 2 * n
    dg = DependenceGraph(f"faddeev(n={n})")
    for i in range(rows):
        for j in range(cols):
            dg.add_input(("in", i, j), pos=(-1, i, j))

    def active(k: int, i: int, j: int) -> bool:
        return i in set(_rows_at_level(n, k)) and j > k

    def val(k: int, i: int, j: int) -> NodeId:
        while k >= 0 and not active(k, i, j):
            k -= 1
        return ("in", i, j) if k < 0 else ("op", k, i, j)

    for k in range(n):
        level_rows = _rows_at_level(n, k)
        prev_ref = None
        for idx, i in enumerate(level_rows):
            pivot = val(k - 1, k, k) if idx == 0 else port(("div", k, level_rows[idx - 1]), "b")
            dg.add_op(
                ("div", k, i),
                "div",
                {"a": val(k - 1, i, k), "b": pivot},
                pos=(k, i, k),
                tag="compute",
            )
        for idx, i in enumerate(level_rows):
            for j in range(k + 1, cols):
                b_src = ("div", k, i) if j == k + 1 else port(("op", k, i, j - 1), "b")
                c_src = (
                    val(k - 1, k, j)
                    if idx == 0
                    else port(("op", k, level_rows[idx - 1], j), "c")
                )
                dg.add_op(
                    ("op", k, i, j),
                    "msub",
                    {"a": val(k - 1, i, j), "b": b_src, "c": c_src},
                    pos=(k, i, j),
                    tag="compute",
                )
    # Result: the lower-right block after all n eliminations.
    for i in range(n, rows):
        for j in range(n, cols):
            dg.add_output(("out", i - n, j - n), val(n - 1, i, j), pos=(n, i, j))
    return dg


def faddeev_inputs(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray
) -> dict[NodeId, Any]:
    """Input environment for the compound matrix ``[[A, B], [-C, D]]``."""
    n = a.shape[0]
    for name, mat in (("A", a), ("B", b), ("C", c), ("D", d)):
        if mat.shape != (n, n):
            raise ValueError(f"block {name} must be {n}x{n}, got {mat.shape}")
    top = np.hstack([a, b])
    bottom = np.hstack([-c, d])
    w = np.vstack([top, bottom])
    return {
        ("in", i, j): float(w[i, j]) for i in range(2 * n) for j in range(2 * n)
    }


def run_faddeev(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray
) -> np.ndarray:
    """Evaluate the Faddeev graph; returns ``D + C A^{-1} B``."""
    n = a.shape[0]
    dg = faddeev_graph(n)
    outs = evaluate(dg, faddeev_inputs(a, b, c, d))
    r = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            r[i, j] = outs[("out", i, j)]
    return r


def _group_by_columns(dg: DependenceGraph, nid: NodeId) -> GNodeId | None:
    if not dg.kind(nid).occupies_slot:
        return None
    k, _, j = dg.pos(nid)
    return (k, j)


def faddeev_ggraph(n: int) -> GGraph:
    """Column-per-level G-graph; times ``2n-1-k`` decrease with the level."""
    return GGraph(faddeev_graph(n), _group_by_columns)
