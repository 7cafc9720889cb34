"""Dependence graph of LU decomposition (Sec. 4.3 workload).

LU decomposition (without pivoting) is the paper's archetype of an
algorithm whose G-nodes *cannot* all have the same computation time: the
active submatrix shrinks by one row and column per elimination level, so
grouping along one direction gives uniform G-nodes within a path but
monotonically decreasing times across paths (Fig. 22a).  Consequently

* a linear array can pick its G-sets along the uniform paths and stay
  fully utilized (Fig. 22b), while
* any two-dimensional G-set necessarily mixes computation times and wastes
  the faster cells.

Graph structure, level ``k`` (``k = 0..n-2``):

* ``("div", k, i)`` for ``i > k``: the multiplier ``l[i,k] =
  a[i,k] / a[k,k]``; the pivot ``a[k,k]`` is pipelined down the column
  through the div nodes' ``b`` ports.
* ``("op", k, i, j)`` for ``i, j > k``: the update ``a[i,j] -= l[i,k] *
  a[k,j]`` (opcode ``msub``); ``l[i,k]`` is pipelined along row ``i``
  (port ``b``), the pivot-row element ``a[k,j]`` down column ``j``
  (port ``c``).

Outputs are the ``L`` multipliers and the ``U`` rows as they freeze.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.graph import DependenceGraph, NodeId, port
from ..core.evaluate import evaluate
from ..core.ggraph import GGraph, GNodeId

__all__ = ["lu_graph", "lu_inputs", "run_lu", "lu_group_by_columns", "lu_ggraph", "lu_reference"]


def lu_graph(n: int) -> DependenceGraph:
    """Pipelined FPDG of LU decomposition of an ``n x n`` matrix."""
    if n < 2:
        raise ValueError(f"LU decomposition needs n >= 2, got n={n}")
    dg = DependenceGraph(f"lu(n={n})")
    for i in range(n):
        for j in range(n):
            dg.add_input(("in", i, j), pos=(-1, i, j))

    def val(k: int, i: int, j: int) -> NodeId:
        """Value of a[i,j] after elimination level k (k = -1 for input)."""
        while k >= 0 and not (i > k and j > k):
            k -= 1
        return ("in", i, j) if k < 0 else ("op", k, i, j)

    for k in range(n - 1):
        for i in range(k + 1, n):
            pivot = val(k - 1, k, k) if i == k + 1 else port(("div", k, i - 1), "b")
            dg.add_op(
                ("div", k, i),
                "div",
                {"a": val(k - 1, i, k), "b": pivot},
                pos=(k, i, k),
                tag="compute",
            )
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                b_src = ("div", k, i) if j == k + 1 else port(("op", k, i, j - 1), "b")
                c_src = (
                    val(k - 1, k, j) if i == k + 1 else port(("op", k, i - 1, j), "c")
                )
                dg.add_op(
                    ("op", k, i, j),
                    "msub",
                    {"a": val(k - 1, i, j), "b": b_src, "c": c_src},
                    pos=(k, i, j),
                    tag="compute",
                )
    # Outputs: L (multipliers) and U (frozen rows).
    for i in range(n):
        for j in range(n):
            if i > j:
                dg.add_output(("L", i, j), ("div", j, i), pos=(n, i, j))
            else:
                dg.add_output(("U", i, j), val(i - 1, i, j), pos=(n, i, j))
    return dg


def lu_inputs(a: np.ndarray) -> dict[NodeId, Any]:
    """Input environment from a square matrix."""
    n = a.shape[0]
    return {("in", i, j): float(a[i, j]) for i in range(n) for j in range(n)}


def run_lu(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the LU graph; return ``(L, U)`` with unit diagonal ``L``."""
    n = a.shape[0]
    dg = lu_graph(n)
    outs = evaluate(dg, lu_inputs(a))
    lo = np.eye(n)
    up = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i > j:
                lo[i, j] = outs[("L", i, j)]
            else:
                up[i, j] = outs[("U", i, j)]
    return lo, up


def lu_reference(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Doolittle LU without pivoting (numpy reference)."""
    a = np.array(a, dtype=np.float64, copy=True)
    n = a.shape[0]
    lo = np.eye(n)
    for k in range(n - 1):
        if a[k, k] == 0:
            raise ZeroDivisionError(f"zero pivot at k={k}; supply a matrix "
                                    "that needs no pivoting")
        for i in range(k + 1, n):
            lo[i, k] = a[i, k] / a[k, k]
            a[i, k + 1 :] -= lo[i, k] * a[k, k + 1 :]
            a[i, k] = 0.0
    return lo, np.triu(a)


def lu_group_by_columns(dg: DependenceGraph, nid: NodeId) -> GNodeId | None:
    """Fig. 22 grouping: G-node = one column of one elimination level.

    G-node ``(k, j)`` holds the level-``k`` nodes of column ``j`` (the
    div column for ``j == k``); its computation time is ``n - 1 - k`` —
    uniform along each horizontal G-path, decreasing down the levels.
    """
    if not dg.kind(nid).occupies_slot:
        return None
    p = dg.pos(nid)
    k, _, j = p
    return (k, j)


def lu_ggraph(n: int) -> GGraph:
    """The Fig. 22a G-graph of LU decomposition."""
    return GGraph(lu_graph(n), lu_group_by_columns)
