"""Dependence graph of QR triangularization by Givens rotations (Sec. 4.3).

At level ``k`` the subdiagonal of column ``k`` is annihilated by a chain
of plane rotations against row ``k``: rotation ``i`` (``i = k+1..n-1``)
is generated from the current ``(a[k,k], a[i,k])`` pair (``rotg``) and
applied to the trailing columns of rows ``k`` and ``i`` (``rota`` /
``rotb``).  The rotation coefficients are pipelined along the row pair
through the appliers' ``r`` ports — the same broadcast-removal idiom as
everywhere else.

Per-level work is ``(n-1-k)(2(n-1-k) + 1)`` — strongly decreasing, the
third member of the paper's Fig. 22 family ("triangularization by Givens
rotations").
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.graph import DependenceGraph, NodeId, port
from ..core.evaluate import evaluate
from ..core.ggraph import GGraph, GNodeId

__all__ = ["givens_graph", "givens_inputs", "run_givens", "givens_ggraph"]


def givens_graph(n: int) -> DependenceGraph:
    """Pipelined FPDG of Givens QR on an ``n x n`` matrix.

    Node ids: ``("rotg", k, i)`` generates the rotation annihilating
    ``a[i,k]``; ``("rk", k, i, j)`` (``rota``) updates row ``k``'s element
    ``j``; ``("ri", k, i, j)`` (``rotb``) updates row ``i``'s element.
    """
    if n < 2:
        raise ValueError(f"Givens QR needs n >= 2, got {n}")
    dg = DependenceGraph(f"givens(n={n})")
    for i in range(n):
        for j in range(n):
            dg.add_input(("in", i, j), pos=(-1, i, j))

    # row_val[(i, j)] tracks the current producer of a[i, j].
    row_val: dict[tuple[int, int], Any] = {
        (i, j): ("in", i, j) for i in range(n) for j in range(n)
    }
    for k in range(n - 1):
        for i in range(k + 1, n):
            rg = ("rotg", k, i)
            dg.add_op(
                rg,
                "rotg",
                {"a": row_val[(k, k)], "b": row_val[(i, k)]},
                pos=(k, i, k),
                tag="compute",
            )
            row_val[(k, k)] = None  # consumed; becomes the new r (set below)
            # After the rotation, a[k,k] := r = c*old_akk + s*a[i,k]; we
            # recompute it with an explicit rota node so the value flows.
            rkk = ("rk", k, i, k)
            dg.add_op(
                rkk,
                "rota",
                {"a": port(rg, "a"), "b": port(rg, "b"), "r": rg},
                pos=(k, i, k),
                tag="compute",
            )
            row_val[(k, k)] = rkk
            prev_rot = rg
            for j in range(k + 1, n):
                rk = ("rk", k, i, j)
                ri = ("ri", k, i, j)
                dg.add_op(
                    rk,
                    "rota",
                    {"a": row_val[(k, j)], "b": row_val[(i, j)], "r": prev_rot},
                    pos=(k, i, j),
                    tag="compute",
                )
                dg.add_op(
                    ri,
                    "rotb",
                    {"a": row_val[(k, j)], "b": row_val[(i, j)], "r": port(rk, "r")},
                    pos=(k, i, j),
                    tag="compute",
                )
                row_val[(k, j)] = rk
                row_val[(i, j)] = ri
                prev_rot = port(ri, "r")
    for i in range(n):
        for j in range(i, n):
            dg.add_output(("R", i, j), row_val[(i, j)], pos=(n, i, j))
    return dg


def givens_inputs(a: np.ndarray) -> dict[NodeId, Any]:
    """Input environment from a square matrix."""
    n = a.shape[0]
    return {("in", i, j): float(a[i, j]) for i in range(n) for j in range(n)}


def run_givens(a: np.ndarray) -> np.ndarray:
    """Evaluate the Givens graph; returns the upper-triangular ``R``.

    ``R`` satisfies ``R^T R == A^T A`` (it is the QR factor up to row
    signs; this construction keeps each pivot ``r_kk >= 0``).
    """
    n = a.shape[0]
    dg = givens_graph(n)
    outs = evaluate(dg, givens_inputs(a))
    r = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            r[i, j] = outs[("R", i, j)]
    return r


def _group_by_columns(dg: DependenceGraph, nid: NodeId) -> GNodeId | None:
    if not dg.kind(nid).occupies_slot:
        return None
    k, _, j = dg.pos(nid)
    return (k, j)


def givens_ggraph(n: int) -> GGraph:
    """Column-per-level G-graph with strongly decreasing times (Fig. 22)."""
    return GGraph(givens_graph(n), _group_by_columns)
