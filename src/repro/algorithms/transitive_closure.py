"""Dependence-graph pipeline for transitive closure (Section 3 / Figs. 10-17).

This module produces, as explicit :class:`~repro.core.graph.DependenceGraph`
objects, every stage the paper draws for the transitive-closure algorithm.
Stages B and C are rewrites of stage A; D and E are built directly (see
DESIGN.md §4, "Two pipelining models"):

=================  ==============================================
:func:`tc_full`            Fig. 10 — fully-parallel graph, ``n^3`` op nodes,
                           row and element broadcasting.
:func:`tc_pruned`          Fig. 11 — superfluous nodes removed by
                           :func:`~repro.core.transform.prune_superfluous`;
                           ``n(n-1)(n-2)`` op nodes remain.
:func:`tc_pipelined`       Fig. 12 — ``tc_pruned`` with its broadcasts
                           rewired into pipelined chains; *bi-directional*
                           data flow (chains grow outward from the
                           broadcast source in both directions).
:func:`tc_unidirectional`  Fig. 13/14 — nodes flipped across the broadcast
                           sources (realised as the cyclic re-indexing
                           ``r=(i-k) mod n``, ``c=(j-k) mod n``); flow is
                           uni-directional but the inter-level communication
                           pattern is still irregular at strip boundaries
                           (Fig. 15).
:func:`tc_regular`         Fig. 16 — one delay column appended per level;
                           every interior node now has the same stencil.
                           Grouping its columns yields the Fig. 17 G-graph
                           (n horizontal paths x (n+1) G-nodes of
                           computation time n).
=================  ==============================================

Geometry of the regularized graph
---------------------------------
Level ``k`` (one outer-loop iteration) is an ``n x (n+1)`` grid in *local*
coordinates: row ``r`` holds matrix row ``i=(k+r) mod n``; column ``c``
(for ``c<n``) holds matrix column ``j=(k+c) mod n``; column ``c=n`` is the
delay column.  Every grid cell with ``c<n`` is a ``mac`` node computing

    out = a (+) (b (x) c)

where ``a`` comes from the previous level, ``b`` travels rightward along
the row (the element broadcast *within* each row of Fig. 10, pipelined),
and ``c`` travels downward along the column (the broadcast of matrix row
``k``, pipelined).  Boundary cells source their own chain: at ``c=0`` the
``b`` operand is the node's own ``a`` value (``x[i,k]``), at ``r=0`` the
``c`` operand is its own ``a`` value (``x[k,j]``); the ``mac`` result at
those cells — and on the main diagonal ``i=j`` — provably equals ``a``
(the paper's superfluous-node argument), so the cells act as transmitters
while keeping a perfectly uniform structure.

The chains also *deliver the wrap-around values*: row ``k``'s updated
values ride the ``c`` chains to the bottom row, and column ``k``'s values
ride the ``b`` chains to the delay column, which is exactly why the next
level can read all of its ``a`` operands from nearest neighbours — the
irregular strip-boundary communication of Fig. 15 disappears (this is the
transformation of Fig. 15c).

All stages are functionally equivalent: evaluating any of them on an
adjacency matrix yields the transitive closure (over any closed idempotent
semiring whose ``(x)``-identity sits on the diagonal; see
:mod:`repro.core.semiring`).
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, MutableMapping
from typing import Any, Sequence

import numpy as np

from ..core.evaluate import evaluate
from ..core.graph import DependenceGraph, NodeId, PortRef, port
from ..core.semiring import BOOLEAN, Semiring
from ..core.transform import prune_superfluous

__all__ = [
    "tc_full",
    "tc_pruned",
    "tc_pipelined",
    "tc_unidirectional",
    "tc_regular",
    "TC_STAGES",
    "InputGrid",
    "OutputGrid",
    "make_inputs",
    "read_output_matrix",
    "run_graph",
    "is_computed",
    "is_superfluous",
    "expected_full_ops",
    "expected_computed_ops",
    "expected_regular_slots",
    "node_tag_census",
]


# ----------------------------------------------------------------------
# Bookkeeping helpers (Sec. 3.1 / Sec. 4.2 formulas)
# ----------------------------------------------------------------------

def is_computed(n: int, k: int, i: int, j: int) -> bool:
    """True when node ``(k,i,j)`` of the FPDG is *not* superfluous.

    Fig. 11: at level ``k`` the nodes of row ``k`` (``i==k``), of column
    ``k`` (``j==k``) and of the main diagonal (``i==j``) never change the
    value they would compute.
    """
    return i != k and j != k and i != j


def is_superfluous(dg: DependenceGraph, nid: NodeId) -> bool:
    """Fig. 11's :func:`~repro.core.transform.prune_superfluous` predicate:
    the FPDG op node ``("op", k, i, j)`` is not :func:`is_computed`."""
    _, k, i, j = nid
    return i == k or j == k or i == j


def expected_full_ops(n: int) -> int:
    """Op-node count of the fully-parallel graph (Fig. 10): ``n^3``."""
    return n**3


def expected_computed_ops(n: int) -> int:
    """Nodes that must actually be computed (Fig. 11): ``n(n-1)(n-2)``."""
    return n * (n - 1) * (n - 2)


def expected_regular_slots(n: int) -> int:
    """Slot count of the regularized graph / G-graph: ``n^2 (n+1)``.

    ``n`` levels, each an ``n x (n+1)`` grid; this is the utilization
    denominator of Section 4.2.
    """
    return n * n * (n + 1)


# ----------------------------------------------------------------------
# Stage A -- Fig. 10: fully-parallel dependence graph
# ----------------------------------------------------------------------

def tc_full(n: int) -> DependenceGraph:
    """Fully-parallel dependence graph of Warshall's algorithm (Fig. 10).

    ``n^3`` op nodes; level ``k`` broadcasts matrix row ``k`` to all rows
    and element ``x[i,k]`` within each row ``i`` — the fan-outs the
    analysis in :mod:`repro.core.analysis` reports as broadcasts.
    """
    _check_n(n)
    dg = DependenceGraph(f"tc_full(n={n})")
    for i in range(n):
        for j in range(n):
            dg.add_input(("in", i, j), pos=(-1, i, j))

    def val(k: int, i: int, j: int) -> NodeId:
        return ("in", i, j) if k < 0 else ("op", k, i, j)

    for k in range(n):
        for i in range(n):
            for j in range(n):
                dg.add_op(
                    ("op", k, i, j),
                    "mac",
                    {
                        "a": val(k - 1, i, j),
                        "b": val(k - 1, i, k),
                        "c": val(k - 1, k, j),
                    },
                    pos=(k, i, j),
                    tag="compute",
                )
    for i in range(n):
        for j in range(n):
            dg.add_output(("out", i, j), val(n - 1, i, j), pos=(n, i, j))
    _attach_drawing(dg, n, flipped=False)
    return dg


# ----------------------------------------------------------------------
# Stage B -- Fig. 11: superfluous nodes removed
# ----------------------------------------------------------------------

def tc_pruned(n: int) -> DependenceGraph:
    """Fig. 11: the FPDG with superfluous nodes removed.

    Exactly ``n(n-1)(n-2)`` op nodes remain; values of pruned positions
    are carried by the edge from their last actual producer (the data
    line simply stretches over the removed node).
    """
    dg = prune_superfluous(tc_full(n), is_superfluous)
    dg.name = f"tc_pruned(n={n})"
    return dg


# ----------------------------------------------------------------------
# Stage C -- Fig. 12: broadcasting replaced by pipelining (bi-directional)
# ----------------------------------------------------------------------

def tc_pipelined(n: int) -> DependenceGraph:
    """Fig. 12: broadcasts serialized into chains through the consumers.

    Matrix row ``k``'s element ``x[k,j]`` now *flows* through the column-
    ``j`` nodes of level ``k`` (forwarded on each node's ``c`` port), and
    ``x[i,k]`` flows through the row-``i`` nodes (``b`` port).  The chains
    grow outward from the broadcast source in both directions — the
    bi-directional flow the flip transformations of Fig. 13 remove.
    Positions remain in global ``(k, i, j)`` coordinates.
    """
    dg = tc_pruned(n)
    dg.name = f"tc_pipelined(n={n})"
    for k in range(n):
        for x in range(n):
            if x == k:
                continue
            # Row x's b chain and column x's c chain, each way from k.
            for run in (range(k + 1, n), range(k - 1, -1, -1)):
                _chain(dg, [("op", k, x, y) for y in run if y != x], "b")
                _chain(dg, [("op", k, y, x) for y in run if y != x], "c")
    return dg


def _chain(dg: DependenceGraph, nodes: list[NodeId], role: str) -> None:
    """Thread ``role`` through ``nodes``: each reads its predecessor's
    forwarding port; the first keeps reading the broadcast source."""
    for prev, nid in zip(nodes, nodes[1:]):
        dg.rewire(nid, role, port(prev, role))


# ----------------------------------------------------------------------
# Stages D & E -- Figs. 13-16: flipped grids, then the delay column
# ----------------------------------------------------------------------

def _grid_graph(n: int, with_delay_column: bool, name: str) -> DependenceGraph:
    """Common constructor for the flipped level grids (stages D and E).

    Each level ``k`` is an ``n x n`` grid of ``mac`` nodes in local
    coordinates (plus, for stage E, the delay column ``c=n``).  See the
    module docstring for the full geometry.
    """
    _check_n(n)
    dg = DependenceGraph(name)
    for i in range(n):
        for j in range(n):
            dg.add_input(("in", i, j), pos=(-1, i, j))

    def a_source(k: int, r: int, c: int) -> NodeId | PortRef:
        """Producer of the previous-level value needed at local (r, c).

        ``k`` is the consuming level; the producer lives at level ``k-1``
        local position ``(r+1, c+1)`` (the strips shift by one in both
        local coordinates between levels).
        """
        if k == 0:
            i = (k + r) % n
            j = (k + c) % n
            return ("in", i, j)
        kp = k - 1
        if r <= n - 2 and c <= n - 2:
            return ("cell", kp, r + 1, c + 1)  # its out port
        if r == n - 1 and c <= n - 2:
            # Row k-1's value rides the c chain to the bottom row.
            return port(("cell", kp, n - 1, c + 1), "c")
        if c == n - 1 and r <= n - 2:
            # Column k-1's value rides the b chain to the right edge.
            if with_delay_column:
                return ("dly", kp, r + 1)
            return port(("cell", kp, r + 1, n - 1), "b")
        # Corner: x[k-1, k-1].
        if with_delay_column:
            return ("dly", kp, 0)
        return port(("cell", kp, n - 1, 0), "c")

    for k in range(n):
        for r in range(n):
            for c in range(n):
                a = a_source(k, r, c)
                b = port(("cell", k, r, c - 1), "b") if c > 0 else a
                cc = port(("cell", k, r - 1, c), "c") if r > 0 else a
                i = (k + r) % n
                j = (k + c) % n
                if r == 0:
                    tag = "transmit-row"
                elif c == 0:
                    tag = "transmit-col"
                elif i == j:
                    tag = "superfluous"
                else:
                    tag = "compute"
                dg.add_op(
                    ("cell", k, r, c),
                    "mac",
                    {"a": a, "b": b, "c": cc},
                    pos=(k, r, c),
                    tag=tag,
                )
            if with_delay_column:
                dg.add_delay(
                    ("dly", k, r),
                    port(("cell", k, r, n - 1), "b"),
                    pos=(k, r, n),
                    tag="delay",
                )

    # Outputs: read with the same stencil a hypothetical level n would use.
    for i in range(n):
        for j in range(n):
            r, c = i, j  # local coordinates at level n: (i - n) mod n = i
            kp = n - 1
            if r <= n - 2 and c <= n - 2:
                src: NodeId | PortRef = ("cell", kp, r + 1, c + 1)
            elif r == n - 1 and c <= n - 2:
                src = port(("cell", kp, n - 1, c + 1), "c")
            elif c == n - 1 and r <= n - 2:
                src = ("dly", kp, r + 1) if with_delay_column else port(
                    ("cell", kp, r + 1, n - 1), "b"
                )
            else:
                src = ("dly", kp, 0) if with_delay_column else port(
                    ("cell", kp, n - 1, 0), "c"
                )
            dg.add_output(("out", i, j), src, pos=(n, i, j))
    _attach_drawing(dg, n, flipped=True)
    return dg


def tc_unidirectional(n: int) -> DependenceGraph:
    """Figs. 13/14: flipped (cyclically re-indexed) grids, no delay column.

    Data flow is uni-directional (all intra-level chains run toward
    increasing local coordinates), but the inter-level pattern is
    irregular at strip boundaries (Fig. 15): right-edge consumers read a
    *forwarding port* of their diagonal neighbour instead of an output,
    and the corner reads across the whole strip — several distinct
    communication stencils coexist.
    """
    return _grid_graph(n, with_delay_column=False, name=f"tc_unidirectional(n={n})")


def tc_regular(n: int) -> DependenceGraph:
    """Fig. 16: the regularized graph (delay column appended per level).

    Every level is ``n x (n+1)``; all interior consumers share a single
    communication stencil, which is what makes the diagonal grouping into
    the Fig. 17 G-graph possible.  Total slot count is ``n^2 (n+1)``.
    """
    return _grid_graph(n, with_delay_column=True, name=f"tc_regular(n={n})")


#: Stage name -> constructor, in pipeline order.
TC_STAGES = {
    "full": tc_full,
    "pruned": tc_pruned,
    "pipelined": tc_pipelined,
    "unidirectional": tc_unidirectional,
    "regular": tc_regular,
}


# ----------------------------------------------------------------------
# I/O helpers
# ----------------------------------------------------------------------

class _LazyDict:
    """Mapping reads delegated to the dict a subclass's ``_dict`` builds."""

    __slots__ = ()

    def _dict(self) -> dict[NodeId, Any]:
        raise NotImplementedError

    def __getitem__(self, key: NodeId) -> Any:
        return self._dict()[key]

    def __contains__(self, key: object) -> bool:
        return key in self._dict()

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._dict())

    def __len__(self) -> int:
        return len(self._dict())


class InputGrid(_LazyDict, MutableMapping):
    """``("in", i, j)`` input environment backed by an ``n x n`` matrix.

    The vector backend binds :attr:`matrix` straight into a compiled
    replay (one scatter, see :meth:`CompiledPlan.replay
    <repro.arrays.vector_compile.CompiledPlan.replay>`), the way the
    paper's host streams matrix rows and columns into the array.  Every
    other consumer (the reference interpreter, :func:`evaluate`, the
    resilient runtime) reads it as a mapping: the first key access,
    iteration or ``len`` builds a dict of native Python scalars
    (``.item()`` semantics) and every later access goes through it.

    Any mutation builds that dict first and then *detaches* the matrix
    (:attr:`matrix` becomes ``None``): from then on the object is a plain
    mapping, so a replay can never bind values the mapping no longer
    holds.
    """

    __slots__ = ("matrix", "_env")

    def __init__(self, matrix: np.ndarray) -> None:
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
        #: the bound ``n x n`` semiring matrix; ``None`` once mutated
        self.matrix: np.ndarray | None = matrix
        self._env: dict[NodeId, Any] | None = None

    def _dict(self) -> dict[NodeId, Any]:
        env = self._env
        if env is None:
            m = self.matrix
            assert m is not None  # detaching always builds the dict first
            n = m.shape[0]
            keys = [("in", i, j) for i in range(n) for j in range(n)]
            env = dict(zip(keys, m.ravel().tolist()))
            self._env = env
        return env

    def __setitem__(self, key: NodeId, value: Any) -> None:
        env = self._dict()
        self.matrix = None
        env[key] = value

    def __delitem__(self, key: NodeId) -> None:
        env = self._dict()
        self.matrix = None
        del env[key]


class OutputGrid(_LazyDict, Mapping):
    """Read-only ``("out", i, j)`` view over a replay's result matrix.

    The compiled replay writes its outputs as one ``n x n`` array
    (:attr:`grid`); the keyed dict — numpy scalars, in the graph's
    output order — is built only when something reads the mapping.
    :func:`read_output_matrix` copies :attr:`grid` without it.
    """

    __slots__ = ("grid", "_ids", "_env")

    def __init__(self, grid: np.ndarray, ids: Sequence[Any]) -> None:
        #: the ``n x n`` result matrix; ``ids`` are exactly its positions
        self.grid = grid
        self._ids = ids
        self._env: dict[NodeId, Any] | None = None

    def _dict(self) -> dict[NodeId, Any]:
        env = self._env
        if env is None:
            n = self.grid.shape[1]
            flat = self.grid.reshape(-1)
            env = {nid: flat[nid[1] * n + nid[2]] for nid in self._ids}
            self._env = env
        return env


def make_inputs(a: np.ndarray, semiring: Semiring = BOOLEAN) -> InputGrid:
    """Input environment for any TC stage from a matrix ``a``.

    The diagonal is forced to the semiring's diagonal element (Warshall's
    precondition).  The result holds its own copy of the matrix, so
    later changes to ``a`` do not reach it.
    """
    return InputGrid(semiring.matrix(a))


def read_output_matrix(
    outputs: Mapping[Any, Any],
    n: int,
    semiring: Semiring = BOOLEAN,
    prefix: tuple = ("out",),
) -> np.ndarray:
    """Assemble the ``prefix + (i, j)`` values into an ``n x n`` matrix.

    The one output assembler: an :class:`OutputGrid` of size ``n`` is
    copied as a whole (``astype`` to ``semiring.dtype``); any other
    mapping is read key by key, and a missing key raises ``KeyError``.
    """
    if isinstance(outputs, OutputGrid) and outputs.grid.shape == (n, n):
        return outputs.grid.astype(semiring.dtype)
    m = np.empty((n, n), dtype=semiring.dtype)
    for i in range(n):
        for j in range(n):
            m[i, j] = outputs[prefix + (i, j)]
    return m


def run_graph(
    dg: DependenceGraph, a: np.ndarray, semiring: Semiring = BOOLEAN
) -> np.ndarray:
    """Functionally evaluate a TC stage on matrix ``a``; return the closure."""
    n = a.shape[0]
    outs = evaluate(dg, make_inputs(a, semiring), semiring)
    return read_output_matrix(outs, n, semiring)


def node_tag_census(dg: DependenceGraph) -> dict[str, int]:
    """Histogram of node tags (compute / transmit-* / superfluous / delay)."""
    census: dict[str, int] = {}
    for nid, d in dg.g.nodes(data=True):
        tag = d.get("tag")
        if tag is not None:
            census[tag] = census.get(tag, 0) + 1
    return census


def _attach_drawing(dg: DependenceGraph, n: int, flipped: bool) -> None:
    """Attach the paper's drawing embedding as the ``draw`` node attribute.

    Levels are stacked vertically (strip ``k`` occupies drawing rows
    ``[k*n, (k+1)*n)``).  For the flipped stages each strip is also
    shifted one position to the right (``x = k + c``), which is how the
    paper draws Figs. 14-16 — in that embedding every edge of the
    regularized graph points down and/or right (uni-directional flow),
    while the pre-flip stages mix both horizontal directions.
    """
    for nid, d in dg.g.nodes(data=True):
        p = d.get("pos")
        if p is None or len(p) != 3:
            continue
        k, a, b = p
        d["draw"] = (k * n + a, k + b) if flipped else (k * n + a, b)


def _check_n(n: int) -> None:
    if n < 3:
        raise ValueError(
            f"transitive-closure graphs need n >= 3 (got n={n}); "
            "below that every node is superfluous"
        )
