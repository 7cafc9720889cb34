"""G-graphs: grouping primitive nodes into G-nodes (Sec. 2, Figs. 5-6).

Step 2 of the partitioning procedure collapses groups of primitive nodes of
the (already transformed) dependence graph into *G-nodes*; the graph of
G-nodes — the *G-graph* — is what gets mapped onto the target array.  The
selection of groups should

(a) reduce communication requirements (G-node data dependences between
    neighbours only, simple pattern);
(b) equalise computation time where possible (G-nodes composed of the same
    number of primitive nodes);
(c) yield many more G-nodes than array cells, structured two-dimensionally,
    so scheduling has freedom (Sec. 2, requirements a-c).

This module provides the :class:`GGraph` container plus the grouping
strategies the paper compares in Fig. 6 (horizontal / vertical / diagonal
paths, and blocks).  G-node ids are always ``(row, col)`` pairs in a
virtual two-dimensional G-space, which is what the mapping step
(:mod:`repro.core.gsets`) consumes.

For the transitive-closure graph of Fig. 16 the winning strategy groups
each level's grid columns — the *diagonal paths* of the paper's drawing —
producing the Fig. 17 G-graph: ``n`` horizontal paths of ``n+1`` G-nodes,
each of computation time exactly ``n``, with G-edges only to the right
neighbour ``(k, c+1)`` and to the next level ``(k+1, c-1)``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping

import networkx as nx

from .graph import DependenceGraph, NodeId

__all__ = [
    "GNode",
    "GGraph",
    "group_by_rows",
    "group_by_columns",
    "group_by_diagonals",
    "group_by_blocks",
    "GroupingError",
]

GNodeId = tuple  # (row, col) in G-space


class GroupingError(ValueError):
    """Raised when a grouping is not a valid G-graph (e.g. cyclic)."""


@dataclass
class GNode:
    """One G-node: an ordered group of primitive nodes.

    ``members`` are sorted by intra-G-node execution order (the scheduling
    order a single cell uses when it executes the G-node).  ``comp_time``
    is the number of slot-occupying members — the paper's G-node
    computation time.
    """

    gid: GNodeId
    members: tuple[NodeId, ...]
    comp_time: int
    tags: dict[str, int] = field(default_factory=dict)

    @property
    def useful_time(self) -> int:
        """Members that perform real computation (tag ``compute``)."""
        return self.tags.get("compute", 0)


class GGraph:
    """The graph of G-nodes derived from a dependence graph and a grouping.

    Parameters
    ----------
    dg:
        The transformed dependence graph (all slot-occupying nodes must be
        assigned to a group).
    assign:
        Mapping from primitive node id to its G-node id, or a callable
        ``assign(dg, nid) -> GNodeId | None`` (None permitted only for
        non-slot nodes).  G-node ids must be ``(row, col)`` tuples.

    The constructor derives the G-edge structure (an edge between two
    G-nodes for every primitive dependence crossing groups), checks that
    the G-graph is acyclic (a grouping that creates mutual dependences
    between groups cannot be scheduled atomically), and orders each
    G-node's members by an intra-group topological order.
    """

    def __init__(
        self,
        dg: DependenceGraph,
        assign: "Mapping[NodeId, GNodeId] | Callable[[DependenceGraph, NodeId], GNodeId | None]",
    ) -> None:
        self.dg = dg
        assign_fn = assign.get if isinstance(assign, Mapping) else (
            lambda nid: assign(dg, nid)
        )
        self.node_of: dict[NodeId, GNodeId] = {}
        members: dict[GNodeId, list[NodeId]] = {}
        for nid in dg.g.nodes:
            kind = dg.kind(nid)
            gid = assign_fn(nid)
            if gid is None:
                if kind.occupies_slot:
                    raise GroupingError(f"slot node {nid!r} not assigned to a G-node")
                continue
            if not (isinstance(gid, tuple) and len(gid) == 2):
                raise GroupingError(f"G-node id must be a (row, col) pair, got {gid!r}")
            self.node_of[nid] = gid
            members.setdefault(gid, []).append(nid)

        # Intra-group topological order = execution order within the cell.
        # Rank nodes by their longest intra-group dependence chain, with the
        # drawing position as a deterministic tie-break (independent nodes
        # such as the delay column then execute in position order, which is
        # what their neighbours' timing expects).
        topo = dg.topological_order()
        group_rank: dict[NodeId, int] = {}
        for nid in topo:
            gid = self.node_of.get(nid)
            if gid is None:
                continue
            rank = 0
            for pred in dg.g.predecessors(nid):
                if self.node_of.get(pred) == gid:
                    rank = max(rank, group_rank[pred] + 1)
            group_rank[nid] = rank
        self.gnodes: dict[GNodeId, GNode] = {}
        for gid, nids in members.items():
            nids.sort(key=lambda x: (group_rank[x], dg.pos(x) or ()))
            comp_time = sum(1 for x in nids if dg.kind(x).occupies_slot)
            tags = Counter(
                dg.g.nodes[x].get("tag") or dg.kind(x).value
                for x in nids
                if dg.kind(x).occupies_slot
            )
            self.gnodes[gid] = GNode(
                gid=gid, members=tuple(nids), comp_time=comp_time, tags=dict(tags)
            )

        # Derive the G-edge structure.
        self.g = nx.DiGraph()
        self.g.add_nodes_from(self.gnodes)
        for u, v in dg.g.edges:
            gu, gv = self.node_of.get(u), self.node_of.get(v)
            if gu is None or gv is None or gu == gv:
                continue
            if self.g.has_edge(gu, gv):
                self.g.edges[gu, gv]["weight"] += 1
            else:
                self.g.add_edge(gu, gv, weight=1)
        if not nx.is_directed_acyclic_graph(self.g):
            cycle = nx.find_cycle(self.g)
            raise GroupingError(f"grouping produces a cyclic G-graph: {cycle[:4]}")

    # ------------------------------------------------------------------
    # Shape and time structure
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.gnodes)

    @property
    def rows(self) -> tuple:
        """Sorted distinct G-space row indices."""
        return tuple(sorted({gid[0] for gid in self.gnodes}))

    @property
    def cols(self) -> tuple:
        """Sorted distinct G-space column indices."""
        return tuple(sorted({gid[1] for gid in self.gnodes}))

    def grid_shape(self) -> tuple[int, int]:
        """(number of rows, number of columns) of the G-space grid."""
        return (len(self.rows), len(self.cols))

    def is_uniform_time(self) -> bool:
        """True when all G-nodes have the same computation time (Fig. 17)."""
        times = {gn.comp_time for gn in self.gnodes.values()}
        return len(times) <= 1

    def row_times(self, row: int) -> tuple[int, ...]:
        """Computation times along one horizontal path (Fig. 22 analysis)."""
        return tuple(
            self.gnodes[gid].comp_time
            for gid in sorted(g for g in self.gnodes if g[0] == row)
        )

    def col_times(self, col: int) -> tuple[int, ...]:
        """Computation times along one vertical path."""
        return tuple(
            self.gnodes[gid].comp_time
            for gid in sorted(g for g in self.gnodes if g[1] == col)
        )

    def total_slots(self) -> int:
        """Total primitive slots across all G-nodes."""
        return sum(gn.comp_time for gn in self.gnodes.values())

    def total_useful(self) -> int:
        """Total 'compute'-tagged slots (numerator of utilization)."""
        return sum(gn.useful_time for gn in self.gnodes.values())

    # ------------------------------------------------------------------
    # Communication structure
    # ------------------------------------------------------------------
    def edge_deltas(self) -> Counter:
        """Histogram of G-edge direction vectors ``(d_row, d_col)``.

        A well-formed G-graph (requirement (a)) has a tiny support here —
        the Fig. 17 G-graph has exactly ``{(0, 1), (1, -1)}``.
        """
        deltas: Counter = Counter()
        for (r1, c1), (r2, c2) in self.g.edges:
            deltas[(r2 - r1, c2 - c1)] += 1
        return deltas

    def is_nearest_neighbour(self, max_step: int = 1) -> bool:
        """True when every G-edge connects G-space neighbours."""
        return all(
            abs(dr) <= max_step and abs(dc) <= max_step
            for dr, dc in self.edge_deltas()
        )

    def asap_times(self, lag: int = 1) -> dict[GNodeId, int]:
        """Earliest start tags for every G-node (the Fig. 20 ``t_i`` tags).

        With pipelined data flow a successor G-node can start ``lag``
        cycles after its predecessor *starts* (not after it completes),
        because the first result leaves the predecessor after one cycle.
        """
        start: dict[GNodeId, int] = {}
        for gid in nx.topological_sort(self.g):
            preds = list(self.g.predecessors(gid))
            start[gid] = max((start[p] + lag for p in preds), default=0)
        return start

    def predecessors(self, gid: GNodeId) -> list[GNodeId]:
        """G-nodes this G-node depends on."""
        return list(self.g.predecessors(gid))

    def __repr__(self) -> str:  # noqa: D105
        r, c = self.grid_shape()
        times = sorted({gn.comp_time for gn in self.gnodes.values()})
        return (
            f"<GGraph {len(self)} G-nodes ({r}x{c} grid), "
            f"comp times {times[:5]}{'...' if len(times) > 5 else ''}>"
        )


# ----------------------------------------------------------------------
# Grouping strategies (Fig. 6 alternatives)
# ----------------------------------------------------------------------

def _pos3(dg: DependenceGraph, nid: NodeId) -> tuple | None:
    """Position of a slot node as (level, row, col), else None."""
    if not dg.kind(nid).occupies_slot:
        return None
    p = dg.pos(nid)
    if p is None or len(p) != 3:
        raise GroupingError(f"slot node {nid!r} lacks a (level, row, col) position")
    return p


def group_by_rows(dg: DependenceGraph, nid: NodeId) -> GNodeId | None:
    """Horizontal-path grouping: G-node = one row of one level."""
    p = _pos3(dg, nid)
    if p is None:
        return None
    k, r, _ = p
    return (k, r)


def group_by_columns(dg: DependenceGraph, nid: NodeId) -> GNodeId | None:
    """Vertical-path grouping: G-node = one column of one level.

    On the Fig. 16 transitive-closure graph these columns are the drawn
    *diagonal* paths, and this grouping produces the Fig. 17 G-graph.
    """
    p = _pos3(dg, nid)
    if p is None:
        return None
    k, _, c = p
    return (k, c)


def group_by_diagonals(modulus: int) -> Callable[[DependenceGraph, NodeId], GNodeId | None]:
    """Anti-diagonal grouping: G-node = ``(level, (row + col) mod modulus)``.

    Included as a Fig. 6 alternative; for some graphs it yields cyclic
    G-graphs (caught by :class:`GGraph`), illustrating why grouping
    requires care.
    """

    def assign(dg: DependenceGraph, nid: NodeId) -> GNodeId | None:
        p = _pos3(dg, nid)
        if p is None:
            return None
        k, r, c = p
        return (k, (r + c) % modulus)

    return assign


def group_by_blocks(
    block_rows: int, block_cols: int, level_height: int | None = None
) -> Callable[[DependenceGraph, NodeId], GNodeId | None]:
    """Block grouping: G-node = one ``block_rows x block_cols`` tile.

    Levels are flattened into numeric G-space rows: ``row = level *
    ceil(level_height / block_rows) + r // block_rows`` so the result
    remains a 2-D grid with orderable coordinates.  ``level_height``
    defaults to a bound derived from the graph's largest row index.
    """
    if block_rows < 1 or block_cols < 1:
        raise ValueError("block dimensions must be >= 1")
    state: dict[str, int] = {}

    def assign(dg: DependenceGraph, nid: NodeId) -> GNodeId | None:
        p = _pos3(dg, nid)
        if p is None:
            return None
        k, r, c = p
        if "stride" not in state:
            height = level_height
            if height is None:
                height = 1 + max(
                    dg.pos(x)[1]
                    for x in dg.g.nodes
                    if dg.kind(x).occupies_slot and dg.pos(x) is not None
                )
            state["stride"] = -(-height // block_rows)
        return (k * state["stride"] + r // block_rows, c // block_cols)

    return assign
