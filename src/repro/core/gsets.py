"""G-set selection and scheduling (Sec. 2 step 3, Figs. 7, 18-20).

A *G-set* is a group of up to ``m`` neighbouring G-nodes scheduled for
concurrent execution on the ``m`` cells of the target array; successive
G-sets execute sequentially (cut-and-pile), overlapped in pipelined
fashion.  For maximal utilization all G-nodes of a set should have the
same computation time (Sec. 2 requirement; Fig. 8).

Two selections are provided, matching the paper's two target arrays:

* :func:`make_linear_gsets` — ``m`` consecutive G-nodes from one
  horizontal path (Fig. 18); G-set ``(k, B)`` covers columns
  ``[B*m, (B+1)*m)`` of G-row ``k``.
* :func:`make_mesh_gsets` — ``sqrt(m) x sqrt(m)`` blocks of G-nodes
  (Fig. 19); boundary blocks may be ragged (the paper's triangular
  boundary sets).

Scheduling (:func:`schedule_gsets`) is a list scheduler over the G-set
dependence DAG: a G-set becomes *ready* once every G-set it depends on has
been issued, and among ready sets a policy priority picks the next one.
The paper's "scheduling by vertical paths" (Fig. 20) is the
``"vertical"`` policy: column-major priority, which under the readiness
constraint produces exactly the skewed wavefront the paper draws — and
spaces the input-consuming top-row G-sets ``n`` sets apart, which is what
keeps the host bandwidth at ``m/n`` (Fig. 21).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import networkx as nx

from .ggraph import GGraph, GNodeId

__all__ = [
    "GSet",
    "GSetPlan",
    "make_linear_gsets",
    "make_mesh_gsets",
    "infer_skew",
    "gset_dependences",
    "schedule_gsets",
    "ScheduleCheck",
    "check_schedule",
    "verify_schedule",
    "ScheduleError",
    "SCHEDULE_POLICIES",
]


class ScheduleError(ValueError):
    """Raised when a G-set plan or schedule is infeasible/illegal."""


@dataclass(frozen=True)
class GSet:
    """A group of G-nodes executed concurrently on the array.

    ``cells`` maps each member G-node to the array cell index that
    executes it — an integer ``p`` for a linear array, a pair ``(pr, pc)``
    for a mesh.
    """

    sid: tuple
    gids: tuple[GNodeId, ...]
    cells: tuple

    def __len__(self) -> int:
        return len(self.gids)

    def comp_time(self, gg: GGraph) -> int:
        """Set computation time = slowest member (Sec. 4.1's ``t_i``)."""
        return max(gg.gnodes[g].comp_time for g in self.gids)

    def is_uniform(self, gg: GGraph) -> bool:
        """True when all members share one computation time (Fig. 8)."""
        return len({gg.gnodes[g].comp_time for g in self.gids}) == 1


@dataclass
class GSetPlan:
    """A complete mapping of a G-graph onto an array.

    Attributes
    ----------
    gg:
        The G-graph being mapped.
    gsets:
        All G-sets (unordered until scheduled).
    geometry:
        ``"linear"`` or ``"mesh"``.
    m:
        Number of array cells.
    shape:
        For a mesh, the ``(rows, cols)`` cell arrangement; for a linear
        array ``(1, m)``.
    """

    gg: GGraph
    gsets: list[GSet]
    geometry: str
    m: int
    shape: tuple[int, int]

    @property
    def set_of(self) -> dict[GNodeId, tuple]:
        """G-node id -> owning G-set id."""
        return {g: s.sid for s in self.gsets for g in s.gids}

    def full_sets(self) -> int:
        """Number of G-sets that occupy every cell."""
        return sum(1 for s in self.gsets if len(s) == self.m)

    def boundary_sets(self) -> int:
        """Number of ragged (partially filled) G-sets.

        The paper: "maximal utilization ... except when executing boundary
        sets ... that might not use all cells in the array".
        """
        return sum(1 for s in self.gsets if len(s) < self.m)


# ----------------------------------------------------------------------
# G-set selection
# ----------------------------------------------------------------------

def make_linear_gsets(gg: GGraph, m: int, aligned: bool = True) -> GSetPlan:
    """G-sets of ``m`` consecutive G-nodes from horizontal paths (Fig. 18).

    With ``aligned=True`` (the paper's scheme) block boundaries follow the
    inter-level skew of the G-graph: level ``k``'s blocks are cut at
    ``gamma = c + skew*k`` multiples of ``m``, so the blocks of successive
    levels stack into the *vertical paths* of the paper's drawing.  The
    resulting G-set dependences are only ``(k, B-1)`` and ``(k-1, B)``,
    which is what makes the Fig. 20a column-major schedule legal and
    spaces the input-consuming top G-sets a full vertical path apart
    (host bandwidth ``m/n``, Fig. 21).  The price is a ragged boundary
    set at the ends of *some* horizontal paths — exactly the paper's
    "boundary sets in some horizontal paths that might not use all cells".

    With ``aligned=False`` every row is packed into full blocks from its
    first column (no alignment): all sets are full whenever ``m`` divides
    the row length, but the diagonal dependence ``(k-1, B+1) -> (k, B)``
    then forces a wavefront schedule whose input G-sets bunch together at
    the start — higher host-bandwidth demand for the same throughput (an
    ablation the benchmarks quantify).
    """
    if m < 1:
        raise ScheduleError(f"need at least one cell, got m={m}")
    skew = infer_skew(gg) if aligned else 0
    row_index = {r: idx for idx, r in enumerate(gg.rows)}
    blocks: dict[tuple, list[tuple[GNodeId, int]]] = {}
    for gid in gg.gnodes:
        k, c = gid
        kr = row_index[k]
        gamma = c + skew * kr
        sid = (kr, gamma // m)
        blocks.setdefault(sid, []).append((gid, gamma % m))
    gsets: list[GSet] = []
    for sid in sorted(blocks):
        pairs = sorted(blocks[sid], key=lambda t: t[1])
        gsets.append(
            GSet(
                sid=sid,
                gids=tuple(p[0] for p in pairs),
                cells=tuple(p[1] for p in pairs),
            )
        )
    return GSetPlan(gg=gg, gsets=gsets, geometry="linear", m=m, shape=(1, m))


def infer_skew(gg: GGraph) -> int:
    """Per-row skew that makes all G-edge column deltas non-negative.

    The Fig. 17 G-graph has inter-level edges ``(k, c) -> (k+1, c-1)``:
    blocks cut on raw column boundaries would depend on each other both
    ways.  In the skewed coordinate ``gamma = c + skew * row_rank`` every
    edge points right and/or down, so rectangular blocks are legal — and
    the parallelogram outline of the skewed grid is what produces the
    paper's *triangular* boundary G-sets (Fig. 19a).
    """
    skew = 0
    for dr, dc in gg.edge_deltas():
        if dr == 0 and dc <= 0:
            raise ScheduleError(
                f"intra-row G-edge with non-positive column delta {dc}; "
                "this G-graph cannot be skew-blocked"
            )
        if dr > 0 and dc < 0:
            skew = max(skew, math.ceil(-dc / dr))
    return skew


def make_mesh_gsets(
    gg: GGraph,
    m: int,
    shape: tuple[int, int] | None = None,
    skew: int | None = None,
) -> GSetPlan:
    """Square-block G-sets for a two-dimensional array (Fig. 19).

    ``shape`` defaults to ``(sqrt(m), sqrt(m))`` (requires square ``m``).
    Blocks are cut in skewed coordinates (see :func:`infer_skew`); cell
    ``(pr, pc)`` of the mesh executes the G-node at relative position
    ``(pr, pc)`` inside its block.  Boundary blocks are ragged — the
    triangular/partial sets of Fig. 19a.
    """
    if shape is None:
        side = math.isqrt(m)
        if side * side != m:
            raise ScheduleError(
                f"m={m} is not a perfect square; pass an explicit shape"
            )
        shape = (side, side)
    sr, sc = shape
    if sr * sc != m:
        raise ScheduleError(f"shape {shape} does not have m={m} cells")
    if skew is None:
        skew = infer_skew(gg)
    rows = gg.rows
    row_index = {r: idx for idx, r in enumerate(rows)}
    gsets_members: dict[tuple, list[tuple[GNodeId, tuple[int, int]]]] = {}
    for gid in gg.gnodes:
        k, c = gid
        kr = row_index[k]
        gamma = c + skew * kr
        sid = (kr // sr, gamma // sc)
        cell = (kr % sr, gamma % sc)
        gsets_members.setdefault(sid, []).append((gid, cell))
    gsets = []
    for sid in sorted(gsets_members):
        pairs = sorted(gsets_members[sid], key=lambda t: t[1])
        gids = tuple(p[0] for p in pairs)
        cells = tuple(p[1] for p in pairs)
        gsets.append(GSet(sid=sid, gids=gids, cells=cells))
    return GSetPlan(gg=gg, gsets=gsets, geometry="mesh", m=m, shape=shape)


# ----------------------------------------------------------------------
# Scheduling
# ----------------------------------------------------------------------

def gset_dependences(plan: GSetPlan) -> nx.DiGraph:
    """Dependence DAG over G-sets, derived from the G-edges.

    There is an edge ``S1 -> S2`` when some G-node of ``S2`` consumes a
    value produced inside ``S1``.  Because cut-and-pile executes G-sets
    sequentially, this DAG is the *only* constraint scheduling must honour
    (Sec. 3: "scheduling needs to consider only the dependences between
    G-sets").
    """
    set_of = plan.set_of
    dag = nx.DiGraph()
    dag.add_nodes_from(s.sid for s in plan.gsets)
    for gu, gv in plan.gg.g.edges:
        su, sv = set_of[gu], set_of[gv]
        if su != sv:
            dag.add_edge(su, sv)
    if not nx.is_directed_acyclic_graph(dag):
        cycle = nx.find_cycle(dag)
        raise ScheduleError(f"G-set dependences are cyclic: {cycle[:4]}")
    return dag


#: Scheduling policies: priority key over G-set ids (lower = sooner among
#: ready sets).  ``vertical`` is the paper's choice (Fig. 20).
SCHEDULE_POLICIES: dict[str, Callable[[tuple], tuple]] = {
    "vertical": lambda sid: (sid[1], sid[0]),
    "horizontal": lambda sid: (sid[0], sid[1]),
    "wavefront": lambda sid: (sid[0] + sid[1], sid[0]),
}


def schedule_gsets(
    plan: GSetPlan,
    policy: "str | Callable[[tuple], tuple]" = "vertical",
) -> list[GSet]:
    """Order the G-sets legally under the given policy (list scheduling).

    Kahn's algorithm with a priority heap: among the G-sets whose
    dependences have all been issued, issue the one with the smallest
    policy key.  The result is always a legal sequential order; the policy
    only shapes *which* legal order (and thereby the host-I/O pattern,
    Fig. 21).
    """
    key = SCHEDULE_POLICIES[policy] if isinstance(policy, str) else policy
    dag = gset_dependences(plan)
    by_sid = {s.sid: s for s in plan.gsets}
    indeg = {sid: dag.in_degree(sid) for sid in dag.nodes}
    ready = [(key(sid), sid) for sid, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order: list[GSet] = []
    while ready:
        _, sid = heapq.heappop(ready)
        order.append(by_sid[sid])
        for succ in dag.successors(sid):
            indeg[succ] -= 1
            if indeg[succ] == 0:
                heapq.heappush(ready, (key(succ), succ))
    if len(order) != len(plan.gsets):
        raise ScheduleError("scheduling deadlock: dependence DAG not fully issued")
    return order


@dataclass(frozen=True)
class ScheduleCheck:
    """What :func:`check_schedule` finds in one pile order.

    ``position``: G-set id -> (last) pile slot.  ``backward``:
    ``(producer set, consumer set)`` -> G-edges issued consumer first.
    ``duplicated`` / ``unplanned``: ``(slot, sid)`` per order entry that
    repeats a set or names one the plan lacks.  ``missing``: sorted ids
    of planned sets never issued.
    """

    position: dict[tuple, int]
    backward: dict[tuple[tuple, tuple], int]
    duplicated: tuple[tuple[int, tuple], ...]
    unplanned: tuple[tuple[int, tuple], ...]
    missing: tuple[tuple, ...]

    @property
    def covers(self) -> bool:
        """True when the order issues every planned G-set exactly once."""
        return not (self.duplicated or self.unplanned or self.missing)


def check_schedule(plan: GSetPlan, order: Sequence[GSet]) -> ScheduleCheck:
    """The one pile-order legality predicate, derived from the G-edges.

    A cyclic plan shows up as backward pairs instead of raising.  G-edges
    touching a G-node of no set, or a set the order leaves out, are
    coverage findings and are skipped here.
    """
    planned = {s.sid for s in plan.gsets}
    position: dict[tuple, int] = {}
    duplicated: list[tuple[int, tuple]] = []
    unplanned: list[tuple[int, tuple]] = []
    for idx, s in enumerate(order):
        if s.sid in position:
            duplicated.append((idx, s.sid))
        if s.sid not in planned:
            unplanned.append((idx, s.sid))
        position[s.sid] = idx
    set_of = plan.set_of
    backward: dict[tuple[tuple, tuple], int] = {}
    for gu, gv in plan.gg.g.edges:
        su, sv = set_of.get(gu), set_of.get(gv)
        if su is None or sv is None or su == sv:
            continue
        pu, pv = position.get(su), position.get(sv)
        if pu is not None and pv is not None and pu >= pv:
            backward[(su, sv)] = backward.get((su, sv), 0) + 1
    return ScheduleCheck(
        position, backward, tuple(duplicated), tuple(unplanned),
        tuple(sorted(planned - position.keys())),
    )


def verify_schedule(plan: GSetPlan, order: Sequence[GSet]) -> None:
    """Raise :class:`ScheduleError` unless ``order`` issues every G-set
    exactly once, after the G-sets it depends on (:func:`check_schedule`)."""
    check = check_schedule(plan, order)
    if not check.covers:
        raise ScheduleError("order does not cover every G-set exactly once")
    if check.backward:
        su, sv = next(iter(check.backward))
        raise ScheduleError(f"G-set {sv} issued before its dependence {su}")
