"""Execution plans: every primitive node gets a cell and a fire cycle.

An :class:`ExecutionPlan` is the bridge between the partitioning
methodology (G-graphs, G-sets, schedules) and the cycle-level simulator:
it fixes *which cell* executes *which primitive node* at *which cycle*.
Builders are provided for the paper's four structures:

* :func:`partitioned_plan` — cut-and-pile execution of a scheduled G-set
  plan on a linear array (Fig. 18) or mesh (Fig. 19).  G-sets run
  back-to-back (each occupies the array for its computation time); within
  a G-set, cells start with the classic systolic *skew* (one cycle per
  hop) so that every chained operand arrives exactly one cycle after it
  is produced.
* :func:`fixed_array_plan` — the Fig. 17 fixed-size array: one cell per
  G-node, start skew ``3k + c`` (two extra cycles per level for the
  down-left link and the operand latency).
* :func:`fixed_linear_plan` — the linear collapse of Fig. 17: one cell
  per horizontal path (level); cell ``k`` executes its ``n(n+1)`` slots
  column-by-column; throughput ``1/(n(n+1))`` with all cells fully
  utilized.

All builders also verify *initiation-interval* feasibility for pipelined
problem instances: :func:`check_initiation_interval` proves that issuing a
new problem every ``delta`` cycles never double-books a cell, which is how
the fixed-size array's throughput ``1/n`` is established by simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

from ..core.ggraph import GGraph
from ..core.graph import NodeId
from ..core.gsets import GSet, GSetPlan
from ..obs.tracing import stage_span
from .topology import ArrayTopology, fixed_grid_topology, linear_topology, mesh_topology

__all__ = [
    "ExecutionPlan",
    "PlanError",
    "partitioned_plan",
    "fixed_array_plan",
    "fixed_linear_plan",
    "check_initiation_interval",
    "min_initiation_interval",
]


class PlanError(ValueError):
    """Raised when an execution plan is malformed."""


@dataclass
class ExecutionPlan:
    """Cell/time assignment for every slot-occupying node of a graph.

    ``fires[nid] = (cell, cycle)``.  ``set_starts`` (optional) records the
    start cycle of each G-set for reporting.  ``region_of`` assigns each
    node to an execution region (its G-set): values crossing regions are
    parked in external memory between executions (cut-and-pile), even when
    producer and consumer happen to run on the same cell — a cell's
    registers do not survive into later G-sets.
    """

    topology: ArrayTopology
    fires: dict[NodeId, tuple[Hashable, int]]
    description: str = ""
    set_starts: list[tuple[tuple, int]] = field(default_factory=list)
    region_of: dict[NodeId, tuple] = field(default_factory=dict)
    #: cycles inserted to wait for cross-set dependences -- the measured
    #: partitioning overhead (zero whenever m << n, the paper's claim).
    stall_cycles: int = 0

    @property
    def makespan(self) -> int:
        """Cycles from 0 to the last firing (inclusive of that cycle)."""
        return max((t for _, t in self.fires.values()), default=-1) + 1

    def validate_exclusive(self) -> None:
        """Check that no cell fires two nodes in the same cycle."""
        seen: set[tuple] = set()
        for nid, (cell, t) in self.fires.items():
            if not self.topology.has_cell(cell):
                raise PlanError(f"node {nid!r} assigned to unknown cell {cell!r}")
            key = (cell, t)
            if key in seen:
                raise PlanError(f"cell {cell!r} double-booked at cycle {t}")
            seen.add(key)

    def busy_cycles(self) -> int:
        """Total cell-cycles spent firing nodes."""
        return len(self.fires)


def _mesh_skew(cell: tuple[int, int], unit: int = 1) -> int:
    """Within-set start skew for a mesh cell.

    ``unit + 1`` cycles per block row (the inter-level link latency plus
    the producing slot firing ``unit`` slots later) and ``unit`` cycles
    per block column for the horizontal chains.
    """
    return (unit + 1) * cell[0] + unit * cell[1]


def partitioned_plan(
    plan: GSetPlan,
    order: Sequence[GSet],
    start: int = 0,
    skew_unit: int = 1,
) -> ExecutionPlan:
    """Cut-and-pile execution of a scheduled G-set plan (Figs. 18/19).

    G-set ``q`` normally starts at ``T_q = T_{q-1} + t_{q-1}``
    (back-to-back); the member executed by cell ``p`` fires its ``j``-th
    slot at ``T_q + skew(p) + j``.  ``skew_unit`` is the number of slots
    a G-node spends per chain position — 1 for the single-op grids
    (transitive closure, matmul, LU), 2 for Givens QR whose positions
    hold a rotate-apply pair.  When a dependence from an earlier
    G-set is not yet through its external-memory round trip (only
    possible when the array is *not* much smaller than the problem — the
    paper's ``m << n`` assumption), the set is stalled just long enough;
    the stall total is the measured partitioning overhead and is zero in
    the paper's regime (asserted by the test suite).
    """
    gg = plan.gg
    dg = gg.dg
    if skew_unit < 1:
        raise PlanError(f"skew_unit must be >= 1, got {skew_unit}")
    if plan.geometry == "linear":
        topo = linear_topology(plan.m)
        skew = lambda cell: skew_unit * cell  # noqa: E731
    elif plan.geometry == "mesh":
        topo = mesh_topology(*plan.shape)
        skew = lambda cell: _mesh_skew(cell, skew_unit)  # noqa: E731
    else:
        raise PlanError(f"unknown plan geometry {plan.geometry!r}")
    fires: dict[NodeId, tuple[Hashable, int]] = {}
    region_of: dict[NodeId, tuple] = {}
    set_starts: list[tuple[tuple, int]] = []
    with stage_span(
        "plan.partitioned", geometry=plan.geometry, m=plan.m,
        gsets=len(order),
    ) as sp:
        t = start
        stalls = 0
        for s in order:
            # Earliest start honouring cross-set operands (memory round
            # trip: producer fire + 2 <= consumer fire).
            earliest = t
            for gid, cell in zip(s.gids, s.cells):
                offset = skew(cell)
                for j, nid in enumerate(gg.gnodes[gid].members):
                    for ref in dg.operands(nid).values():
                        prior = fires.get(ref[0])
                        if prior is not None and region_of.get(ref[0]) != s.sid:
                            earliest = max(earliest, prior[1] + 2 - offset - j)
            stalls += earliest - t
            t = earliest
            set_starts.append((s.sid, t))
            for gid, cell in zip(s.gids, s.cells):
                base = t + skew(cell)
                for j, nid in enumerate(gg.gnodes[gid].members):
                    fires[nid] = (cell, base + j)
                    region_of[nid] = s.sid
            t += s.comp_time(gg)
        ep = ExecutionPlan(
            topology=topo,
            fires=fires,
            description=(
                f"partitioned {plan.geometry} m={plan.m} "
                f"({len(order)} G-sets)"
            ),
            set_starts=set_starts,
            region_of=region_of,
            stall_cycles=stalls,
        )
        ep.validate_exclusive()
        sp.tag("fires", len(fires))
        sp.tag("makespan", ep.makespan)
        sp.tag("stall_cycles", stalls)
    return ep


def fixed_array_plan(gg: GGraph, instance_offset: int = 0) -> ExecutionPlan:
    """Fig. 17 fixed-size array: one cell per G-node.

    Cell ``(k, c)`` (level, column rank) executes G-node ``(k, c)``; its
    ``j``-th slot fires at ``3*k + c + j + instance_offset``.  The skew
    ``3k + c`` satisfies both G-edge latencies: the right neighbour needs
    one extra cycle, the down-left neighbour two.
    """
    rows = gg.rows
    row_rank = {r: idx for idx, r in enumerate(rows)}
    col_rank = {c: idx for idx, c in enumerate(gg.cols)}
    topo = fixed_grid_topology(len(rows), len(gg.cols))
    fires: dict[NodeId, tuple[Hashable, int]] = {}
    for gid, gn in gg.gnodes.items():
        k, c = row_rank[gid[0]], col_rank[gid[1]]
        base = 3 * k + c + instance_offset
        for j, nid in enumerate(gn.members):
            fires[nid] = ((k, c), base + j)
    ep = ExecutionPlan(
        topology=topo,
        fires=fires,
        description=f"fixed array {len(rows)}x{len(gg.cols)}",
    )
    ep.validate_exclusive()
    return ep


def fixed_linear_plan(gg: GGraph, instance_offset: int = 0) -> ExecutionPlan:
    """Linear collapse of the Fig. 17 G-graph: one cell per level.

    Cell ``k`` executes all G-nodes of horizontal path ``k``, column by
    column; cell ``k+1`` starts ``t_row + 2`` cycles later, where
    ``t_row`` is the per-column time — late enough that every inter-level
    operand (produced by the *next* column of the previous level) is
    ready.  Throughput ``1/(n(n+1))`` with every cell fully busy.
    """
    rows = gg.rows
    row_rank = {r: idx for idx, r in enumerate(rows)}
    col_rank = {c: idx for idx, c in enumerate(gg.cols)}
    times = {gn.comp_time for gn in gg.gnodes.values()}
    if len(times) != 1:
        raise PlanError("fixed_linear_plan requires uniform G-node times")
    t_node = times.pop()
    topo = linear_topology(len(rows))
    fires: dict[NodeId, tuple[Hashable, int]] = {}
    for gid, gn in gg.gnodes.items():
        k, c = row_rank[gid[0]], col_rank[gid[1]]
        # Cell k starts its column c at: k rows of skew + c columns.
        base = k * (t_node + 2) + c * t_node + instance_offset
        for j, nid in enumerate(gn.members):
            fires[nid] = (k, base + j)
    ep = ExecutionPlan(
        topology=topo,
        fires=fires,
        description=f"fixed linear {len(rows)} cells",
    )
    ep.validate_exclusive()
    return ep


def check_initiation_interval(plan: ExecutionPlan, delta: int) -> bool:
    """Can a new problem instance be issued every ``delta`` cycles?

    Instance ``i`` re-fires every node at ``t + i*delta``; this never
    collides iff, per cell, all fire cycles are distinct modulo ``delta``.
    """
    if delta < 1:
        return False
    per_cell: dict[Hashable, set[int]] = {}
    for cell, t in plan.fires.values():
        residues = per_cell.setdefault(cell, set())
        r = t % delta
        if r in residues:
            return False
        residues.add(r)
    return True


def min_initiation_interval(plan: ExecutionPlan, upper: int | None = None) -> int:
    """Smallest legal initiation interval (inverse throughput).

    Lower-bounded by the busiest cell's firing count; searches upward
    until :func:`check_initiation_interval` passes.
    """
    counts: dict[Hashable, int] = {}
    for cell, _ in plan.fires.values():
        counts[cell] = counts.get(cell, 0) + 1
    low = max(counts.values(), default=1)
    hi = upper if upper is not None else plan.makespan + 1
    for delta in range(low, hi + 1):
        if check_initiation_interval(plan, delta):
            return delta
    raise PlanError(f"no feasible initiation interval <= {hi}")
