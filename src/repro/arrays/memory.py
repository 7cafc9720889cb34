"""External-memory subsystem accounting (Figs. 2, 18, 19).

Cut-and-pile parks every value that crosses a G-set boundary in an
external memory and reads it back when the consuming set runs.  The
paper counts the *connections* (``m+1`` for the linear array, ``2 sqrt(m)``
for the mesh) but not the traffic or capacity; this module derives both
from a finished cycle simulation:

* which port each parked word uses (the tap nearest the producing cell —
  ports sit at the cell boundaries);
* per-port read/write word counts (bandwidth per connection);
* the occupancy timeline of the whole memory pool: a word lives from its
  producer's fire until its last consumer's fire, so the high-water mark
  is the capacity the external memories must provide.

This turns the paper's "saved in external memories is straight-forward"
into checkable numbers — and exposes the linear/mesh difference in
traffic concentration (fewer mesh ports carry more words each).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from ..core.graph import DependenceGraph, NodeKind
from .plan import ExecutionPlan

__all__ = ["MemoryReport", "analyze_memory"]


@dataclass(frozen=True)
class MemoryReport:
    """Traffic and capacity census of the external-memory pool."""

    words_written: int
    words_read: int
    peak_occupancy: int
    port_writes: dict[Hashable, int]
    port_reads: dict[Hashable, int]

    @property
    def ports_used(self) -> int:
        """Ports that actually carried traffic."""
        return len(set(self.port_writes) | set(self.port_reads))


def _port_of(plan: ExecutionPlan, cell: Hashable) -> Hashable:
    """The memory tap a cell uses.

    Linear arrays tap at cell boundaries: cell ``p`` writes through tap
    ``p`` (its left boundary) — ``m+1`` taps in total with the rightmost
    boundary reserved for reads off the end.  Meshes tap at the row ends:
    cell ``(r, c)`` uses the row-``r`` tap on the nearer side, matching
    the ``2 sqrt(m)`` connections of Fig. 19.
    """
    if plan.topology.geometry == "linear":
        return cell
    r, c = cell
    cols = max(cc for _, cc in plan.topology.cells) + 1
    side = "L" if c < cols / 2 else "R"
    return (side, r)


def analyze_memory(plan: ExecutionPlan, dg: DependenceGraph) -> MemoryReport:
    """Census the external-memory behaviour of an execution plan.

    A reference is memory-routed exactly when the cycle simulator would
    route it through memory: producer and consumer in different execution
    regions (G-sets), or unlinked cells.
    """
    fires = plan.fires
    region_of = plan.region_of
    writes: set[tuple] = set()
    write_port: dict[tuple, Hashable] = {}
    write_time: dict[tuple, int] = {}
    last_read: dict[tuple, int] = {}
    port_writes: dict[Hashable, int] = {}
    port_reads: dict[Hashable, int] = {}
    reads = 0

    for nid in dg.g.nodes:
        if nid not in fires:
            continue
        cell, t = fires[nid]
        for ref in dg.operands(nid).values():
            src = ref[0]
            if dg.kind(src) in (NodeKind.INPUT, NodeKind.CONST):
                continue
            pcell, pt = fires[src]
            same_region = (
                not region_of or region_of.get(src) == region_of.get(nid)
            )
            local = cell == pcell or plan.topology.is_neighbor(pcell, cell)
            if same_region and local:
                continue
            # Memory round trip.
            if ref not in writes:
                writes.add(ref)
                port = _port_of(plan, pcell)
                write_port[ref] = port
                write_time[ref] = pt + 1
                port_writes[port] = port_writes.get(port, 0) + 1
            reads += 1
            rport = _port_of(plan, cell)
            port_reads[rport] = port_reads.get(rport, 0) + 1
            last_read[ref] = max(last_read.get(ref, 0), t)

    # Occupancy timeline: +1 at write, -1 after the last read.
    events: list[tuple[int, int]] = []
    for ref in writes:
        events.append((write_time[ref], +1))
        events.append((last_read[ref] + 1, -1))
    events.sort()
    live = peak = 0
    for _, delta in events:
        live += delta
        peak = max(peak, live)

    return MemoryReport(
        words_written=len(writes),
        words_read=reads,
        peak_occupancy=peak,
        port_writes=port_writes,
        port_reads=port_reads,
    )
