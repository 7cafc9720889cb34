"""Cycle-level simulation of an execution plan.

This is the substrate substituting for the paper's (paper-and-pencil) VLSI
arrays: it executes every primitive node of a dependence graph at the cell
and cycle its :class:`~repro.arrays.plan.ExecutionPlan` assigns, while
enforcing the physical constraints a systolic implementation imposes:

* one node per cell per cycle (checked at plan construction);
* an operand produced at cycle ``t`` in a cell is usable from ``t+1`` in
  the same cell or a linked neighbour;
* any other transfer must round-trip through external memory (available
  from ``t+2``) and is charged to the cut-and-pile memory traffic;
* primary inputs arrive from the host; the simulator records each word's
  *deadline* (one cycle before first use) and derives the host-bandwidth
  demand curve of Fig. 21.

The simulation also *computes* — the semiring values flow through the
schedule — so the result matrix is checked against the software oracle,
proving that the partitioned arrays really execute Warshall's algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import TYPE_CHECKING, Any, Hashable, Mapping

import numpy as np

from ..algorithms.transitive_closure import read_output_matrix
from ..core.evaluate import OPCODE_SEMANTICS
from ..core.graph import DependenceGraph, GraphError, NodeId, NodeKind
from ..core.semiring import BOOLEAN, Semiring
from ..obs.profile import kernel_profiler
from ..obs.tracing import stage_span
from .plan import ExecutionPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.probe import Probe
    from ..resilience.faults import Injector

__all__ = [
    "SimResult",
    "SimulationError",
    "Violation",
    "simulate",
    "cell_fire_counts",
    "cell_utilization",
]


@dataclass(frozen=True)
class Violation:
    """One timing/locality violation found during simulation."""

    node: NodeId
    role: str
    producer: NodeId
    kind: str  # "timing" | "memory-timing"
    slack: int

    def __str__(self) -> str:  # noqa: D105
        return (
            f"{self.kind} violation at {self.node!r}.{self.role}: "
            f"producer {self.producer!r} late by {-self.slack} cycle(s)"
        )


class SimulationError(GraphError):
    """A strict-mode simulation stop, carrying the structured violation.

    ``strict=True`` used to raise a bare :class:`GraphError` whose
    message was the only record of what went wrong; callers (and the
    tracer) now get the :class:`Violation` object on ``.violation``.
    """

    def __init__(self, violation: Violation) -> None:
        super().__init__(str(violation))
        self.violation = violation


@dataclass
class SimResult:
    """Everything measured during one simulated execution."""

    #: output node -> value; a compiled replay of an ``("out", i, j)``
    #: grid carries an array-backed
    #: :class:`~repro.algorithms.transitive_closure.OutputGrid` here
    outputs: Mapping[NodeId, Any]
    makespan: int
    cells: int
    busy: int
    useful: int
    memory_words: int
    memory_reads: int
    input_deadlines: dict[NodeId, int]
    input_cells: set[Hashable]
    #: input node -> cell of its earliest use (where the host must deliver)
    input_cell_of: dict[NodeId, Hashable] = field(default_factory=dict)
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the plan met every timing/locality constraint."""
        return not self.violations

    @property
    def utilization(self) -> Fraction:
        """Useful (compute) cell-cycles over total capacity.

        ``Fraction(0)`` for degenerate runs (no cells or empty makespan),
        matching :meth:`average_host_bandwidth`.
        """
        capacity = self.cells * self.makespan
        if capacity <= 0:
            return Fraction(0)
        return Fraction(self.useful, capacity)

    @property
    def occupancy(self) -> Fraction:
        """Busy cell-cycles (incl. transmit/delay slots) over capacity.

        ``Fraction(0)`` for degenerate runs, like :attr:`utilization`.
        """
        capacity = self.cells * self.makespan
        if capacity <= 0:
            return Fraction(0)
        return Fraction(self.busy, capacity)

    def io_demand_curve(self) -> list[tuple[int, int]]:
        """Cumulative host words needed by each deadline cycle.

        Returns sorted ``(cycle, cumulative words)`` pairs; the host must
        have delivered that many words by that cycle.
        """
        if not self.input_deadlines:
            return []
        counts: dict[int, int] = {}
        for t in self.input_deadlines.values():
            counts[t] = counts.get(t, 0) + 1
        curve = []
        total = 0
        for t in sorted(counts):
            total += counts[t]
            curve.append((t, total))
        return curve

    def required_host_bandwidth(self, preload: int = 0) -> Fraction:
        """Minimal constant host rate (words/cycle) meeting all deadlines.

        ``max_t (cumulative(t) - preload) / t`` over the demand curve —
        what the R-block chain of Fig. 21 must sustain, given that the
        first ``preload`` words are loaded into the R memories before the
        run starts (the paper loads the first vertical path's inputs while
        the previous problem instance drains).
        """
        best = Fraction(0)
        for t, cum in self.io_demand_curve():
            if t > 0 and cum > preload:
                best = max(best, Fraction(cum - preload, t))
        return best

    def average_host_bandwidth(self) -> Fraction:
        """Total host words over the whole run (the aggregate D_IO)."""
        if self.makespan <= 0:
            return Fraction(0)
        return Fraction(len(self.input_deadlines), self.makespan)

    def output_matrix(self, n: int, semiring: Semiring = BOOLEAN) -> np.ndarray:
        """Assemble ``("out", i, j)`` outputs into a fresh matrix.

        A compiled replay's array-backed outputs are copied as a whole;
        see :func:`~repro.algorithms.transitive_closure.read_output_matrix`.
        """
        return read_output_matrix(self.outputs, n, semiring)


def cell_fire_counts(probe: "Probe") -> dict[Hashable, int]:
    """Fires per cell from a recording probe's event stream.

    ``probe`` duck-types :class:`~repro.obs.probe.RecordingProbe` (needs
    ``.fires``).  The dashboard's per-cell heatmap is this dict on a
    grid; the totals tie back to :attr:`SimResult.busy`.
    """
    counts: dict[Hashable, int] = {}
    for f in probe.fires:
        counts[f.cell] = counts.get(f.cell, 0) + 1
    return counts


def cell_utilization(
    probe: "Probe", makespan: int
) -> dict[Hashable, Fraction]:
    """Per-cell busy fraction: fires in the cell over the run's makespan.

    ``Fraction(0)`` per cell on a degenerate (zero-makespan) run, the
    same convention as :attr:`SimResult.utilization`.
    """
    if makespan <= 0:
        return {cell: Fraction(0) for cell in cell_fire_counts(probe)}
    return {
        cell: Fraction(fires, makespan)
        for cell, fires in cell_fire_counts(probe).items()
    }


def simulate(
    plan: ExecutionPlan,
    dg: DependenceGraph,
    inputs: Mapping[NodeId, Any],
    semiring: Semiring = BOOLEAN,
    strict: bool = False,
    probe: "Probe | None" = None,
    inject: "Injector | None" = None,
) -> SimResult:
    """Execute ``dg`` under ``plan`` and measure everything.

    Parameters
    ----------
    strict:
        Raise :class:`SimulationError` on the first violation instead of
        collecting them.
    probe:
        Optional :class:`repro.obs.probe.Probe` receiving per-cycle
        events (fires, operand reads classified by source, input
        deadlines, violations).  ``None`` (the default) costs one
        ``is not None`` check per event site — nothing else.
    inject:
        Optional :class:`repro.resilience.faults.Injector` that may
        corrupt the value a firing produces on its ``out`` port or
        drop/substitute a host input word.  Same zero-overhead contract
        as ``probe``: ``None`` costs one ``is not None`` check per fire
        and per input load.

    Notes
    -----
    Every slot-occupying node of ``dg`` must be covered by the plan.
    Output nodes are not fired (reading a result is free); constants are
    resident in every cell (they are wired control, not data).
    """
    fires = plan.fires
    topo_order = dg.topological_order()
    node_data = dg.g.nodes  # one attribute-dict fetch per node, not many
    values: dict[NodeId, dict[str, Any]] = {}
    violations: list[Violation] = []
    memory_refs: set[tuple] = set()
    memory_reads = 0
    input_deadlines: dict[NodeId, int] = {}
    input_cells: set[Hashable] = set()
    input_cell_of: dict[NodeId, Hashable] = {}
    busy = 0
    useful = 0

    region_of = plan.region_of
    # Kernel profiling follows the probe/inject zero-overhead contract:
    # one ``is not None`` check per OP firing when disabled.
    kprof = kernel_profiler()

    def check_operand(nid: NodeId, role: str, ref: tuple, cell, t: int) -> None:
        nonlocal memory_reads
        src, _ = ref
        src_kind = node_data[src]["kind"]
        if src_kind is NodeKind.CONST:
            if probe is not None:
                probe.on_operand(t, cell, nid, role, "const", src)
            return
        if src_kind is NodeKind.INPUT:
            deadline = t - 1
            prev = input_deadlines.get(src)
            if prev is None or deadline < prev:
                input_deadlines[src] = deadline
                input_cell_of[src] = cell
                if probe is not None:
                    probe.on_input(src, deadline, cell)
            input_cells.add(cell)
            if probe is not None:
                probe.on_operand(t, cell, nid, role, "input", src)
            return
        pcell, pt = fires[src]
        same_region = (
            not region_of or region_of.get(src) == region_of.get(nid)
        )
        local = cell == pcell or plan.topology.is_neighbor(pcell, cell)
        if same_region and local:
            slack = t - (pt + 1)
            kind = "timing"
            source = "local" if cell == pcell else "neighbor"
        else:
            # Cut-and-pile: the value is parked in external memory between
            # G-sets (or the cells are not linked) -- one write, one read.
            memory_refs.add(ref)
            memory_reads += 1
            slack = t - (pt + 2)
            kind = "memory-timing"
            source = "memory"
        if probe is not None:
            probe.on_operand(t, cell, nid, role, source, src)
        if slack < 0:
            v = Violation(node=nid, role=role, producer=src, kind=kind, slack=slack)
            if probe is not None:
                probe.on_violation(v)
            if strict:
                raise SimulationError(v)
            violations.append(v)

    with stage_span(
        "sim.simulate", graph=dg.name, nodes=len(topo_order),
        cells=plan.topology.m, probed=probe is not None,
    ) as sp:
        for nid in topo_order:
            d = node_data[nid]
            kind = d["kind"]
            if kind is NodeKind.INPUT:
                if nid not in inputs:
                    raise GraphError(f"no value supplied for input {nid!r}")
                value = inputs[nid]
                if inject is not None:
                    value = inject.on_host_word(nid, value)
                values[nid] = {"out": value}
                continue
            if kind is NodeKind.CONST:
                values[nid] = {"out": d["value"]}
                continue
            operands = d["operands"]
            if kind is NodeKind.OUTPUT:
                (ref,) = operands.values()
                values[nid] = {"out": values[ref[0]][ref[1]]}
                continue
            # Slot-occupying node: must be planned.
            if nid not in fires:
                raise GraphError(f"plan does not cover slot node {nid!r}")
            cell, t = fires[nid]
            busy += 1
            if d.get("tag") == "compute":
                useful += 1
            if probe is not None:
                probe.on_fire(t, cell, nid, kind.name, d.get("tag"))
            for role, ref in operands.items():
                check_operand(nid, role, ref, cell, t)
            if kind is NodeKind.OP:
                fn = OPCODE_SEMANTICS[d["opcode"]]
                roles = {r: values[ref[0]][ref[1]] for r, ref in operands.items()}
                table = dict(roles)
                if kprof is None:
                    table["out"] = fn(semiring, **roles)
                else:
                    t0 = perf_counter()
                    table["out"] = fn(semiring, **roles)
                    kprof.record(
                        d["opcode"], 1, perf_counter() - t0,
                        backend="reference",
                    )
                values[nid] = table
            else:  # PASS / DELAY
                (ref,) = operands.values()
                values[nid] = {"out": values[ref[0]][ref[1]]}
            if inject is not None:
                values[nid]["out"] = inject.on_fire_value(
                    t, cell, nid, values[nid]["out"]
                )

        outputs = {nid: values[nid]["out"] for nid in dg.outputs}
        sp.tag("makespan", plan.makespan)
        sp.tag("violations", len(violations))
        sp.tag("memory_words", len(memory_refs))
    return SimResult(
        outputs=outputs,
        makespan=plan.makespan,
        cells=plan.topology.m,
        busy=busy,
        useful=useful,
        memory_words=len(memory_refs),
        memory_reads=memory_reads,
        input_deadlines=input_deadlines,
        input_cells=input_cells,
        input_cell_of=input_cell_of,
        violations=violations,
    )
