"""Chaining successive problem instances (Fig. 17's throughput claim).

"Successive instances of the algorithm can be chained without
restrictions" — the fixed-size array accepts a new adjacency matrix every
``n`` cycles while earlier instances are still in flight.  The modular
argument in :func:`repro.arrays.plan.check_initiation_interval` proves no
cell is double-booked; this module goes further and *co-simulates* ``k``
overlapped instances as one big execution: the graphs are replicated,
every firing is offset by ``i * delta``, and the combined plan runs
through the cycle simulator — timing, locality and all ``k`` result
matrices checked at once.

Also provides the throughput measurement used by the benchmarks: the
makespan of ``k`` chained instances grows by exactly ``delta`` per
instance, so measured throughput is ``1/delta``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from ..algorithms.transitive_closure import read_output_matrix
from ..core.graph import DependenceGraph, NodeId, NodeKind, PortRef
from ..core.semiring import BOOLEAN, Semiring
from ..obs.tracing import stage_span
from .cycle_sim import SimResult, simulate
from .plan import ExecutionPlan, PlanError

__all__ = ["replicate_graph", "chain_plans", "ChainedRun", "run_chained_instances"]


def replicate_graph(dg: DependenceGraph, k: int) -> DependenceGraph:
    """``k`` disjoint copies of ``dg``; copy ``i``'s node ids are
    ``("inst", i, original_id)``."""
    if k < 1:
        raise ValueError(f"need at least one instance, got k={k}")
    out = DependenceGraph(f"{dg.name} x{k}")
    topo = dg.topological_order()
    for i in range(k):
        def rid(nid: NodeId) -> tuple:
            return ("inst", i, nid)

        for nid in topo:
            d = dg.g.nodes[nid]
            kind = d["kind"]
            operands = {
                role: PortRef(rid(src), port)
                for role, (src, port) in d["operands"].items()
            }
            if kind is NodeKind.INPUT:
                out.add_input(rid(nid), pos=d.get("pos"), tag=d.get("tag"))
            elif kind is NodeKind.CONST:
                out.add_const(rid(nid), d["value"], pos=d.get("pos"))
            elif kind is NodeKind.OP:
                out.add_op(
                    rid(nid), d["opcode"], operands, pos=d.get("pos"),
                    comp_time=d.get("comp_time", 1), tag=d.get("tag"),
                )
            elif kind in (NodeKind.PASS, NodeKind.DELAY):
                (ref,) = operands.values()
                out.add_pass(
                    rid(nid), ref, pos=d.get("pos"), kind=kind, tag=d.get("tag")
                )
            else:  # OUTPUT
                (ref,) = operands.values()
                out.add_output(rid(nid), ref, pos=d.get("pos"), tag=d.get("tag"))
    return out


def chain_plans(plan: ExecutionPlan, k: int, delta: int) -> ExecutionPlan:
    """One combined plan firing instance ``i`` at offset ``i * delta``."""
    if delta < 1:
        raise PlanError(f"initiation interval must be positive, got {delta}")
    fires: dict[NodeId, tuple] = {}
    region_of: dict[NodeId, tuple] = {}
    for i in range(k):
        for nid, (cell, t) in plan.fires.items():
            fires[("inst", i, nid)] = (cell, t + i * delta)
        for nid, region in plan.region_of.items():
            region_of[("inst", i, nid)] = ("inst", i, region)
    combined = ExecutionPlan(
        topology=plan.topology,
        fires=fires,
        description=f"{plan.description} x{k} @ {delta}",
        region_of=region_of,
    )
    combined.validate_exclusive()  # the real double-booking proof
    return combined


@dataclass
class ChainedRun:
    """Outcome of co-simulating ``k`` chained instances."""

    k: int
    delta: int
    result: SimResult
    outputs: list[dict[NodeId, Any]]
    #: Makespan of one instance alone — the baseline the measured
    #: initiation interval is derived against.
    base_makespan: int = 0

    @property
    def ok(self) -> bool:
        """All instances met every constraint."""
        return self.result.ok

    def output_matrix(self, instance: int, n: int, semiring: Semiring = BOOLEAN) -> np.ndarray:
        """Result matrix of one instance."""
        return read_output_matrix(self.outputs[instance], n, semiring, prefix=())

    @property
    def measured_initiation_interval(self) -> float:
        """Measured makespan growth per added instance.

        ``(combined_makespan - base_makespan) / (k - 1)`` — derived
        from the co-simulation, not echoed from the requested ``delta``.
        A legal chain fires instance ``i`` exactly ``i * delta`` cycles
        after instance 0, so this equals ``delta``; a mis-chained plan
        (stretched offsets, a stalled instance) shows up as a larger
        value.  With ``k == 1`` there is no growth to measure and the
        requested ``delta`` is reported.
        """
        if self.k <= 1:
            return float(self.delta)
        return (self.result.makespan - self.base_makespan) / (self.k - 1)


def run_chained_instances(
    dg: DependenceGraph,
    plan: ExecutionPlan,
    input_envs: Sequence[Mapping[NodeId, Any]],
    delta: int,
    semiring: Semiring = BOOLEAN,
    probe: Any = None,
) -> ChainedRun:
    """Co-simulate ``len(input_envs)`` instances offset by ``delta`` cycles.

    Raises (via plan validation) if any cell would be double-booked;
    returns per-instance outputs plus the combined simulation result.
    ``probe`` (any :class:`repro.obs.probe.Probe`) watches the combined
    run — node ids in its events carry the ``("inst", i, ...)`` prefix.
    """
    k = len(input_envs)
    with stage_span(
        "chain.replicate_graph", graph=dg.name, k=k, nodes=len(dg),
        edges=dg.g.number_of_edges(),
    ) as sp:
        big_dg = replicate_graph(dg, k)
        sp.tag("nodes_out", len(big_dg))
        sp.tag("edges_out", big_dg.g.number_of_edges())
    with stage_span(
        "chain.chain_plans", k=k, delta=delta, fires=len(plan.fires)
    ) as sp:
        big_plan = chain_plans(plan, k, delta)
        sp.tag("fires_out", len(big_plan.fires))
        sp.tag("makespan", big_plan.makespan)
    big_inputs: dict[NodeId, Any] = {}
    for i, env in enumerate(input_envs):
        for nid, value in env.items():
            big_inputs[("inst", i, nid)] = value
    res = simulate(big_plan, big_dg, big_inputs, semiring, probe=probe)
    outputs: list[dict[NodeId, Any]] = [dict() for _ in range(k)]
    for nid, value in res.outputs.items():
        _, i, orig = nid
        outputs[i][orig[1:]] = value  # ("out", i, j) -> (i, j)
    return ChainedRun(
        k=k, delta=delta, result=res, outputs=outputs,
        base_makespan=plan.makespan,
    )
