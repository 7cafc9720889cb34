"""The three-step partitioning procedure as one façade (Sec. 2).

:func:`partition` runs the full methodology on any grouped dependence
graph; :func:`partition_transitive_closure` is the turnkey entry point for
the paper's application — from a problem size and an array description to
a verified, cycle-simulated partitioned implementation.

    >>> from repro import partition_transitive_closure
    >>> impl = partition_transitive_closure(n=12, m=4, geometry="linear")
    >>> impl.report.row()["U"]                      # doctest: +SKIP
    0.673...
    >>> import numpy as np
    >>> from repro.algorithms.warshall import random_adjacency, warshall
    >>> a = random_adjacency(12, seed=0)
    >>> bool(np.array_equal(impl.run(a), warshall(a)))
    True
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..algorithms import transitive_closure as tc
from ..obs.tracing import stage_span
from .ggraph import GGraph, GNodeId, group_by_columns
from .graph import DependenceGraph, NodeId
from .gsets import (
    GSet,
    GSetPlan,
    make_linear_gsets,
    make_mesh_gsets,
    schedule_gsets,
    verify_schedule,
)
from .metrics import PerformanceReport, evaluate_schedule, tc_io_bandwidth
from .semiring import BOOLEAN, Semiring

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..arrays.cycle_sim import SimResult
    from ..arrays.plan import ExecutionPlan

__all__ = ["PartitionedImplementation", "partition", "partition_transitive_closure"]


@dataclass
class PartitionedImplementation:
    """Everything the methodology produces for one (algorithm, array) pair."""

    dg: DependenceGraph
    gg: GGraph
    plan: GSetPlan
    order: list[GSet]
    report: PerformanceReport
    semiring: Semiring = BOOLEAN

    _exec_plan = None

    @property
    def exec_plan(self) -> "ExecutionPlan":
        """The cycle-level execution plan (built lazily)."""
        if self._exec_plan is None:
            from ..arrays.plan import partitioned_plan

            self._exec_plan = partitioned_plan(self.plan, self.order)
        return self._exec_plan

    def run(
        self, a: np.ndarray, strict: bool = True, backend: str | None = None
    ) -> np.ndarray:
        """Cycle-simulate the implementation on an input matrix.

        Only available for graphs using the transitive-closure I/O naming
        (``("in", i, j)`` / ``("out", i, j)``); raises on violations when
        ``strict``.  ``backend`` selects the simulator engine
        (``"reference"`` / ``"vector"``; ``None`` uses the process-wide
        default — see :mod:`repro.arrays.vector_sim`).
        """
        from ..arrays.vector_sim import dispatch_simulate

        n = a.shape[0]
        res = dispatch_simulate(
            self.exec_plan, self.dg, tc.make_inputs(a, self.semiring), self.semiring,
            strict=strict, backend=backend,
        )
        return res.output_matrix(n, self.semiring)

    def simulate(
        self, a: np.ndarray, backend: str | None = None
    ) -> "SimResult":
        """Full cycle simulation; returns the raw :class:`SimResult`."""
        from ..arrays.vector_sim import dispatch_simulate

        return dispatch_simulate(
            self.exec_plan, self.dg, tc.make_inputs(a, self.semiring), self.semiring,
            backend=backend,
        )


def _run_preflight(
    impl: PartitionedImplementation, io_bound: Fraction | None = None
) -> None:
    """Static design check; raises :class:`repro.lint.LintError` on errors."""
    from ..lint import LintTarget
    from ..lint import preflight as lint_preflight

    with stage_span("partition.preflight") as sp:
        report = lint_preflight(
            LintTarget.from_implementation(impl, io_bound=io_bound)
        )
        sp.tag("findings", len(report))


def partition(
    dg: DependenceGraph,
    grouping: Callable[[DependenceGraph, NodeId], GNodeId | None],
    m: int,
    geometry: str = "linear",
    policy: str = "vertical",
    aligned: bool = True,
    mesh_shape: tuple[int, int] | None = None,
    semiring: Semiring = BOOLEAN,
    preflight: bool = False,
) -> PartitionedImplementation:
    """Run steps 2-3 of the procedure on an already-transformed graph.

    (Step 1 — removing broadcasts, bi-directional flow and irregularity —
    is the responsibility of the algorithm front-end or of
    :mod:`repro.core.transform`.)

    ``preflight=True`` runs the static design checker
    (:mod:`repro.lint`) over the finished implementation and raises
    :class:`repro.lint.LintError` before returning a design with
    error-severity findings.
    """
    with stage_span(
        "partition.group", graph=dg.name,
        nodes=len(dg), edges=dg.g.number_of_edges(),
    ) as sp:
        gg = GGraph(dg, grouping)
        sp.tag("gnodes", len(gg.gnodes))
        sp.tag("gedges", gg.g.number_of_edges())
    with stage_span(
        "partition.select_gsets", geometry=geometry, m=m, gnodes=len(gg.gnodes)
    ) as sp:
        if geometry == "linear":
            plan = make_linear_gsets(gg, m, aligned=aligned)
        elif geometry == "mesh":
            plan = make_mesh_gsets(gg, m, shape=mesh_shape)
        else:
            raise ValueError(f"unknown geometry {geometry!r}")
        sp.tag("gsets", len(plan.gsets))
        sp.tag("boundary_gsets", plan.boundary_sets())
    with stage_span("partition.schedule", policy=policy, gsets=len(plan.gsets)):
        order = schedule_gsets(plan, policy)
    with stage_span("partition.verify", gsets=len(order)):
        verify_schedule(plan, order)
    with stage_span("partition.evaluate", gsets=len(order)) as sp:
        report = evaluate_schedule(plan, order)
        sp.tag("total_time", report.total_time)
        sp.tag("utilization", report.utilization)
    impl = PartitionedImplementation(
        dg=dg, gg=gg, plan=plan, order=order, report=report, semiring=semiring
    )
    if preflight:
        _run_preflight(impl)
    return impl


def partition_transitive_closure(
    n: int,
    m: int,
    geometry: str = "linear",
    policy: str = "vertical",
    aligned: bool = True,
    semiring: Semiring = BOOLEAN,
    preflight: bool = False,
) -> PartitionedImplementation:
    """Turnkey partitioned transitive closure (the paper's Sec. 3).

    Builds the regularized graph (Fig. 16), groups its diagonal paths into
    the Fig. 17 G-graph, selects and schedules G-sets for the requested
    array, and returns the implementation with its Sec. 4 report.

    ``preflight=True`` statically checks the design (including the
    Fig. 21 ``m/n`` host-bandwidth bound) and raises
    :class:`repro.lint.LintError` on error-severity findings.
    """
    with stage_span("frontend.tc_regular", n=n) as sp:
        dg = tc.tc_regular(n)
        sp.tag("nodes", len(dg))
        sp.tag("edges", dg.g.number_of_edges())
    impl = partition(
        dg,
        group_by_columns,
        m,
        geometry=geometry,
        policy=policy,
        aligned=aligned,
        semiring=semiring,
    )
    if preflight:
        _run_preflight(impl, io_bound=tc_io_bandwidth(n, m))
    return impl
