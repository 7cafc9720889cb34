"""Fault tolerance of partitioned arrays (Sec. 5 claim).

The paper concludes that linear arrays "are better suited to incorporate
fault-tolerant capabilities" than two-dimensional ones.  The standard
argument, which this module quantifies by re-partitioning and
re-simulating:

* a **linear** array survives a failed cell with a bypass link — the
  remaining ``m - f`` cells still form a chain, so the same cut-and-pile
  machinery simply re-partitions for ``m - f`` cells; throughput degrades
  gracefully by about ``(m - f)/m``;
* a **mesh** has no such cheap reconfiguration: the usual scheme retires
  the failed cell's entire row (or column), leaving a
  ``(s - 1) x s`` array — ``s`` cells lost to one fault — and the block
  partitioning must be rebuilt for the new shape.

:func:`degraded_throughput` returns the measured throughput before and
after ``f`` cell failures for both geometries, using the real pipeline
(G-sets, schedule, execution plan), not a formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..core.ggraph import GGraph
from ..core.gsets import make_linear_gsets, make_mesh_gsets, schedule_gsets
from ..core.metrics import evaluate_schedule

__all__ = ["FaultReport", "degraded_linear", "degraded_mesh", "degraded_throughput"]


@dataclass(frozen=True)
class FaultReport:
    """Throughput retention of one geometry under cell failures."""

    geometry: str
    m: int
    failures: int
    cells_used: int
    healthy_time: int
    degraded_time: int

    @property
    def retention(self) -> Fraction:
        """Fraction of healthy throughput the degraded array retains.

        Throughput is problems per cycle, i.e. ``1 / total_time``, so
        retention is ``T_healthy / T_degraded`` — at most 1, and exactly
        1 for zero failures.  The resilience runtime cross-validates
        this static prediction against the *measured* degraded clock of
        a fault-driven run (``RecoveryResult.degraded_throughput``);
        the two agree because both execute the same re-partitioned
        schedule.
        """
        return Fraction(self.healthy_time, self.degraded_time)

    @property
    def cells_lost(self) -> int:
        """Cells retired per failure scenario (bypass vs row retirement)."""
        return self.m - self.cells_used


def degraded_linear(gg: GGraph, m: int, failures: int = 1) -> FaultReport:
    """Linear array with ``failures`` bypassed cells: chain of ``m-f``."""
    if not (0 <= failures < m):
        raise ValueError(f"failures must be in [0, {m}), got {failures}")
    healthy = _linear_time(gg, m)
    degraded = _linear_time(gg, m - failures) if failures else healthy
    return FaultReport(
        geometry="linear",
        m=m,
        failures=failures,
        cells_used=m - failures,
        healthy_time=healthy,
        degraded_time=degraded,
    )


def degraded_mesh(gg: GGraph, m: int, failures: int = 1) -> FaultReport:
    """Mesh with ``failures`` faults, each retiring one full row of cells."""
    import math

    side = math.isqrt(m)
    if side * side != m:
        raise ValueError(f"mesh needs square m, got {m}")
    if not (0 <= failures < side):
        raise ValueError(f"failures must be in [0, {side}), got {failures}")
    healthy = _mesh_time(gg, (side, side))
    shape = (side - failures, side)
    degraded = _mesh_time(gg, shape) if failures else healthy
    return FaultReport(
        geometry="mesh",
        m=m,
        failures=failures,
        cells_used=shape[0] * shape[1],
        healthy_time=healthy,
        degraded_time=degraded,
    )


def _linear_time(gg: GGraph, m: int) -> int:
    plan = make_linear_gsets(gg, m)
    order = schedule_gsets(plan, "vertical")
    return evaluate_schedule(plan, order).total_time


def _mesh_time(gg: GGraph, shape: tuple[int, int]) -> int:
    plan = make_mesh_gsets(gg, shape[0] * shape[1], shape=shape)
    order = schedule_gsets(plan, "vertical")
    return evaluate_schedule(plan, order).total_time


def degraded_throughput(gg: GGraph, m: int, failures: int = 1) -> dict[str, FaultReport]:
    """Side-by-side fault report for both geometries (Sec. 5)."""
    return {
        "linear": degraded_linear(gg, m, failures),
        "mesh": degraded_mesh(gg, m, failures),
    }
