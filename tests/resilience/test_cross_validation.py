"""Static Sec. 5 fault analysis vs. the measured resilient runtime.

``repro.arrays.faults`` *predicts* degraded throughput by re-partitioning
and evaluating schedules; ``repro.resilience`` *measures* it by actually
executing faults.  The two must agree: a fault-free resilient run on the
healthy / degraded partitions reproduces the static analysis' clocks
exactly, and a real fault-driven run can only be slower (it pays
detection, retries and the re-partition on top).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.algorithms.transitive_closure import make_inputs, tc_regular
from repro.arrays.faults import degraded_linear, degraded_mesh
from repro.core.ggraph import GGraph, group_by_columns
from repro.core.gsets import make_linear_gsets, schedule_gsets
from repro.core.partitioner import partition_transitive_closure
from repro.core.semiring import BOOLEAN
from repro.resilience import (
    FaultKind,
    FaultSpec,
    run_resilient,
    run_resilient_closure,
)

N, M, F = 9, 3, 1


@pytest.fixture(scope="module")
def gg():
    return GGraph(tc_regular(N), group_by_columns)


@pytest.fixture(scope="module")
def matrix():
    rng = np.random.default_rng(3)
    return (rng.random((N, N)) < 0.4).astype(np.int64)


def _measured_clock(gg, m, matrix) -> int:
    """Fault-free resilient run on an ``m``-cell linear partition."""
    plan = make_linear_gsets(gg, m)
    order = schedule_gsets(plan, "vertical")
    result = run_resilient(
        gg.dg, gg, plan, order, make_inputs(matrix, BOOLEAN),
        record_metrics=False,
    )
    assert result.oracle_ok
    return result.total_cycles


def test_static_clocks_match_measured_fault_free_runs(gg, matrix) -> None:
    report = degraded_linear(gg, M, F)
    assert _measured_clock(gg, M, matrix) == report.healthy_time
    assert _measured_clock(gg, M - F, matrix) == report.degraded_time


def test_static_retention_equals_measured_throughput_ratio(gg, matrix) -> None:
    report = degraded_linear(gg, M, F)
    healthy = _measured_clock(gg, M, matrix)
    degraded = _measured_clock(gg, M - F, matrix)
    assert Fraction(healthy, degraded) == report.retention
    assert report.retention <= 1


def test_fault_driven_run_is_bounded_by_the_static_prediction(
    gg, matrix
) -> None:
    """A real permanent fault pays recovery overhead on top of the
    degraded schedule, so its measured throughput is at most the static
    retention and its clock at least the static degraded time."""
    report = degraded_linear(gg, M, F)
    impl = partition_transitive_closure(n=N, m=M)
    spec = FaultSpec(kind=FaultKind.PERMANENT, cell=1, onset=0)
    result = run_resilient_closure(
        impl, matrix, faults=[spec], record_metrics=False
    )
    assert result.oracle_ok and result.repartitions == 1
    assert result.healthy_cycles == report.healthy_time
    assert result.total_cycles >= report.degraded_time
    assert result.degraded_throughput <= report.retention


def test_mesh_static_report_is_consistent() -> None:
    gg8 = GGraph(tc_regular(8), group_by_columns)
    report = degraded_mesh(gg8, 4, 1)
    assert report.cells_lost == 2  # one fault retires a whole 1x2 row
    assert report.retention <= 1
