"""Tests for the fault-tolerance comparison (Sec. 5)."""

from __future__ import annotations

import pytest

from repro.arrays.faults import degraded_linear, degraded_mesh, degraded_throughput


def test_linear_degrades_gracefully(tc_gg8) -> None:
    rep = degraded_linear(tc_gg8, m=4, failures=1)
    assert rep.cells_used == 3
    assert rep.cells_lost == 1  # a bypass retires only the failed cell
    assert 0.5 < float(rep.retention) < 1.0


def test_mesh_loses_a_whole_row(tc_gg8) -> None:
    rep = degraded_mesh(tc_gg8, m=4, failures=1)
    assert rep.cells_used == 2
    assert rep.cells_lost == 2  # one fault retires sqrt(m) cells


def test_linear_beats_mesh_under_faults(tc_gg8) -> None:
    """The Sec. 5 conclusion, measured."""
    reports = degraded_throughput(tc_gg8, m=4, failures=1)
    assert reports["linear"].retention > reports["mesh"].retention


def test_zero_failures_identity(tc_gg8) -> None:
    rep = degraded_linear(tc_gg8, m=4, failures=0)
    assert rep.retention == 1
    repm = degraded_mesh(tc_gg8, m=4, failures=0)
    assert repm.retention == 1


def test_validation(tc_gg8) -> None:
    with pytest.raises(ValueError, match="failures"):
        degraded_linear(tc_gg8, m=3, failures=3)
    with pytest.raises(ValueError, match="square"):
        degraded_mesh(tc_gg8, m=5)
    with pytest.raises(ValueError, match="failures"):
        degraded_mesh(tc_gg8, m=4, failures=2)


def test_retention_and_slowdown_semantics(tc_gg8) -> None:
    """Retention is T_healthy/T_degraded (a throughput fraction <= 1)."""
    from fractions import Fraction

    rep = degraded_linear(tc_gg8, m=4, failures=1)
    assert rep.retention == Fraction(rep.healthy_time, rep.degraded_time)
    assert rep.retention <= 1
