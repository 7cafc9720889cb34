"""Mutation corpus: every documented RLxxx code fires on its seeded defect.

Each test takes a clean, shipped-quality design, applies one targeted
mutation (the defect class the code documents in
``docs/static-analysis.md``), and asserts the checker reports that code.
The companion tests prove the converse — every shipped configuration
lints with zero error-severity findings (the checker's standing
zero-false-positive contract).
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

from repro.algorithms.transitive_closure import (
    tc_pipelined,
    tc_pruned,
    tc_regular,
    tc_unidirectional,
)
from repro.core.ggraph import GGraph, group_by_columns
from repro.core.partitioner import partition_transitive_closure
from repro.lint import (
    SHIPPED_CONFIGS,
    LintTarget,
    Severity,
    lint_config,
    lint_graph,
    lint_shipped_configs,
    run_lint,
)
from repro.lint.passes_array import _memory_events


@pytest.fixture()
def impl():
    """A fresh clean implementation per test (mutations edit in place)."""
    return partition_transitive_closure(n=9, m=3)


# ----------------------------------------------------------------------
# RL1xx — graph mutations
# ----------------------------------------------------------------------
def test_rl101_residual_broadcast() -> None:
    # tc_pruned predates the Fig. 12 pipelining step: broadcasts remain.
    report = lint_graph(tc_pruned(6))
    assert "RL101" in report.codes()
    assert not report.ok


def test_rl102_bidirectional_flow() -> None:
    # tc_pipelined predates the Fig. 13 flips: rows flow both ways.
    report = lint_graph(tc_pipelined(6))
    assert "RL102" in report.codes()


def test_rl103_unregularized_grouping_has_long_gedges() -> None:
    dg = tc_unidirectional(7)
    report = run_lint(
        LintTarget(
            description="grouping before Fig. 15c regularization",
            dg=dg,
            gg=GGraph(dg, group_by_columns),
        )
    )
    assert "RL103" in report.codes()


def test_rl103_clean_after_regularization() -> None:
    dg = tc_regular(7)
    report = run_lint(
        LintTarget(
            description="Fig. 17 grouping",
            dg=dg,
            gg=GGraph(dg, group_by_columns),
        )
    )
    assert "RL103" not in report.codes()


def test_rl104_deleted_delay_node() -> None:
    dg = tc_regular(6)
    dg.g.remove_node(("dly", 0, 0))  # consumers now dangle
    report = lint_graph(dg)
    assert "RL104" in report.codes()
    assert any(d.severity is Severity.ERROR for d in report.by_code("RL104"))


def test_rl105_dependence_cycle() -> None:
    dg = tc_regular(5)
    dg.g.add_edge(("cell", 4, 2, 2), ("cell", 0, 1, 1))  # back edge
    report = lint_graph(dg)
    assert "RL105" in report.codes()
    assert not report.ok


# ----------------------------------------------------------------------
# RL2xx — schedule mutations
# ----------------------------------------------------------------------
def test_rl201_pile_order_causality(impl) -> None:
    t = LintTarget.from_implementation(impl, build_exec_plan=False)
    t = dataclasses.replace(t, order=list(reversed(t.order)))
    report = run_lint(t)
    assert "RL201" in report.codes()
    assert not report.ok


def test_rl202_unbalanced_gset_times(impl) -> None:
    s = next(s for s in impl.plan.gsets if len(s.gids) >= 2)
    impl.gg.gnodes[s.gids[0]].comp_time += 1
    report = run_lint(LintTarget.from_implementation(impl, build_exec_plan=False))
    assert "RL202" in report.codes()
    assert all(d.severity is Severity.WARNING for d in report.by_code("RL202"))
    assert report.ok  # time mixing costs utilization, it is not illegal


def test_rl203_duplicate_cell_in_gset(impl) -> None:
    plan = impl.plan
    s0 = next(s for s in plan.gsets if len(s.cells) >= 2)
    mutated = dataclasses.replace(s0, cells=(s0.cells[1],) + s0.cells[1:])
    gsets = tuple(mutated if s is s0 else s for s in plan.gsets)
    plan2 = dataclasses.replace(plan, gsets=gsets)
    report = run_lint(LintTarget(description="dup cell", plan=plan2))
    assert "RL203" in report.codes()
    assert not report.ok


def test_rl204_truncated_pile_order(impl) -> None:
    t = LintTarget.from_implementation(impl, build_exec_plan=False)
    t = dataclasses.replace(t, order=list(t.order)[:-1])
    report = run_lint(t)
    assert "RL204" in report.codes()
    assert "missing" in report.by_code("RL204")[0].message


def test_rl204_unplanned_set_replaces_the_last(impl) -> None:
    t = LintTarget.from_implementation(impl, build_exec_plan=False)
    order = list(t.order)
    stray = dataclasses.replace(order[-1], sid=("x", 99))
    report = run_lint(dataclasses.replace(t, order=order[:-1] + [stray]))
    messages = [d.message for d in report.by_code("RL204")]
    assert messages == [
        "pile order contains G-set ('x', 99) that is not in the plan",
        f"1 planned G-set(s) missing from the pile order "
        f"(first: [{order[-1].sid}])",
    ]
    assert "RL001" not in report.codes()  # no checker crash
    assert not report.ok


# ----------------------------------------------------------------------
# RL3xx — array mutations
# ----------------------------------------------------------------------
def test_rl301_fire_on_missing_cell(impl) -> None:
    t = LintTarget.from_implementation(impl)
    nid = next(iter(t.exec_plan.fires))
    _, cyc = t.exec_plan.fires[nid]
    t.exec_plan.fires[nid] = (99, cyc)  # the linear array has cells 0..2
    report = run_lint(t)
    assert "RL301" in report.codes()
    assert not report.ok


def test_rl302_memory_tap_write_collision() -> None:
    # Needs a topology with shared taps: the 3x3 mesh routes columns
    # 0 and 1 of each row through one ("L", row) connection.
    mesh = partition_transitive_closure(n=9, m=9, geometry="mesh")
    t = LintTarget.from_implementation(mesh)
    before = run_lint(t)
    writes, _ = _memory_events(t)
    by_port: dict = {}
    for ref, port, cyc, pcell in writes:
        by_port.setdefault(port, []).append((cyc, pcell, ref))
    # Earliest sole-writer slot on a shared port, plus a write from a
    # different cell on the same port that we can retime into it.
    candidates = []
    for port, evs in by_port.items():
        if len({pc for _, pc, _ in evs}) < 2:
            continue
        writers_at = {}
        for cyc, pc, _ in evs:
            writers_at.setdefault(cyc, set()).add(pc)
        for cyc, pc, _ in evs:
            if writers_at[cyc] == {pc}:
                other = next((e for e in evs if e[1] != pc), None)
                if other is not None:
                    candidates.append((cyc, port, other))
    assert candidates, "mesh design offers no shared-tap slot to collide"
    cyc, port, (_, _, oref) = min(candidates)
    src = oref[0]
    ocell, _ = t.exec_plan.fires[src]
    t.exec_plan.fires[src] = (ocell, cyc - 1)  # its write now lands at cyc
    after = run_lint(t)
    marker = f"in cycle {cyc} ("
    assert any(marker in d.message for d in after.by_code("RL302"))
    assert not any(marker in d.message for d in before.by_code("RL302"))
    assert all(d.severity is Severity.WARNING for d in after.by_code("RL302"))


def test_rl303_memory_connection_bound(impl) -> None:
    t = LintTarget.from_implementation(impl)
    t.exec_plan.topology = dataclasses.replace(
        t.exec_plan.topology, memory_ports=2  # the paper gives m+1 = 4
    )
    report = run_lint(t)
    assert "RL303" in report.codes()
    assert not report.ok


def test_rl304_io_bound_exceeded() -> None:
    impl = partition_transitive_closure(n=12, m=4)
    t = LintTarget.from_implementation(
        impl, io_bound=Fraction(1, 50), build_exec_plan=False
    )
    report = run_lint(t)
    assert "RL304" in report.codes()
    assert report.ok  # bandwidth overruns are warnings, not errors


# ----------------------------------------------------------------------
# The converse: shipped designs are clean
# ----------------------------------------------------------------------
def test_shipped_configs_have_zero_errors() -> None:
    reports = lint_shipped_configs()
    assert set(reports) == {c.name for c in SHIPPED_CONFIGS}
    for name, report in reports.items():
        assert report.ok, f"{name}: {[d.message for d in report.errors]}"


def test_reference_configs_fully_clean() -> None:
    # The paper's own design points produce not even a warning.
    for name in ("linear-n12-m4", "linear-n9-m3", "fixed-n9"):
        report = lint_config(name)
        assert len(report) == 0, (name, [d.message for d in report])
