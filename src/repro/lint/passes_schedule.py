"""RL2xx — cut-and-pile passes over the G-set plan and pile order.

Section 3's claim is that once the G-graph is partitioned into G-sets,
"scheduling needs to consider only the dependences between G-sets";
these passes verify that the shipped plan and pile order actually keep
that contract: causal ordering (RL201), balanced G-node computation
times inside each set (RL202), well-formed slot assignment (RL203),
and a pile order that covers every G-set exactly once (RL204).
"""

from __future__ import annotations

from typing import Iterable

from ..core.gsets import check_schedule
from .diagnostics import Diagnostic, Severity
from .passes_graph import _capped
from .registry import LintTarget, lint_pass

__all__: list[str] = []


@lint_pass(
    "schedule.causality", codes=("RL201",), requires=("plan", "order")
)
def check_causality(target: LintTarget) -> Iterable[Diagnostic]:
    """RL201: a G-set consumes a value produced by a later G-set.

    Formats the backward pairs of :func:`repro.core.gsets.check_schedule`,
    which reports a cyclic plan instead of raising on it: RL201 on both
    directions of a cycle is exactly that report.
    """
    plan, order = target.plan, target.order
    assert plan is not None and order is not None
    check = check_schedule(plan, order)
    position = check.position
    diags = [
        Diagnostic(
            code="RL201",
            severity=Severity.ERROR,
            message=(
                f"G-set {sv} (pile slot {position[sv]}) consumes "
                f"{count} value(s) produced by G-set {su} "
                f"(pile slot {position[su]})"
            ),
            hint="reorder the pile so every producer set is issued "
            "before its consumers (Sec. 3 cut-and-pile causality)",
            gsets=(su, sv),
        )
        for (su, sv), count in check.backward.items()
    ]
    return _capped(diags, "RL201", len(diags))


@lint_pass("schedule.balance", codes=("RL202",), requires=("plan",))
def check_balance(target: LintTarget) -> Iterable[Diagnostic]:
    """RL202: G-nodes of one set with unequal computation times.

    The set executes for as long as its slowest member (Sec. 4.1's
    ``t_i = max``), so faster members idle — utilization loss, not an
    illegal design: severity *warning*.
    """
    plan = target.plan
    assert plan is not None
    gg = plan.gg
    diags = []
    for s in plan.gsets:
        times = {gid: gg.gnodes[gid].comp_time for gid in s.gids if gid in gg.gnodes}
        if len(set(times.values())) > 1:
            lo, hi = min(times.values()), max(times.values())
            diags.append(
                Diagnostic(
                    code="RL202",
                    severity=Severity.WARNING,
                    message=(
                        f"G-set {s.sid} mixes computation times "
                        f"{lo}..{hi}; cells idle for "
                        f"{sum(hi - t for t in times.values())} slot(s)"
                    ),
                    hint="regroup so each G-set has equal-time members "
                    "(Fig. 8 requirement b)",
                    gsets=(s.sid,),
                )
            )
    return _capped(diags, "RL202", len(diags))


@lint_pass("schedule.slots", codes=("RL203",), requires=("plan",))
def check_slots(target: LintTarget) -> Iterable[Diagnostic]:
    """RL203: slot conflicts in the G-set plan.

    Four shapes of conflict: two members of one set mapped to the same
    cell, one G-node claimed by several sets, a slot-occupying G-node
    left out of every set, and a cell id outside the array shape.
    """
    plan = target.plan
    assert plan is not None
    diags: list[Diagnostic] = []
    owner: dict[tuple, tuple] = {}
    sr, sc = plan.shape
    for s in plan.gsets:
        seen_cells: dict[object, object] = {}
        for gid, cell in zip(s.gids, s.cells):
            if cell in seen_cells:
                diags.append(
                    Diagnostic(
                        code="RL203",
                        severity=Severity.ERROR,
                        message=(
                            f"G-set {s.sid} maps both {seen_cells[cell]} "
                            f"and {gid} to cell {cell}"
                        ),
                        hint="each cell executes exactly one G-node per "
                        "G-set (Sec. 3)",
                        gsets=(s.sid,),
                        cells=(cell,),
                    )
                )
            seen_cells[cell] = gid
            if gid in owner and owner[gid] != s.sid:
                diags.append(
                    Diagnostic(
                        code="RL203",
                        severity=Severity.ERROR,
                        message=(
                            f"G-node {gid} belongs to G-sets "
                            f"{owner[gid]} and {s.sid}"
                        ),
                        gsets=(owner[gid], s.sid),
                    )
                )
            owner[gid] = s.sid
            if plan.geometry == "mesh":
                ok = (
                    isinstance(cell, tuple)
                    and len(cell) == 2
                    and 0 <= cell[0] < sr
                    and 0 <= cell[1] < sc
                )
            else:
                ok = isinstance(cell, int) and 0 <= cell < plan.m
            if not ok:
                diags.append(
                    Diagnostic(
                        code="RL203",
                        severity=Severity.ERROR,
                        message=(
                            f"G-set {s.sid} assigns cell id {cell!r}, "
                            f"outside the {plan.geometry} array shape "
                            f"{plan.shape}"
                        ),
                        gsets=(s.sid,),
                        cells=(cell,),
                    )
                )
    uncovered = [g for g in plan.gg.gnodes if g not in owner]
    if uncovered:
        diags.append(
            Diagnostic(
                code="RL203",
                severity=Severity.ERROR,
                message=(
                    f"{len(uncovered)} G-node(s) belong to no G-set "
                    f"(first: {uncovered[:4]})"
                ),
                hint="every G-node must be piled onto the array exactly "
                "once",
            )
        )
    return _capped(diags, "RL203", len(diags))


@lint_pass(
    "schedule.coverage", codes=("RL204",), requires=("plan", "order")
)
def check_order_coverage(target: LintTarget) -> Iterable[Diagnostic]:
    """RL204: pile order does not cover the plan's G-sets exactly once."""
    plan, order = target.plan, target.order
    assert plan is not None and order is not None
    check = check_schedule(plan, order)
    faults = sorted(
        [(idx, 0, sid) for idx, sid in check.duplicated]
        + [(idx, 1, sid) for idx, sid in check.unplanned]
    )
    diags = [
        Diagnostic(
            code="RL204",
            severity=Severity.ERROR,
            message=(
                f"pile order contains G-set {sid} that is not in the plan"
                if unplanned
                else f"G-set {sid} appears twice in the pile order"
            ),
            gsets=(sid,),
        )
        for _, unplanned, sid in faults
    ]
    missing = check.missing
    if missing:
        diags.append(
            Diagnostic(
                code="RL204",
                severity=Severity.ERROR,
                message=(
                    f"{len(missing)} planned G-set(s) missing from the "
                    f"pile order (first: {list(missing[:4])})"
                ),
                gsets=tuple(missing[:4]),
            )
        )
    return _capped(diags, "RL204", len(diags))
