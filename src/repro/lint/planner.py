"""Planner-tier lint orchestration: compile, cache, preflight, from-run.

The RL5xx/RL6xx passes read the compiled value program, so running them
means compiling the design first (one cached compile per
``(plan, graph, semiring)``, see :func:`repro.arrays.vector_compile.
get_compiled`).  This module owns the glue:

* :func:`lint_compiled` — run the planner tiers over one design, with
  an **incremental lint cache** keyed by the compile's SHA-256
  ``plan_fingerprint``: linting an unchanged plan twice is near-free
  and observable via ``repro_lint_cache_hits_total``.
* :func:`planner_preflight` — the env-gated (``REPRO_LINT_PLANNER=1``)
  post-compile hook ``get_compiled`` invokes; raises
  :class:`~repro.lint.diagnostics.LintError` on any error finding so a
  miscompiled program is rejected before its first replay.
* :func:`lint_from_run` — rebuild the design a run ledger records and
  lint the plan it fingerprinted (``repro lint --from-run <run-id>``),
  reporting drift when today's fingerprint no longer matches the
  ledger's.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Any

from ..obs import runlog
from .diagnostics import LintError, LintReport
from .registry import (
    LintTarget,
    PLANNER_STAGES,
    all_passes,
    run_lint,
    stage_of,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..arrays.plan import ExecutionPlan
    from ..arrays.vector_compile import CompiledPlan
    from ..core.graph import DependenceGraph
    from ..core.semiring import Semiring

__all__ = [
    "planner_pass_names",
    "design_pass_names",
    "attach_compiled",
    "lint_compiled",
    "planner_preflight",
    "lint_from_run",
    "clear_lint_cache",
    "lint_cache_info",
]


def planner_pass_names() -> tuple[str, ...]:
    """Names of the plan/cost passes (the ``--planner`` tiers)."""
    return tuple(
        lp.name for lp in all_passes() if stage_of(lp.name) in PLANNER_STAGES
    )


def design_pass_names() -> tuple[str, ...]:
    """Names of the IR-level passes (everything but plan/cost)."""
    return tuple(
        lp.name
        for lp in all_passes()
        if stage_of(lp.name) not in PLANNER_STAGES
    )


def attach_compiled(
    target: LintTarget, semiring: "Semiring | None" = None
) -> "CompiledPlan":
    """Compile the target's plan and attach the program to the target.

    Uses the default boolean semiring (every shipped design is a
    transitive closure) unless one is given.  Raises the compile's own
    :class:`~repro.core.graph.GraphError` subclasses on designs the
    vector backend cannot express — callers decide whether that is a
    finding or a skip.
    """
    from ..arrays.vector_compile import get_compiled
    from ..core.semiring import BOOLEAN

    if target.exec_plan is None or target.dg is None:
        raise ValueError(
            "planner lint needs both exec_plan and dg on the target"
        )
    sr = semiring or target.semiring or BOOLEAN
    compiled = get_compiled(target.exec_plan, target.dg, sr)
    target.compiled = compiled
    target.semiring = sr
    return compiled


# -- the incremental lint cache -------------------------------------------

#: ``(plan_fingerprint, io_bound)`` -> planner-tier report.  Keyed on the
#: io_bound too because RL603/RL606 read it; everything else the planner
#: tiers consume is covered by the fingerprint.
_LINT_CACHE: dict[tuple[str, str], LintReport] = {}
_LINT_CACHE_MAX = 64


def _cache_key(fingerprint: str, io_bound: Fraction | None) -> tuple[str, str]:
    return (fingerprint, "" if io_bound is None else str(io_bound))


def _copy_report(report: LintReport) -> LintReport:
    """A mutable copy so callers can merge without poisoning the cache."""
    return LintReport(
        target=report.target,
        diagnostics=list(report.diagnostics),
        passes_run=report.passes_run,
        passes_skipped=report.passes_skipped,
    )


def clear_lint_cache() -> None:
    """Drop every cached planner-tier report (tests)."""
    _LINT_CACHE.clear()


def lint_cache_info() -> dict[str, int]:
    """Hit/miss/size counters for reports and tests."""
    hits = runlog.event_counter("repro_lint_cache_hits_total")
    misses = runlog.event_counter("repro_lint_cache_misses_total")
    return {
        "hits": int(hits.value()),
        "misses": int(misses.value()),
        "size": len(_LINT_CACHE),
    }


def lint_compiled(
    plan: "ExecutionPlan",
    dg: "DependenceGraph",
    semiring: "Semiring | None" = None,
    description: str | None = None,
    io_bound: Fraction | None = None,
    use_cache: bool = True,
) -> LintReport:
    """Run the RL5xx/RL6xx tiers over one design's compiled program.

    Repeated calls with an unchanged ``plan_fingerprint`` (and the same
    ``io_bound``) return a copy of the cached report —
    ``repro_lint_cache_hits_total`` counts the saves.
    """
    from ..core.semiring import BOOLEAN

    sr = semiring or BOOLEAN
    target = LintTarget(
        description=description or f"{dg.name} planner",
        dg=dg,
        exec_plan=plan,
        io_bound=io_bound,
        semiring=sr,
    )
    compiled = attach_compiled(target, sr)
    if use_cache:
        hit = _LINT_CACHE.get(_cache_key(compiled.fingerprint, io_bound))
        if hit is not None:
            runlog.record(
                "lint_cache", outcome="hit",
                plan_fingerprint=compiled.fingerprint,
                target=hit.target,
            )
            return _copy_report(hit)
    return _run_planner_tiers(target, compiled.fingerprint, io_bound, use_cache)


def _run_planner_tiers(
    target: LintTarget,
    fingerprint: str,
    io_bound: Fraction | None,
    store: bool = True,
) -> LintReport:
    """One lint-cache miss: run the planner tiers, record the miss and
    (with ``store``) cache a copy of the report."""
    report = run_lint(target, passes=list(planner_pass_names()))
    runlog.record(
        "lint_cache", outcome="miss", plan_fingerprint=fingerprint,
        target=report.target,
    )
    if store:
        if len(_LINT_CACHE) >= _LINT_CACHE_MAX:
            _LINT_CACHE.pop(next(iter(_LINT_CACHE)))
        _LINT_CACHE[_cache_key(fingerprint, io_bound)] = _copy_report(report)
    return report


# -- the env-gated post-compile preflight ---------------------------------

_IN_PREFLIGHT = False


def planner_preflight(
    compiled: "CompiledPlan",
    plan: "ExecutionPlan",
    dg: "DependenceGraph",
    semiring: "Semiring",
) -> None:
    """Verify a freshly compiled program; raise ``LintError`` on errors.

    Called by :func:`repro.arrays.vector_compile.get_compiled` after
    every compile when ``REPRO_LINT_PLANNER`` is set.  Reuses the
    already-compiled program (no recursive compile) and seeds the
    incremental lint cache so an explicit ``repro lint --planner`` of
    the same plan is a cache hit.
    """
    global _IN_PREFLIGHT
    if _IN_PREFLIGHT:  # pragma: no cover - defensive reentrancy guard
        return
    _IN_PREFLIGHT = True
    try:
        target = LintTarget(
            description=f"{dg.name} planner preflight",
            dg=dg,
            exec_plan=plan,
            compiled=compiled,
            semiring=semiring,
        )
        report = _run_planner_tiers(target, compiled.fingerprint, None)
        if not report.ok:
            raise LintError(report)
    finally:
        _IN_PREFLIGHT = False


# -- repro lint --from-run ------------------------------------------------


def lint_from_run(
    run_id: str, dir: "str | None" = None
) -> dict[str, Any]:
    """Lint the plan a run ledger fingerprinted.

    Reads the ledger, rebuilds the design from the ``run_start``
    parameters (``n``/``m``/``geometry``/``policy``/``packed`` entry
    points, or a shipped ``config`` name), lints it through the planner
    tiers, and compares today's ``plan_fingerprint`` against the ones
    the ledger recorded in its ``plan_cache`` events.

    Returns ``{"report": LintReport, "fingerprint": str,
    "recorded": [str, ...], "matches": bool | None, "entry": str}``
    (``matches`` is ``None`` when the ledger recorded no compile).
    Raises ``FileNotFoundError`` for a missing ledger and
    ``ValueError`` for runs whose parameters cannot rebuild one design.
    """
    path = runlog.ledger_path(run_id, dir)
    if not path.exists():
        raise FileNotFoundError(f"no run ledger at {path}")
    events, _problems = runlog.read_ledger(path)
    start = next(
        (ev for ev in events if ev.get("event") == "run_start"), None
    )
    if start is None:
        raise ValueError(f"run {run_id} has no run_start event")
    entry = str(start.get("entry", ""))
    params: dict[str, Any] = dict(start.get("params") or {})
    recorded = [
        str(ev["plan_fingerprint"])
        for ev in events
        if ev.get("event") == "plan_cache" and "plan_fingerprint" in ev
    ]

    if params.get("n") is not None and params.get("m") is not None:
        from ..core.metrics import tc_io_bandwidth
        from ..core.partitioner import partition_transitive_closure

        n, m = int(params["n"]), int(params["m"])
        impl = partition_transitive_closure(
            n=n,
            m=m,
            geometry=str(params.get("geometry") or "linear"),
            policy=str(params.get("policy") or "vertical"),
            aligned=not bool(params.get("packed")),
        )
        plan, dg = impl.exec_plan, impl.dg
        io_bound = tc_io_bandwidth(n, m)
        description = f"run {run_id} ({entry} n={n} m={m})"
    elif params.get("config"):
        from .configs import SHIPPED_CONFIGS

        by_name = {c.name: c for c in SHIPPED_CONFIGS}
        name = str(params["config"])
        if name not in by_name:
            raise ValueError(
                f"run {run_id} names config {name!r}, which is not a "
                f"shipped lint config ({sorted(by_name)})"
            )
        built = by_name[name].build()
        if built.exec_plan is None or built.dg is None:
            raise ValueError(
                f"config {name!r} has no execution plan to lint"
            )
        plan, dg = built.exec_plan, built.dg
        io_bound = built.io_bound
        description = f"run {run_id} ({entry} config={name})"
    else:
        raise ValueError(
            f"run {run_id} ({entry}) records neither n/m nor a config; "
            "cannot rebuild its plan"
        )

    report = lint_compiled(
        plan, dg, description=description, io_bound=io_bound
    )
    from ..arrays.vector_compile import plan_fingerprint
    from ..core.semiring import BOOLEAN

    fp = plan_fingerprint(plan, dg, BOOLEAN)
    matches: bool | None = None
    if recorded:
        matches = fp in recorded
    return {
        "report": report,
        "fingerprint": fp,
        "recorded": recorded,
        "matches": matches,
        "entry": entry,
    }
