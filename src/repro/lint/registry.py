"""Lint target model and the pass registry/runner.

A :class:`LintTarget` bundles whatever artefacts of the
FPDG -> G-graph -> G-set plan -> execution plan chain exist for one
design.  Passes declare, via ``requires``, which artefacts they read;
the runner executes every registered pass whose requirements the target
satisfies and skips the rest (a graph-only target runs only the RL1xx
passes, a full partitioned implementation runs everything).

Passes never raise on bad designs — that is the whole point: they
*report*.  If a pass does raise (a checker bug), the runner converts
the exception into an ``RL001`` error so one broken pass cannot hide
the findings of the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ..obs import runlog
from ..obs.metrics import get_registry
from .diagnostics import Diagnostic, LintReport, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..arrays.plan import ExecutionPlan
    from ..arrays.vector_compile import CompiledPlan
    from ..core.ggraph import GGraph
    from ..core.graph import DependenceGraph
    from ..core.gsets import GSet, GSetPlan
    from ..core.partitioner import PartitionedImplementation
    from ..core.semiring import Semiring
    from ..resilience.checkpoint import RecoveryPlan
    from ..resilience.runtime import RecoveryPolicy

__all__ = [
    "LintTarget",
    "LintPass",
    "lint_pass",
    "all_passes",
    "run_lint",
    "PLANNER_STAGES",
    "stage_of",
]


@dataclass
class LintTarget:
    """The artefacts of one design, any subset of the chain.

    Attributes
    ----------
    dg:
        The (transformed) dependence graph.
    gg:
        The G-graph derived from ``dg``.
    plan:
        The G-set selection.
    order:
        The pile (schedule) order of the G-sets.
    exec_plan:
        The cycle-level execution plan (cells, fire cycles, topology).
    io_bound:
        Host bandwidth bound in words/cycle for RL304 (the paper's
        ``m/n`` for transitive closure); ``None`` disables the check
        against the paper bound (the physical <= 1 word/cycle chain
        limit is still enforced).
    fanout_threshold:
        Fan-out above which RL101 reports a broadcast (2 matches
        :func:`repro.core.analysis.is_pipelined`).
    recovery:
        A mid-run :class:`repro.resilience.checkpoint.RecoveryPlan` for
        the RL4xx resilience passes; the resilience runtime lints one
        before resuming on a degraded array.
    policy:
        A :class:`repro.resilience.runtime.RecoveryPolicy` for RL402
        (policy soundness); the resilience runtime lints the policy as
        a preflight before the first G-set executes.
    compiled:
        The compiled NumPy value program
        (:class:`repro.arrays.vector_compile.CompiledPlan`) for the
        RL5xx plan-verification and RL6xx static-cost passes; attach it
        via :func:`repro.lint.planner.attach_compiled` or pass one
        corrupted by the miscompile corpus.
    semiring:
        The algebra the value program was compiled against (defaults to
        the compiled plan's own when ``None``).
    """

    description: str = "design"
    dg: "DependenceGraph | None" = None
    gg: "GGraph | None" = None
    plan: "GSetPlan | None" = None
    order: "Sequence[GSet] | None" = None
    exec_plan: "ExecutionPlan | None" = None
    io_bound: Fraction | None = None
    fanout_threshold: int = 2
    recovery: "RecoveryPlan | None" = None
    policy: "RecoveryPolicy | None" = None
    compiled: "CompiledPlan | None" = None
    semiring: "Semiring | None" = None

    @classmethod
    def from_graph(
        cls, dg: "DependenceGraph", description: str | None = None
    ) -> "LintTarget":
        """Target exposing only the dependence graph (RL1xx passes)."""
        return cls(description=description or dg.name, dg=dg)

    @classmethod
    def from_implementation(
        cls,
        impl: "PartitionedImplementation",
        description: str | None = None,
        io_bound: Fraction | None = None,
        build_exec_plan: bool = True,
    ) -> "LintTarget":
        """Target covering the full chain of a partitioned implementation.

        ``build_exec_plan=False`` skips the (lazily built, relatively
        expensive) cycle-level plan, disabling the RL3xx array passes.
        """
        return cls(
            description=description
            or f"{impl.dg.name} -> {impl.plan.geometry}(m={impl.plan.m})",
            dg=impl.dg,
            gg=impl.gg,
            plan=impl.plan,
            order=list(impl.order),
            exec_plan=impl.exec_plan if build_exec_plan else None,
            io_bound=io_bound,
        )


PassFn = Callable[[LintTarget], Iterable[Diagnostic]]


@dataclass(frozen=True)
class LintPass:
    """One registered analysis pass."""

    name: str
    codes: tuple[str, ...]
    requires: tuple[str, ...]
    fn: PassFn = field(repr=False)

    def applicable(self, target: LintTarget) -> bool:
        """True when the target supplies every required artefact."""
        return all(getattr(target, req) is not None for req in self.requires)


#: Passes execute stage by stage (graph -> schedule -> array); within a
#: stage, registration order.  The stage sort makes execution order
#: independent of which pass module happens to be imported first.
_REGISTRY: dict[str, LintPass] = {}

_STAGE_ORDER = {
    "graph": 0,
    "schedule": 1,
    "array": 2,
    "recovery": 3,
    "plan": 4,
    "cost": 5,
}

#: Stages that read the compiled value program (the ``--planner`` tiers).
PLANNER_STAGES = frozenset({"plan", "cost"})


def stage_of(pass_name: str) -> str:
    """The stage prefix of a pass name (``"plan.coverage"`` -> ``"plan"``)."""
    return pass_name.split(".", 1)[0]


def _ordered(passes: Iterable[LintPass]) -> list[LintPass]:
    return sorted(
        passes,
        key=lambda lp: _STAGE_ORDER.get(lp.name.split(".", 1)[0], len(_STAGE_ORDER)),
    )


def lint_pass(
    name: str, codes: Sequence[str], requires: Sequence[str]
) -> Callable[[PassFn], PassFn]:
    """Decorator registering a pass under ``name``.

    ``codes`` documents which diagnostic codes the pass may emit;
    ``requires`` names the :class:`LintTarget` attributes it reads.
    """

    def register(fn: PassFn) -> PassFn:
        if name in _REGISTRY:
            raise ValueError(f"lint pass {name!r} registered twice")
        _REGISTRY[name] = LintPass(
            name=name, codes=tuple(codes), requires=tuple(requires), fn=fn
        )
        return fn

    return register


def all_passes() -> tuple[LintPass, ...]:
    """Every registered pass, in execution order."""
    _ensure_loaded()
    return tuple(_ordered(_REGISTRY.values()))


def _ensure_loaded() -> None:
    """Import the pass modules so their registrations run.

    Import order is registration order is execution order:
    graph -> schedule -> array -> recovery -> plan -> cost.
    """
    from . import passes_graph  # noqa: F401
    from . import passes_schedule  # noqa: F401
    from . import passes_array  # noqa: F401
    from . import passes_recovery  # noqa: F401
    from . import passes_plan  # noqa: F401
    from . import passes_cost  # noqa: F401


def run_lint(
    target: LintTarget,
    passes: Sequence[str] | None = None,
    record_metrics: bool = True,
) -> LintReport:
    """Run every applicable pass over ``target`` and collect the findings.

    Parameters
    ----------
    passes:
        Optional subset of pass names to run (unknown names raise).
    record_metrics:
        When true (default), lint summary counters are incremented on
        the process-wide metrics registry
        (``repro_lint_runs_total`` / ``repro_lint_findings_total``).
    """
    _ensure_loaded()
    if passes is not None:
        unknown = [p for p in passes if p not in _REGISTRY]
        if unknown:
            raise KeyError(
                f"unknown lint pass(es): {unknown}; "
                f"available: {sorted(_REGISTRY)}"
            )
        want = set(passes)
        selected = [lp for lp in _ordered(_REGISTRY.values()) if lp.name in want]
    else:
        selected = _ordered(_REGISTRY.values())

    report = LintReport(target=target.description)
    ran: list[str] = []
    skipped: list[str] = []
    for lp in selected:
        if not lp.applicable(target):
            skipped.append(lp.name)
            continue
        try:
            report.extend(lp.fn(target))
        except Exception as exc:  # checker bug, never a design property
            report.extend(
                [
                    Diagnostic(
                        code="RL001",
                        severity=Severity.ERROR,
                        message=(
                            f"pass {lp.name!r} crashed: "
                            f"{type(exc).__name__}: {exc}"
                        ),
                        hint="this is a checker bug, not a design finding",
                    )
                ]
            )
        ran.append(lp.name)
    report.passes_run = tuple(ran)
    report.passes_skipped = tuple(skipped)
    # An uncounted run says so in its event, so the ledger alone can
    # rebuild repro_lint_runs_total.
    uncounted = {} if record_metrics else {"counted": False}
    runlog.record(
        "lint", metrics=record_metrics, target=target.description,
        ok=report.ok, errors=len(report.errors),
        warnings=len(report.warnings), passes=len(ran), **uncounted,
    )
    if record_metrics:
        # Per-code counts are not in the ``lint`` event, so this counter
        # stays outside runlog.EVENT_METRICS.
        findings = get_registry().counter(
            "repro_lint_findings_total", "lint findings by code and severity"
        )
        for d in report.diagnostics:
            findings.inc(code=d.code, severity=d.severity.value)
    return report
