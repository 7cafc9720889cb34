"""The shared diagnostic model of the static design checker.

Every lint pass reports findings through one vocabulary: a
:class:`Diagnostic` carries a stable code (``RL101``), a severity, a
location expressed in the IR's own coordinates (node / edge / G-set /
cell ids — there are no files and line numbers in a dependence graph),
a human message, and a fix hint.  :class:`LintReport` aggregates the
findings of one run and renders them as terminal text, as a
versioned-JSON artefact (matching the benchmark-artefact convention),
or as SARIF 2.1.0 for code-scanning UIs.

Severity semantics
------------------
``error``
    The design violates an invariant the paper's method *requires*
    (causality, acyclicity, port feasibility).  Simulating it would
    fail or silently compute the wrong thing; CI gates on these.
``warning``
    The design works but pays for it (time mixing, port contention,
    residual irregularity) — the paper's "might not use all cells"
    class of findings.
``info``
    Census facts useful in review but not actionable by themselves.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Iterator

__all__ = [
    "Severity",
    "Diagnostic",
    "LintReport",
    "LintError",
    "RuleInfo",
    "RULE_CATALOG",
    "SCHEMA_VERSION",
    "SARIF_VERSION",
    "HELP_URI_BASE",
]

#: Schema version stamped into the ``--format json`` artefact (the PR 2
#: convention: every machine-readable artefact is versioned).
#: v2: findings are deduplicated (preflight + explicit CLI runs in one
#: process used to repeat identical diagnostics), and each finding
#: carries a ``suggestion`` field (machine-actionable fix).
SCHEMA_VERSION = 2

#: Stable anchor base for SARIF ``helpUri`` rule links.
HELP_URI_BASE = (
    "https://example.invalid/repro/docs/static-analysis.md"
)

#: SARIF spec version emitted by :meth:`LintReport.to_sarif`.
SARIF_VERSION = "2.1.0"


class Severity(enum.Enum):
    """Finding severity, ordered ``info < warning < error``."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        """Numeric rank for comparisons (error is highest)."""
        return {"info": 0, "warning": 1, "error": 2}[self.value]

    @property
    def sarif_level(self) -> str:
        """The SARIF ``level`` string for this severity."""
        return {"info": "note", "warning": "warning", "error": "error"}[self.value]


def _fmt_id(x: Hashable) -> str:
    """Render an IR id (often a tuple) as a compact stable string."""
    if isinstance(x, tuple):
        return "(" + ",".join(_fmt_id(e) for e in x) + ")"
    return str(x)


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one lint pass.

    Location fields name IR entities, not files: ``nodes`` are
    dependence-graph node ids, ``edges`` are ``(producer, consumer)``
    pairs, ``gsets`` are G-set (or G-node) ids, ``cells`` are array
    cell ids.  Any subset may be empty.

    ``hint`` explains the finding; ``suggestion`` is the concrete fix
    action (rendered as a SARIF ``fixes`` entry so code-scanning UIs
    can offer it), e.g. "recompile the plan with compile_plan()".
    """

    code: str
    severity: Severity
    message: str
    hint: str = ""
    suggestion: str = ""
    nodes: tuple[Hashable, ...] = ()
    edges: tuple[tuple[Hashable, Hashable], ...] = ()
    gsets: tuple[Hashable, ...] = ()
    cells: tuple[Hashable, ...] = ()

    def location(self) -> str:
        """Human-readable one-line location string (may be empty)."""
        parts = []
        if self.nodes:
            parts.append("node " + ", ".join(_fmt_id(n) for n in self.nodes[:4]))
        if self.edges:
            parts.append(
                "edge "
                + ", ".join(
                    f"{_fmt_id(u)}->{_fmt_id(v)}" for u, v in self.edges[:4]
                )
            )
        if self.gsets:
            parts.append("G-set " + ", ".join(_fmt_id(s) for s in self.gsets[:4]))
        if self.cells:
            parts.append("cell " + ", ".join(_fmt_id(c) for c in self.cells[:4]))
        return "; ".join(parts)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe rendering (ids stringified)."""
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "hint": self.hint,
            "suggestion": self.suggestion,
            "nodes": [_fmt_id(n) for n in self.nodes],
            "edges": [[_fmt_id(u), _fmt_id(v)] for u, v in self.edges],
            "gsets": [_fmt_id(s) for s in self.gsets],
            "cells": [_fmt_id(c) for c in self.cells],
        }


@dataclass(frozen=True)
class RuleInfo:
    """Catalogue entry for one diagnostic code (see docs/static-analysis.md)."""

    code: str
    summary: str
    invariant: str
    paper_ref: str
    hint: str


#: The diagnostic-code catalogue.  ``docs/static-analysis.md`` mirrors this
#: table; SARIF output embeds it as the tool's rule metadata.
RULE_CATALOG: dict[str, RuleInfo] = {
    r.code: r
    for r in (
        RuleInfo(
            "RL001",
            "lint pass crashed",
            "every lint pass must complete on any input design",
            "-",
            "this is a checker bug; report it with the design that triggered it",
        ),
        RuleInfo(
            "RL101",
            "residual data broadcast",
            "no value fans out to more consumers than the pipelining "
            "threshold allows",
            "Sec. 2 / Figs. 4a, 12",
            "serialize the broadcast into a pipeline chain through the "
            "consumers (forwarding ports)",
        ),
        RuleInfo(
            "RL102",
            "bi-directional data flow",
            "in the drawing embedding, every communication axis carries "
            "flow in one direction only",
            "Sec. 2 / Figs. 4c, 13-14",
            "flip node positions across the broadcast sources (cyclic "
            "re-indexing) until all edges agree in sign",
        ),
        RuleInfo(
            "RL103",
            "long / irregular communication edge",
            "every G-edge connects nearest neighbours in G-space (one "
            "physical link between the executing cells)",
            "Sec. 2 / Figs. 4b, 15-17",
            "regularize the graph with delay (transmission) nodes "
            "(Fig. 15c) so the grouping yields unit-hop G-edges",
        ),
        RuleInfo(
            "RL104",
            "dangling or malformed port",
            "every operand role is wired to an existing producer; every "
            "produced value that must be read is read",
            "Sec. 1 (the FPDG is a complete wiring)",
            "rewire the consumer at an existing producer port, or remove "
            "the dead producer",
        ),
        RuleInfo(
            "RL105",
            "dependence cycle",
            "the fully-parallel dependence graph is acyclic (all loops "
            "unfolded)",
            "Sec. 1",
            "unfold the loop the cycle came from; a combinational array "
            "cannot evaluate a cyclic dependence",
        ),
        RuleInfo(
            "RL201",
            "cut-and-pile causality violation",
            "no G-set consumes a value produced by a later G-set in the "
            "pile order",
            "Sec. 2-3 / Figs. 7, 20",
            "re-schedule with a legal policy (list scheduling over the "
            "G-set dependence DAG)",
        ),
        RuleInfo(
            "RL202",
            "unbalanced G-set computation times",
            "all G-nodes of one G-set share one computation time "
            "(maximal utilization)",
            "Sec. 2 / Figs. 8, 22",
            "regroup along uniform-time paths, or accept the reported "
            "time-mixing loss",
        ),
        RuleInfo(
            "RL203",
            "G-set slot conflict",
            "every G-node is executed by exactly one cell of exactly one "
            "G-set, and every cell index exists",
            "Sec. 2 step 3",
            "fix the G-set selection so sets partition the G-graph and "
            "cells are assigned injectively",
        ),
        RuleInfo(
            "RL204",
            "pile order malformed",
            "the schedule issues every G-set exactly once",
            "Sec. 3",
            "rebuild the order from the scheduler instead of editing it "
            "by hand",
        ),
        RuleInfo(
            "RL301",
            "program/topology port mismatch",
            "every firing sits on an existing cell, and same-region "
            "operands travel over links the topology provides",
            "Sec. 3 / Figs. 17-19",
            "match the execution plan's geometry to the topology (or add "
            "the missing link/delay hop)",
        ),
        RuleInfo(
            "RL302",
            "memory port write-write conflict",
            "no external-memory tap takes same-cycle writes from two "
            "different cells",
            "Sec. 3 / Figs. 18-19",
            "widen the port, stagger the producers, or re-block so "
            "simultaneous writers use different taps",
        ),
        RuleInfo(
            "RL303",
            "external-memory connection bound exceeded",
            "the design uses at most the paper's memory connections "
            "(m+1 linear, 2*sqrt(m) mesh)",
            "Sec. 3 / Figs. 18-19",
            "route parked values through the boundary taps; do not add "
            "per-cell memories",
        ),
        RuleInfo(
            "RL304",
            "host I/O demand exceeds bandwidth bound",
            "steady-state host demand stays within the m/n words/cycle "
            "the R-block chain provides",
            "Sec. 4.2 / Fig. 21",
            "use the aligned (skew-blocked) G-set selection and the "
            "vertical-path schedule so input G-sets are spaced apart",
        ),
        RuleInfo(
            "RL401",
            "recovery plan unsound",
            "a mid-run resume fires only uncommitted nodes, maps every "
            "logical cell onto a surviving physical cell, and (with the "
            "checkpointed nodes) still covers the whole computation",
            "Sec. 5 (degraded linear/mesh operation)",
            "rebuild the resume from the checkpoint store and the "
            "re-partitioned G-set plan; never edit a recovery plan by hand",
        ),
        RuleInfo(
            "RL402",
            "recovery policy unsound",
            "a recovery policy bounds its backoff growth, keeps the "
            "quarantine threshold reachable within one G-set's attempt "
            "budget, and prices the degradation tier at a positive "
            "host cost",
            "Sec. 5 (degraded linear/mesh operation)",
            "fix the offending knob; quarantine_strikes=0 disables the "
            "escalation ladder and degrade=False the degradation tier",
        ),
        RuleInfo(
            "RL501",
            "value-program slot coverage broken",
            "every scheduled OP firing appears in exactly one depth-batch "
            "of the compiled value program, every slot has exactly one "
            "producer, and the program's inputs/outputs match the graph's",
            "Sec. 3 (the plan executes every node once)",
            "recompile with compile_plan(); never edit a CompiledPlan's "
            "slot or step arrays by hand",
        ),
        RuleInfo(
            "RL502",
            "depth-batch causality violation",
            "no batch reads a slot produced by the same or a later batch "
            "in replay order (batches execute in dependence-depth order)",
            "Sec. 1-3 (dataflow order is preserved by the compile)",
            "recompile with compile_plan(); depth batching derives the "
            "batch order from the dependence graph, not from the editor",
        ),
        RuleInfo(
            "RL503",
            "semiring-step typing mismatch",
            "every batch opcode has batched semantics, carries the "
            "operand roles its semantics function expects, is legal on "
            "the semiring's dtype, and the program's opcode census "
            "matches the graph's",
            "Sec. 1 (algorithm algebra) / PR 5 (VECTOR_OPCODES)",
            "recompile against the intended semiring; field opcodes "
            "(div/recip/...) need a float or complex dtype",
        ),
        RuleInfo(
            "RL504",
            "scatter/gather index out of bounds",
            "every slot index the program scatters or gathers (inputs, "
            "constants, batch operands/outputs, graph outputs) lies in "
            "[0, n_slots) and index arrays are integral and consistent",
            "- (memory-safety of the replay)",
            "recompile with compile_plan(); an out-of-range index would "
            "read or write outside the value array",
        ),
        RuleInfo(
            "RL505",
            "unexpected vector-fallback reason",
            "every repro_vector_fallback_total reason recorded this "
            "process is one the backend documents (probe, inject, "
            "unvectorizable)",
            "- (PR 5 fallback contract)",
            "an unknown reason means a new fallback path shipped without "
            "being audited; add it to ALLOWED_FALLBACK_REASONS after "
            "review or fix the caller",
        ),
        RuleInfo(
            "RL601",
            "makespan disagrees with the critical-path bound",
            "the recorded makespan never undercuts the constraint DAG's "
            "critical-path lower bound, and the compiled plan's recorded "
            "makespan equals the execution plan's",
            "Sec. 3-4 (cycle-accurate timing model)",
            "recompile the plan; a makespan below the critical path is "
            "unexecutable, and slack above it means the schedule idles",
        ),
        RuleInfo(
            "RL602",
            "recorded static measure mismatch",
            "the compiled plan's recorded busy/useful counts and memory "
            "traffic equal an independent recount over the schedule "
            "(same timing rules as the reference interpreter)",
            "Sec. 3 / Figs. 18-19 (memory traffic model)",
            "recompile with compile_plan(); downstream perf gates and "
            "dashboards trust these recorded measures",
        ),
        RuleInfo(
            "RL603",
            "host I/O demand exceeds the Fig. 21 bound (static)",
            "the compiled plan's aggregate input demand (words per "
            "cycle over the whole run) stays within the m/n words/cycle "
            "the R-block chain provides",
            "Sec. 4.2 / Fig. 21",
            "use the aligned G-set selection and the vertical-path "
            "schedule so input G-sets are spaced apart",
        ),
        RuleInfo(
            "RL604",
            "value program fragments into narrow batches",
            "the batched replay pays per-step dispatch overhead; many "
            "narrow depth-batches forfeit the vector backend's advantage",
            "- (PR 5 performance model)",
            "regroup the computation (wider G-sets, fewer depth levels) "
            "or run this design on the reference interpreter",
        ),
        RuleInfo(
            "RL605",
            "chronic cell underutilization",
            "cells spend most cycles idle (busy well below cells x "
            "makespan) - the paper's 'might not use all cells' loss",
            "Sec. 2 / Figs. 8, 22",
            "choose m closer to a divisor of the G-graph width, or "
            "regroup along uniform-time paths",
        ),
        RuleInfo(
            "RL606",
            "host-bandwidth headroom exhausted",
            "aggregate input demand approaches the Fig. 21 bound so "
            "closely that any schedule perturbation would starve cells",
            "Sec. 4.2 / Fig. 21",
            "increase the spacing of input G-sets in the pile order or "
            "provision the next m (more R-blocks) before growing n",
        ),
    )
}


class LintError(RuntimeError):
    """Raised by ``preflight=True`` entry points when lint finds errors.

    Carries the full :class:`LintReport` on ``.report`` so callers can
    render or serialize the findings.
    """

    def __init__(self, report: "LintReport") -> None:
        self.report = report
        errs = report.errors
        head = "; ".join(
            f"{d.code}: {d.message}" for d in errs[:3]
        )
        more = f" (+{len(errs) - 3} more)" if len(errs) > 3 else ""
        super().__init__(
            f"static design check failed with {len(errs)} error(s): {head}{more}"
        )


@dataclass
class LintReport:
    """All findings of one checker run over one design."""

    target: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    passes_run: tuple[str, ...] = ()
    passes_skipped: tuple[str, ...] = ()

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    @property
    def errors(self) -> list[Diagnostic]:
        """Error-severity findings (these gate CI)."""
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        """Warning-severity findings."""
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def infos(self) -> list[Diagnostic]:
        """Info-severity findings."""
        return [d for d in self.diagnostics if d.severity is Severity.INFO]

    @property
    def ok(self) -> bool:
        """True when no error-severity finding exists."""
        return not self.errors

    def codes(self) -> set[str]:
        """Distinct diagnostic codes present in this report."""
        return {d.code for d in self.diagnostics}

    def by_code(self, code: str) -> list[Diagnostic]:
        """All findings with the given code."""
        return [d for d in self.diagnostics if d.code == code]

    def counts(self) -> dict[str, int]:
        """``{severity: count}`` summary."""
        return {
            "error": len(self.errors),
            "warning": len(self.warnings),
            "info": len(self.infos),
        }

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        """Append findings (used by the pass runner)."""
        self.diagnostics.extend(diags)

    def unique_diagnostics(self) -> list[Diagnostic]:
        """Findings with exact duplicates removed, first occurrence wins.

        A preflight hook and an explicit CLI run in the same process can
        both report the same finding over the same design; the JSON and
        SARIF artefacts deduplicate so consumers do not double-count
        (schema v2 behaviour).
        """
        return list(dict.fromkeys(self.diagnostics))

    # ------------------------------------------------------------------
    # Renderers
    # ------------------------------------------------------------------
    def to_text(self) -> str:
        """Terminal rendering: one line per finding plus a summary."""
        lines = [f"lint: {self.target}"]
        order = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}
        for d in sorted(
            self.diagnostics, key=lambda d: (order[d.severity], d.code)
        ):
            loc = d.location()
            lines.append(
                f"  {d.severity.value:>7} {d.code} {d.message}"
                + (f" [{loc}]" if loc else "")
            )
            if d.hint:
                lines.append(f"          hint: {d.hint}")
            if d.suggestion:
                lines.append(f"           fix: {d.suggestion}")
        c = self.counts()
        lines.append(
            f"  {c['error']} error(s), {c['warning']} warning(s), "
            f"{c['info']} info(s); passes run: {len(self.passes_run)}"
            + (f", skipped: {len(self.passes_skipped)}" if self.passes_skipped else "")
        )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """Versioned JSON-safe document (the ``--format json`` artefact).

        Findings are deduplicated (:meth:`unique_diagnostics`) and the
        summary counts the deduplicated findings, so the artefact is
        stable no matter how many times the same pass reported over the
        same design in this process.
        """
        uniq = self.unique_diagnostics()
        return {
            "version": SCHEMA_VERSION,
            "target": self.target,
            "summary": {
                "error": sum(
                    1 for d in uniq if d.severity is Severity.ERROR
                ),
                "warning": sum(
                    1 for d in uniq if d.severity is Severity.WARNING
                ),
                "info": sum(1 for d in uniq if d.severity is Severity.INFO),
            },
            "ok": self.ok,
            "passes_run": list(self.passes_run),
            "passes_skipped": list(self.passes_skipped),
            "findings": [d.to_dict() for d in uniq],
        }

    def to_json(self, indent: int | None = 2) -> str:
        """``json.dumps`` of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_sarif(self) -> dict[str, Any]:
        """SARIF 2.1.0 document (one run, logical locations only).

        Rules carry ``name``/``helpUri``/full descriptions and results
        carry ``fixes`` (from :attr:`Diagnostic.suggestion`) so the
        artefact is consumable by GitHub code scanning.  Results are
        deduplicated like the JSON artefact.
        """
        rules = [
            {
                "id": info.code,
                "name": info.summary.title().replace(" ", "").replace(
                    "-", ""
                ).replace("/", ""),
                "shortDescription": {"text": info.summary},
                "fullDescription": {
                    "text": f"{info.invariant} (paper: {info.paper_ref})"
                },
                "help": {"text": info.hint},
                "helpUri": f"{HELP_URI_BASE}#{info.code.lower()}",
            }
            for info in sorted(RULE_CATALOG.values(), key=lambda r: r.code)
        ]
        results = []
        for d in self.unique_diagnostics():
            logical = []
            for n in d.nodes:
                logical.append({"name": _fmt_id(n), "kind": "member"})
            for u, v in d.edges:
                logical.append(
                    {"name": f"{_fmt_id(u)}->{_fmt_id(v)}", "kind": "member"}
                )
            for s in d.gsets:
                logical.append({"name": _fmt_id(s), "kind": "module"})
            for c in d.cells:
                logical.append({"name": _fmt_id(c), "kind": "module"})
            result: dict[str, Any] = {
                "ruleId": d.code,
                "level": d.severity.sarif_level,
                "message": {
                    "text": d.message + (f" Hint: {d.hint}" if d.hint else "")
                },
            }
            if logical:
                result["locations"] = [{"logicalLocations": logical}]
            if d.suggestion:
                result["fixes"] = [
                    {"description": {"text": d.suggestion}}
                ]
            results.append(result)
        return {
            "version": SARIF_VERSION,
            "$schema": (
                "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json"
            ),
            "runs": [
                {
                    "tool": {
                        "driver": {
                            "name": "repro-lint",
                            "version": f"{SCHEMA_VERSION}.0.0",
                            "informationUri": (
                                "https://example.invalid/repro/docs/"
                                "static-analysis.md"
                            ),
                            "rules": rules,
                        }
                    },
                    "properties": {"target": self.target},
                    "results": results,
                }
            ],
        }
