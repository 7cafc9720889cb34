"""Run ledger: one correlated, typed JSONL event log per top-level run.

Every top-level entry point (the ``partition`` / ``trace`` / ``faults`` /
``bench`` / ``perfcheck`` CLI verbs, plus
:func:`repro.core.verify.verify_implementation`,
:func:`repro.resilience.campaign.run_campaign` and
:func:`repro.experiments.runner.run_experiments`) opens a *run scope*
with a **deterministic run ID** and appends versioned events to a
per-run ledger file — a start/end pair with its duration for every
:func:`repro.obs.tracing.stage_span` (pipeline, simulator, campaign,
verify and experiment stages alike), the lint preflight outcome,
plan-cache hit/miss/compile (with ``plan_fingerprint``), backend
selection and fallback reason, fault inject/detect/recover steps,
checkpoint save/restore, and the oracle verdict.  ``python -m repro
obs`` queries the ledgers (``list`` / ``show`` / ``diff`` /
``verify``).

Design rules, in the order they matter:

* **One write per fact.**  :func:`record` appends an event and applies
  the :data:`EVENT_METRICS` rows for its type: those counters are a
  view of the ledger, kept in the registry even with no run scope open.
* **Near-zero cost when inactive.**  Without a run scope,
  :func:`record` costs a ``None`` check and one table lookup (plus the
  counter update, for a table event); :func:`task_scope` and
  :func:`repro.obs.tracing.stage_span` check the same module global.
* **Deterministic identity.**  ``run_id = f"{entry}-{sha256(entry +
  canonical params)[:12]}"``.  The parameters *exclude* execution knobs
  that must not change the artefact (``jobs``), so a sequential and a
  ``--jobs 2`` run of the same campaign share one run ID and one ledger
  path.
* **Deterministic content.**  Event payloads carry semantic values
  (cycle counts, G-set ids, fault kinds, fingerprints) — never
  wall-clock numbers.  Wall-clock lives only in the reserved ``ts``
  field and the measured ``dur_s`` / ``compile_s`` duration fields
  (:data:`NONDETERMINISTIC_FIELDS`); stripping those must make a
  parallel run's ledger byte-identical to the sequential run's.
* **Cross-process propagation.**  A parent serializes
  :func:`worker_payload` into each ``ProcessPoolExecutor`` task; the
  worker opens :func:`worker_scope` (an in-memory buffer bound to the
  parent's run ID), returns its drained events with the result, and the
  parent :meth:`RunLog.absorb`\\ s them **in submission order** — the
  same merge discipline as :meth:`repro.obs.metrics.MetricsRegistry.
  merge_json`, and the reason event order is deterministic.
* **Crash-safe.**  Ledgers are buffered in memory and written once, at
  scope exit — including exceptional exit, where a terminal ``error``
  event and a ``run_end`` with ``ok=false`` are appended first.

See ``docs/observability.md`` ("Run ledger") for the event schema table.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

from .metrics import Counter, get_registry

__all__ = [
    "RUNLOG_SCHEMA_VERSION",
    "NONDETERMINISTIC_FIELDS",
    "RunLog",
    "run_scope",
    "task_scope",
    "record",
    "event_counter",
    "CounterRule",
    "EVENT_METRICS",
    "current_run",
    "current_run_id",
    "current_task",
    "worker_payload",
    "worker_scope",
    "runlog_enabled",
    "runlog_dir",
    "runlog_max_events",
    "DEFAULT_MAX_EVENTS",
    "make_run_id",
    "ledger_path",
    "read_ledger",
    "list_runs",
    "summarize",
    "verify_ledger",
    "strip_nondeterministic",
    "format_show",
    "format_diff",
]

#: Bump when an event's reserved fields change meaning; every event
#: carries it as ``v`` and ``repro obs verify`` rejects mismatches.
RUNLOG_SCHEMA_VERSION = 1

#: Default ledger directory (overridable via ``REPRO_RUNLOG_DIR``).
DEFAULT_DIR = "runs"

#: Wall-clock-valued fields: the *only* fields allowed to differ between
#: a sequential and a parallel run of the same workload.
NONDETERMINISTIC_FIELDS = frozenset({"ts", "dur_s", "compile_s"})

#: Reserved per-event envelope fields; payloads may not collide.
_RESERVED_FIELDS = frozenset({"v", "run", "seq", "ts", "event", "task"})

#: Default cap on the in-memory event buffer; override with
#: ``REPRO_RUNLOG_MAX_EVENTS``.  Long campaigns keep the first ``cap``
#: events plus one explicit ``events_dropped`` marker instead of growing
#: without bound.
DEFAULT_MAX_EVENTS = 100_000

#: Events that must land even in an overflowing buffer: the terminal
#: pair ``repro obs verify`` requires to close a ledger.
_TERMINAL_EVENTS = frozenset({"run_end", "error"})


def runlog_max_events() -> int:
    """The event-buffer cap (env ``REPRO_RUNLOG_MAX_EVENTS``, min 2)."""
    raw = os.environ.get("REPRO_RUNLOG_MAX_EVENTS", "").strip()
    try:
        cap = int(raw) if raw else DEFAULT_MAX_EVENTS
    except ValueError:
        return DEFAULT_MAX_EVENTS
    return max(cap, 2)


def runlog_enabled() -> bool:
    """Ledger emission switch: ``REPRO_RUNLOG=0`` turns it off."""
    return os.environ.get("REPRO_RUNLOG", "").strip().lower() not in (
        "0", "false", "no", "off",
    )


def runlog_dir(override: "str | Path | None" = None) -> Path:
    """The ledger directory: explicit override > env > ``./runs``."""
    if override is not None:
        return Path(override)
    return Path(os.environ.get("REPRO_RUNLOG_DIR") or DEFAULT_DIR)


def make_run_id(entry: str, params: "Mapping[str, Any] | None") -> str:
    """Deterministic run ID: entry point + digest of canonical params.

    Two runs of the same entry point with the same semantic parameters
    get the same ID (and overwrite the same ledger file — the latest
    run of a configuration wins).  Parallelism degree is deliberately
    *not* a parameter: ``--jobs 2`` must produce the sequential run's
    ledger.
    """
    canonical = json.dumps(
        dict(params or {}), sort_keys=True, default=repr
    )
    digest = hashlib.sha256(
        f"{entry}:{canonical}".encode()
    ).hexdigest()[:12]
    return f"{entry}-{digest}"


def ledger_path(run_id: str, dir: "str | Path | None" = None) -> Path:
    """Where a run's ledger lives: ``<runlog_dir>/<run_id>.jsonl``."""
    return runlog_dir(dir) / f"{run_id}.jsonl"


class RunLog:
    """One run's event buffer (written to disk at scope exit).

    Instances are created by :func:`run_scope` (parent, file-backed) and
    :func:`worker_scope` (worker, in-memory only); library code talks to
    the module-level :func:`record` / :func:`task_scope` and marks stages
    with :func:`repro.obs.tracing.stage_span` -- all no-ops unless a
    scope is open.
    """

    def __init__(
        self,
        run_id: str,
        entry: str,
        path: "Path | None" = None,
        task: "str | None" = None,
    ) -> None:
        self.run_id = run_id
        self.entry = entry
        self.path = path
        self.events: list[dict[str, Any]] = []
        self._seq = 0
        self._tasks: "list[str | None]" = [task]
        self._t0 = time.time()
        self.max_events = runlog_max_events()
        self.dropped = 0
        self._overflow: "dict[str, Any] | None" = None

    # -- emission -------------------------------------------------------

    @property
    def task(self) -> "str | None":
        """The innermost open task scope (``None`` at run level)."""
        return self._tasks[-1]

    def emit(self, event: str, **fields: Any) -> dict[str, Any]:
        """Append one typed event; returns the event dict.

        Once the buffer holds :attr:`max_events` events, further
        non-terminal events are counted rather than stored: a single
        ``events_dropped`` marker (its ``dropped`` count updated in
        place until the ledger is written) takes the next slot, keeping
        ``seq`` contiguous while bounding memory on long campaigns.
        Terminal events (``run_end``, ``error``) always land.
        """
        bad = _RESERVED_FIELDS & fields.keys()
        if bad:
            raise ValueError(
                f"event payload collides with reserved field(s) "
                f"{sorted(bad)}"
            )
        if (
            len(self.events) >= self.max_events
            and event not in _TERMINAL_EVENTS
        ):
            return self._note_drop()
        return self._append(event, fields)

    def _append(self, event: str, fields: Mapping[str, Any]) -> dict[str, Any]:
        ev: dict[str, Any] = {
            "v": RUNLOG_SCHEMA_VERSION,
            "run": self.run_id,
            "seq": self._seq,
            "ts": time.time(),
            "event": event,
            "task": self._tasks[-1],
        }
        ev.update(fields)
        self._seq += 1
        self.events.append(ev)
        return ev

    def _note_drop(self) -> dict[str, Any]:
        self.dropped += 1
        if self._overflow is None:
            self._overflow = self._append(
                "events_dropped", {"limit": self.max_events, "dropped": 0}
            )
        self._overflow["dropped"] = self.dropped
        return self._overflow

    @contextmanager
    def task_ctx(self, name: str) -> Iterator[None]:
        """Attribute events emitted inside to logical task ``name``."""
        self._tasks.append(name)
        try:
            yield
        finally:
            self._tasks.pop()

    @contextmanager
    def stage(self, name: str, **fields: Any) -> Iterator[dict[str, Any]]:
        """A ``stage_start`` / ``stage_end`` pair with measured duration.

        Entries the block puts into the yielded dict go on
        ``stage_end``; an escaping exception adds its type as ``error``.
        """
        self.emit("stage_start", stage=name, **fields)
        end: dict[str, Any] = {}
        t0 = time.perf_counter()
        try:
            yield end
        except BaseException as exc:
            end["error"] = type(exc).__name__
            raise
        finally:
            self.emit(
                "stage_end", stage=name,
                dur_s=round(time.perf_counter() - t0, 6), **end,
            )

    # -- cross-process merge --------------------------------------------

    def payload(self) -> dict[str, str]:
        """The picklable context a worker needs to join this run."""
        return {"run": self.run_id, "entry": self.entry}

    def absorb(self, events: "Sequence[Mapping[str, Any]]") -> None:
        """Fold one worker's drained events in, re-stamping ``seq``.

        Call once per worker **in submission order** (the discipline
        :meth:`~repro.obs.metrics.MetricsRegistry.merge_json` callers
        already follow) so the merged ledger's event order matches the
        sequential run's exactly.
        """
        for ev in events:
            if (
                len(self.events) >= self.max_events
                and ev.get("event") not in _TERMINAL_EVENTS
            ):
                self._note_drop()
                continue
            merged = dict(ev)
            merged["run"] = self.run_id
            merged["seq"] = self._seq
            self._seq += 1
            self.events.append(merged)

    # -- completion -----------------------------------------------------

    def close(self, ok: bool) -> None:
        """Append ``run_end``, write the ledger, publish run metrics."""
        self.emit("run_end", ok=bool(ok), n_events=len(self.events))
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("w") as fh:
                for ev in self.events:
                    fh.write(
                        json.dumps(ev, sort_keys=True, default=repr) + "\n"
                    )
        reg = get_registry()
        reg.counter(
            "repro_runs_total",
            "run-ledger runs by entry point and verdict",
        ).inc(entry=self.entry, ok=bool(ok))
        ev_counter = reg.counter(
            "repro_run_events_total",
            "run-ledger events by entry point and event type",
        )
        for name, count in summarize(self.events)["counts"].items():
            ev_counter.inc(count, entry=self.entry, event=name)
        if self.dropped:
            reg.counter(
                "repro_run_events_dropped_total",
                "run-ledger events dropped by the buffer cap",
            ).inc(self.dropped, entry=self.entry)


_ACTIVE: "RunLog | None" = None


def current_run() -> "RunLog | None":
    """The open run scope, or ``None`` when no ledger is recording."""
    return _ACTIVE


def current_run_id() -> "str | None":
    """The open run's ID (``None`` outside a run scope)."""
    return _ACTIVE.run_id if _ACTIVE is not None else None


def current_task() -> str:
    """The open task name, or ``""`` — safe as a metrics label value."""
    if _ACTIVE is None or _ACTIVE.task is None:
        return ""
    return _ACTIVE.task


@dataclass(frozen=True)
class CounterRule:
    """One :data:`EVENT_METRICS` row: how one event type feeds a counter.

    ``labels`` maps each label name to the event field it reads; the
    envelope field ``task`` reads the open task (``""`` at run level).
    ``amount`` names the field holding the increment (``None``: 1).
    The row counts the events whose ``outcome`` field equals
    ``outcome`` (``None``: events without one) and, if set, pass
    ``when``.
    """

    event: str
    metric: str
    help: str
    labels: Mapping[str, str] = field(default_factory=dict)
    amount: "str | None" = None
    outcome: "str | None" = None
    when: "Callable[[Mapping[str, Any]], bool] | None" = None


_EXPERIMENT = {"experiment": "task"}
_DESIGN = {"design": "design"}

#: The counters that are a view of the ledger: :func:`record` applies
#: every row of an event type as it writes the event, and no other
#: module updates these metrics (``tools/check_static.py`` enforces it).
#: Each metric has exactly one row, so one help text.
EVENT_METRICS: tuple[CounterRule, ...] = (
    CounterRule("plan_cache", "repro_plan_cache_hits_total",
                "Compiled-plan cache hits by experiment",
                _EXPERIMENT, outcome="hit"),
    CounterRule("plan_cache", "repro_plan_cache_misses_total",
                "Compiled-plan cache misses by experiment (each is one "
                "compile)", _EXPERIMENT, outcome="compile"),
    CounterRule("plan_cache", "repro_vector_compile_seconds_total",
                "Wall-clock seconds spent compiling plans",
                amount="compile_s", outcome="compile"),
    CounterRule("fallback", "repro_vector_fallback_total",
                "Vector-backend fast-path fallbacks by reason",
                {"reason": "reason"}),
    CounterRule("lint_cache", "repro_lint_cache_hits_total",
                "Planner-tier lint reports served from the fingerprint "
                "cache", outcome="hit"),
    CounterRule("lint_cache", "repro_lint_cache_misses_total",
                "Planner-tier lint runs that executed the passes",
                outcome="miss"),
    CounterRule("lint", "repro_lint_runs_total",
                "static design checker invocations"),
    CounterRule("fault_inject", "repro_fault_injected_total",
                "faults that actually fired, by kind",
                {"design": "design", "kind": "kind"}),
    CounterRule("fault_recover", "repro_fault_detected_total",
                "injected faults caught by a detector",
                _DESIGN, amount="detected"),
    CounterRule("fault_recover", "repro_fault_retries_total",
                "G-set attempt retries", _DESIGN, amount="retries"),
    CounterRule("fault_recover", "repro_fault_repartitions_total",
                "mid-run re-partitions", _DESIGN, amount="repartitions"),
    CounterRule("fault_recover", "repro_cell_quarantined_total",
                "cells quarantined as suspected-permanent by the strike "
                "ladder", _DESIGN, amount="quarantined",
                when=lambda ev: ev["quarantined"] > 0),
    CounterRule("fault_recover", "repro_fault_degraded_gsets_total",
                "G-sets retired to the host-side reference computation",
                _DESIGN, amount="degraded_gsets",
                when=lambda ev: ev["degraded_gsets"] > 0),
)

#: (event, outcome) -> its rows: one lookup per recorded event.
_RULES: dict[tuple[str, str | None], tuple[CounterRule, ...]] = {
    key: tuple(r for r in EVENT_METRICS if (r.event, r.outcome) == key)
    for key in {(r.event, r.outcome) for r in EVENT_METRICS}
}
_BY_METRIC = {rule.metric: rule for rule in EVENT_METRICS}


def record(event: str, *, metrics: bool = True, **fields: Any) -> None:
    """Write one fact once: the ledger event and its table counters.

    The event goes to the open run's ledger (no-op without one).  The
    :data:`EVENT_METRICS` rows for ``event`` update the registry either
    way, unless ``metrics`` is false (the callers' ``record_metrics``
    opt-out), so ``repro stats`` sees them with no ledger open.
    """
    if _ACTIVE is not None:
        _ACTIVE.emit(event, **fields)
    if not metrics:
        return
    for rule in _RULES.get((event, fields.get("outcome")), ()):
        if rule.when is not None and not rule.when(fields):
            continue
        labels: dict[str, Any] = {}
        for name, src in rule.labels.items():
            labels[name] = current_task() if src == "task" else fields[src]
        amount = 1 if rule.amount is None else fields[rule.amount]
        get_registry().counter(rule.metric, rule.help).inc(amount, **labels)


def event_counter(metric: str) -> Counter:
    """The registry counter of one :data:`EVENT_METRICS` row.

    Readers get the table metrics here (or with ``registry.get``), so a
    metric's help text is the table's whichever site touches it first.
    """
    return get_registry().counter(metric, _BY_METRIC[metric].help)


@contextmanager
def task_scope(name: str) -> Iterator[None]:
    """Attribute enclosed events to task ``name`` (no-op without a run)."""
    if _ACTIVE is None:
        yield
        return
    with _ACTIVE.task_ctx(name):
        yield


@contextmanager
def run_scope(
    entry: str,
    params: "Mapping[str, Any] | None" = None,
    dir: "str | Path | None" = None,
) -> "Iterator[RunLog | None]":
    """Open (or join) the run scope for one top-level entry point.

    Nested calls — e.g. :func:`~repro.resilience.campaign.run_campaign`
    under the ``faults`` CLI verb — join the already-open run instead of
    starting a second ledger.  With ``REPRO_RUNLOG=0`` the scope yields
    ``None`` and nothing is recorded.  On an escaping exception the
    ledger is still written, with a terminal ``error`` event and
    ``run_end`` ``ok=false`` — then the exception propagates.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        yield _ACTIVE
        return
    if not runlog_enabled():
        yield None
        return
    run_id = make_run_id(entry, params)
    rl = RunLog(run_id, entry, path=ledger_path(run_id, dir))
    rl.emit(
        "run_start", entry=entry,
        params={k: params[k] for k in sorted(params)} if params else {},
    )
    _ACTIVE = rl
    try:
        yield rl
    except BaseException as exc:
        _ACTIVE = None
        rl.emit("error", error=type(exc).__name__, message=str(exc))
        rl.close(ok=False)
        raise
    else:
        _ACTIVE = None
        rl.close(ok=True)


def worker_payload() -> "dict[str, str] | None":
    """The open run's picklable context for a worker-process task."""
    return _ACTIVE.payload() if _ACTIVE is not None else None


@contextmanager
def worker_scope(
    payload: "Mapping[str, str] | None", task: "str | None" = None
) -> "Iterator[RunLog | None]":
    """Join a parent's run from inside a worker process.

    Opens an in-memory (never file-backed) :class:`RunLog` bound to the
    parent's run ID; the worker returns ``rl.events`` with its result
    and the parent calls :meth:`RunLog.absorb`.  A ``None`` payload
    (ledger disabled in the parent) yields ``None`` and records nothing.

    A forked worker inherits the parent's ``_ACTIVE`` as a dead copy —
    it is saved and restored, never written to, so only the fresh
    buffer opened here records inside the scope.
    """
    global _ACTIVE
    if payload is None:
        yield None
        return
    rl = RunLog(
        payload["run"], payload["entry"], path=None, task=task
    )
    inherited = _ACTIVE
    _ACTIVE = rl
    try:
        yield rl
    finally:
        _ACTIVE = inherited


# ----------------------------------------------------------------------
# Queries: read / list / verify / show / diff
# ----------------------------------------------------------------------

def read_ledger(
    path: "str | Path",
) -> tuple[list[dict[str, Any]], list[str]]:
    """Parse one ledger file: ``(events, problems)``.

    Parse failures are *findings*, not exceptions — ``repro obs
    verify`` reports them; a missing file raises :class:`OSError`.
    """
    events: list[dict[str, Any]] = []
    problems: list[str] = []
    for lineno, line in enumerate(
        Path(path).read_text().splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            ev = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"line {lineno}: invalid JSON ({exc.msg})")
            continue
        if not isinstance(ev, dict):
            problems.append(f"line {lineno}: not an event object")
            continue
        events.append(ev)
    return events, problems


def list_runs(dir: "str | Path | None" = None) -> list[dict[str, Any]]:
    """Summaries of every ledger in the directory, newest first."""
    d = runlog_dir(dir)
    if not d.is_dir():
        return []
    summaries = []
    for p in sorted(d.glob("*.jsonl")):
        events, problems = read_ledger(p)
        s = summarize(events)
        s["path"] = str(p)
        s["problems"] = len(problems)
        summaries.append(s)
    summaries.sort(key=lambda s: (-(s["started"] or 0.0), s["run"] or ""))
    return summaries


def summarize(events: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    """Run-level facts of one ledger (header of ``show`` / ``list``)."""
    if not events:
        return {
            "run": None, "entry": None, "started": None,
            "duration_s": None, "ok": None, "events": 0,
            "tasks": [], "counts": {},
        }
    first, last = events[0], events[-1]
    counts: dict[str, int] = {}
    tasks: list[str] = []
    for ev in events:
        name = str(ev.get("event"))
        counts[name] = counts.get(name, 0) + 1
        task = ev.get("task")
        if task is not None and task not in tasks:
            tasks.append(task)
    started = first.get("ts")
    ended = last.get("ts")
    return {
        "run": first.get("run"),
        "entry": first.get("entry") or str(first.get("run", "")).rsplit(
            "-", 1
        )[0],
        "started": started,
        "duration_s": (
            round(ended - started, 6)
            if isinstance(started, (int, float))
            and isinstance(ended, (int, float)) else None
        ),
        "ok": last.get("ok") if last.get("event") == "run_end" else None,
        "events": len(events),
        "tasks": tasks,
        "counts": dict(sorted(counts.items())),
    }


def verify_ledger(
    events: Sequence[Mapping[str, Any]],
    problems: Sequence[str] = (),
    run_id: "str | None" = None,
) -> list[str]:
    """Integrity findings for one ledger (empty list == clean).

    Checks: schema version; one ``run_start`` first and one ``run_end``
    last (no orphan events outside the run, none from an unknown run
    ID); contiguous ``seq``; per-task-stream monotonic timestamps
    (worker streams interleave on the wall clock, so *global*
    monotonicity is deliberately not required); balanced, properly
    nested ``stage_start`` / ``stage_end`` pairs per task stream.
    """
    findings = list(problems)
    if not events:
        findings.append("empty ledger (no events)")
        return findings
    expect_run = run_id or events[0].get("run")
    starts = [i for i, ev in enumerate(events) if ev.get("event") == "run_start"]
    ends = [i for i, ev in enumerate(events) if ev.get("event") == "run_end"]
    if starts != [0]:
        findings.append(
            f"expected exactly one run_start as the first event, "
            f"found at positions {starts}"
        )
    if ends != [len(events) - 1]:
        findings.append(
            f"expected exactly one run_end as the last event, "
            f"found at positions {ends}"
        )
    last_ts: dict[Any, float] = {}
    stacks: dict[Any, list[str]] = {}
    for i, ev in enumerate(events):
        if ev.get("v") != RUNLOG_SCHEMA_VERSION:
            findings.append(
                f"seq {i}: schema version {ev.get('v')!r} != "
                f"{RUNLOG_SCHEMA_VERSION}"
            )
        if ev.get("run") != expect_run:
            findings.append(
                f"seq {i}: orphan event from run {ev.get('run')!r} "
                f"(expected {expect_run!r})"
            )
        if ev.get("seq") != i:
            findings.append(
                f"position {i}: non-contiguous seq {ev.get('seq')!r}"
            )
        task = ev.get("task")
        ts = ev.get("ts")
        if isinstance(ts, (int, float)):
            prev = last_ts.get(task)
            if prev is not None and ts < prev - 1e-6:
                findings.append(
                    f"seq {i}: timestamp regression in task "
                    f"{task!r} ({ts} < {prev})"
                )
            last_ts[task] = max(prev or ts, ts)
        name = ev.get("event")
        if name == "stage_start":
            stacks.setdefault(task, []).append(str(ev.get("stage")))
        elif name == "stage_end":
            stack = stacks.setdefault(task, [])
            if not stack or stack[-1] != str(ev.get("stage")):
                findings.append(
                    f"seq {i}: stage_end {ev.get('stage')!r} without "
                    f"matching stage_start in task {task!r}"
                )
            else:
                stack.pop()
    for task, stack in sorted(stacks.items(), key=repr):
        for stage in stack:
            findings.append(
                f"unclosed stage {stage!r} in task {task!r}"
            )
    return findings


def strip_nondeterministic(
    events: Sequence[Mapping[str, Any]],
) -> list[dict[str, Any]]:
    """Events minus wall-clock fields — the cross-run comparison form."""
    return [
        {
            k: v for k, v in ev.items()
            if k not in NONDETERMINISTIC_FIELDS
        }
        for ev in events
    ]


def _fmt_fields(ev: Mapping[str, Any]) -> str:
    parts = []
    for k in sorted(ev):
        if k in _RESERVED_FIELDS:
            continue
        v = ev[k]
        if isinstance(v, float):
            parts.append(f"{k}={v:.6g}")
        elif isinstance(v, str):
            parts.append(f"{k}={v}")
        else:
            parts.append(f"{k}={json.dumps(v, sort_keys=True, default=repr)}")
    return " ".join(parts)


def format_show(events: Sequence[Mapping[str, Any]]) -> str:
    """The ``repro obs show`` rendering: header, timeline, stage totals."""
    s = summarize(events)
    lines = [
        f"run {s['run']} (entry {s['entry']}): {s['events']} event(s), "
        f"{len(s['tasks'])} task(s), ok={s['ok']}",
    ]
    if isinstance(s["started"], (int, float)):
        stamp = time.strftime(
            "%Y-%m-%dT%H:%M:%S", time.gmtime(s["started"])
        )
        lines.append(
            f"started {stamp}Z, duration {s['duration_s']:.3f}s"
        )
    lines.append("")
    t0 = events[0].get("ts") if events else 0.0
    lines.append(f"{'seq':>5} {'+t(s)':>9}  {'task':<26} event")
    for ev in events:
        ts = ev.get("ts")
        dt = (
            f"{ts - t0:9.3f}"
            if isinstance(ts, (int, float)) and isinstance(t0, (int, float))
            else f"{'?':>9}"
        )
        task = ev.get("task") or "-"
        detail = _fmt_fields(ev)
        lines.append(
            f"{ev.get('seq', '?'):>5} {dt}  {task:<26} "
            f"{ev.get('event')}" + (f" {detail}" if detail else "")
        )
    totals = _stage_totals(events)
    if totals:
        lines.append("")
        lines.append("per-stage durations:")
        for stage, (count, total) in sorted(totals.items()):
            lines.append(
                f"  {stage:<26} {count:>4} stage(s)  {total:9.3f}s total"
            )
    return "\n".join(lines)


def _stage_totals(
    events: Sequence[Mapping[str, Any]],
) -> dict[str, tuple[int, float]]:
    totals: dict[str, tuple[int, float]] = {}
    for ev in events:
        if ev.get("event") != "stage_end":
            continue
        stage = str(ev.get("stage"))
        dur = ev.get("dur_s")
        count, total = totals.get(stage, (0, 0.0))
        totals[stage] = (
            count + 1,
            total + (dur if isinstance(dur, (int, float)) else 0.0),
        )
    return totals


def format_diff(
    a_events: Sequence[Mapping[str, Any]],
    b_events: Sequence[Mapping[str, Any]],
    a_name: str,
    b_name: str,
) -> tuple[str, bool]:
    """The ``repro obs diff`` rendering: ``(text, content_identical)``.

    Compares event counts by type, per-stage duration totals, and the
    timestamp-stripped event streams (the determinism contract).
    """
    lines = [f"diff {a_name} vs {b_name}"]
    a_sum, b_sum = summarize(a_events), summarize(b_events)
    lines.append(
        f"  events: {a_sum['events']} vs {b_sum['events']}; "
        f"tasks: {len(a_sum['tasks'])} vs {len(b_sum['tasks'])}; "
        f"ok: {a_sum['ok']} vs {b_sum['ok']}"
    )
    kinds = sorted(set(a_sum["counts"]) | set(b_sum["counts"]))
    for kind in kinds:
        ca = a_sum["counts"].get(kind, 0)
        cb = b_sum["counts"].get(kind, 0)
        marker = "" if ca == cb else "   <- differs"
        lines.append(f"  {kind:<18} {ca:>6} vs {cb:<6}{marker}")
    a_tot, b_tot = _stage_totals(a_events), _stage_totals(b_events)
    stages = sorted(set(a_tot) | set(b_tot))
    if stages:
        lines.append("  stage durations (total s):")
        for stage in stages:
            ta = a_tot.get(stage, (0, 0.0))[1]
            tb = b_tot.get(stage, (0, 0.0))[1]
            lines.append(
                f"    {stage:<26} {ta:9.3f} vs {tb:9.3f} "
                f"({tb - ta:+.3f})"
            )
    a_stripped = strip_nondeterministic(a_events)
    b_stripped = strip_nondeterministic(b_events)
    # The run ID differs whenever the parameters differ; exclude it from
    # the content comparison so diffing two *configurations* reports on
    # their behaviour, not their identity.
    for ev in a_stripped:
        ev.pop("run", None)
    for ev in b_stripped:
        ev.pop("run", None)
    identical = a_stripped == b_stripped
    if identical:
        lines.append("  content: identical modulo timestamps")
    else:
        where = len(a_stripped)
        for i, (ea, eb) in enumerate(zip(a_stripped, b_stripped)):
            if ea != eb:
                where = i
                break
        lines.append(
            f"  content: differs from seq {where} onward "
            f"(modulo timestamps)"
        )
    return "\n".join(lines), identical
