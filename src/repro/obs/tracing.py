"""Stage spans and the Chrome ``trace_event`` exporter.

:func:`stage_span` is the one way to mark a stage, and each span goes to
every installed sink:

* the installed :class:`Tracer` (:func:`install_tracer`) records it as a
  named, tagged interval on the monotonic clock and exports Chrome
  ``trace_event`` JSON (``X`` events on wall-clock process 1, plus raw
  events the simulator probes add on their own process), so ``python -m
  repro trace --trace-out t.json`` opens in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``;
* the open run ledger (:mod:`repro.obs.runlog`) records it as a
  ``stage_start`` / ``stage_end`` pair, from which
  :func:`repro.obs.profile.profile_from_runlog` builds phase trees.

With neither sink installed a span is a no-op, so library users pay
nothing unless they ask for a trace or a ledger.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterator

from . import runlog as _runlog

__all__ = [
    "Span",
    "Tracer",
    "stage_span",
    "install_tracer",
    "uninstall_tracer",
    "get_tracer",
    "traced_run",
    "WALL_PID",
    "SIM_PID",
]

#: Chrome-trace process ids: wall-clock pipeline spans vs. simulated cycles.
WALL_PID = 1
SIM_PID = 2


def _jsonable(v: Any) -> Any:
    if isinstance(v, Fraction):
        return float(v)
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    return repr(v)


@dataclass
class Span:
    """One named, tagged interval (times in nanoseconds, monotonic)."""

    name: str
    start_ns: int
    end_ns: int | None = None
    args: dict[str, Any] = field(default_factory=dict)
    tid: int = 1

    def tag(self, key: str, value: Any) -> "Span":
        """Attach one key/value pair; chainable."""
        self.args[key] = _jsonable(value)
        return self

    @property
    def duration_ns(self) -> int:
        if self.end_ns is None:
            raise ValueError(f"span {self.name!r} not yet closed")
        return self.end_ns - self.start_ns

    @property
    def duration_s(self) -> float:
        return self.duration_ns / 1e9


def _new_span(name: str, start_ns: int, args: dict[str, Any]) -> Span:
    s = Span(name=name, start_ns=start_ns)
    for k, v in args.items():
        s.tag(k, v)
    return s


class _NullSpan:
    """Singleton stand-in yielded when no sink is installed."""

    __slots__ = ()

    def tag(self, key: str, value: Any) -> "_NullSpan":  # noqa: D102
        return self

    @property
    def args(self) -> dict:  # noqa: D102
        return {}


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans and raw Chrome events; exports trace JSON."""

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self._clock = clock
        self.t0_ns: int = clock()
        self.spans: list[Span] = []
        #: raw Chrome trace events (probes append simulator-time events)
        self.extra_events: list[dict] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[Span]:
        """Open a span; the yielded object accepts ``.tag(k, v)``."""
        s = _new_span(name, self._clock(), args)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end_ns = self._clock()
            self._stack.pop()
            self.spans.append(s)

    def instant(self, name: str, **args: Any) -> None:
        """Record a zero-duration marker event."""
        s = _new_span(name, self._clock(), args)
        self.extra_events.append(
            {
                "name": name,
                "ph": "i",
                "ts": (s.start_ns - self.t0_ns) / 1e3,
                "pid": WALL_PID,
                "tid": 1,
                "s": "t",
                "args": s.args,
            }
        )

    def terminal_error(self, exc: BaseException) -> None:
        """Record a run-ending exception as a terminal instant event.

        Open spans are closed by their context managers during unwind,
        so a trace that ends with this marker is still a valid Chrome
        trace — Perfetto shows every stage up to the failure plus the
        ``trace.error`` instant naming the exception.
        """
        self.instant(
            "trace.error",
            error=type(exc).__name__,
            message=str(exc),
        )

    def add_chrome_event(self, event: dict) -> None:
        """Append a pre-built Chrome trace event (probes use this)."""
        self.extra_events.append(event)

    def add_chrome_events(self, events: list[dict]) -> None:
        for e in events:
            self.add_chrome_event(e)

    def find_spans(self, name: str) -> list[Span]:
        """All closed spans with the given name."""
        return [s for s in self.spans if s.name == name]

    # -- export ---------------------------------------------------------

    def to_chrome(self) -> dict:
        """The whole trace as a Chrome ``trace_event`` JSON object.

        Wall-clock spans become ``X`` (complete) events on process
        :data:`WALL_PID`; timestamps are microseconds since the tracer was
        created, as the format requires.  Probe-contributed events (on
        :data:`SIM_PID`, where 1 "microsecond" = 1 simulated cycle) are
        appended verbatim.
        """
        events: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": WALL_PID,
                "tid": 0,
                "args": {"name": "pipeline (wall clock)"},
            },
            {
                "name": "process_name",
                "ph": "M",
                "pid": SIM_PID,
                "tid": 0,
                "args": {"name": "simulator (1 us = 1 cycle)"},
            },
        ]
        for s in self.spans:
            events.append(
                {
                    "name": s.name,
                    "ph": "X",
                    "ts": (s.start_ns - self.t0_ns) / 1e3,
                    "dur": (s.duration_ns) / 1e3,
                    "pid": WALL_PID,
                    "tid": s.tid,
                    "cat": s.name.split(".", 1)[0],
                    "args": s.args,
                }
            )
        events.extend(self.extra_events)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path) -> int:
        """Write the Chrome trace JSON to ``path``; returns event count.

        Parent directories are created as needed, so ``--trace-out
        runs/today/t.json`` works without a prior ``mkdir``.
        """
        doc = self.to_chrome()
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        with p.open("w") as fh:
            json.dump(doc, fh)
        return len(doc["traceEvents"])


_TRACER: Tracer | None = None


def get_tracer() -> Tracer | None:
    """The installed tracer, or None when tracing is off."""
    return _TRACER


def install_tracer(tracer: Tracer | None = None) -> Tracer:
    """Install (and return) the process-wide tracer; tracing turns on."""
    global _TRACER
    _TRACER = tracer if tracer is not None else Tracer()
    return _TRACER


def uninstall_tracer() -> Tracer | None:
    """Turn tracing off; returns the tracer that was installed."""
    global _TRACER
    prev = _TRACER
    _TRACER = None
    return prev


@contextmanager
def traced_run(trace_path: "str | Path | None" = None) -> Iterator[Tracer]:
    """Install a tracer for one run, crash-safe.

    On normal exit the tracer is uninstalled and handed back untouched —
    the caller decides what to export (and may append probe events
    first).  On an escaping exception, a terminal ``trace.error``
    instant is recorded and — when ``trace_path`` is given — the valid
    partial Chrome trace is flushed to it before the exception
    propagates, so a crashed traced run never loses its trace file.
    """
    tracer = install_tracer()
    try:
        yield tracer
    except BaseException as exc:
        tracer.terminal_error(exc)
        if trace_path is not None:
            tracer.write_chrome(trace_path)
        raise
    finally:
        uninstall_tracer()


@contextmanager
def stage_span(name: str, **args: Any) -> Iterator[Span | _NullSpan]:
    """Mark one stage for the installed tracer and the open run ledger.

    The tracer records a span; the ledger records a ``stage_start``
    (carrying ``args``) and a ``stage_end`` (carrying the measured
    ``dur_s`` and every tag set inside the block).  With neither sink
    installed this yields :data:`NULL_SPAN` and records nothing::

        with stage_span("transform.prune", graph=dg.name) as sp:
            ...
            sp.tag("nodes_out", len(out))
    """
    tracer = _TRACER
    run = _runlog.current_run()
    if tracer is None and run is None:
        yield NULL_SPAN
        return
    with (
        tracer.span(name, **args) if tracer is not None
        else nullcontext(_new_span(name, 0, args))
    ) as span:
        if run is None:
            yield span
            return
        start = dict(span.args)
        with run.stage(name, **start) as end:
            try:
                yield span
            finally:
                end.update(
                    (k, v) for k, v in span.args.items()
                    if k not in start or start[k] != v
                )
