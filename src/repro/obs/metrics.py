"""Metrics registry: counters, gauges, histograms, and text exporters.

The registry is the aggregate side of the observability layer
(:mod:`repro.obs`): code records named, optionally labelled values, and
the registry renders them either as Prometheus text-exposition format
(for eyeballing / scraping) or as a plain JSON-able dict (for the
benchmark harness's machine-readable ``benchmarks/out/<exp_id>.json``
artefacts).

Design notes
------------
* Metric instances are created lazily via :meth:`MetricsRegistry.counter`
  / ``gauge`` / ``histogram`` — asking twice for the same name returns
  the same instance (and raises if the second ask wants a different
  type, catching instrumentation bugs early).
* Values may be ``int``, ``float`` or :class:`fractions.Fraction` — the
  simulator's exact measures are Fractions and should stay exact until
  export, where they are rendered as floats.
* Labels are keyword arguments; a metric's series are keyed by the
  sorted ``(key, value)`` tuple so label order never matters.
* Label names are validated at call time (Prometheus grammar; ``__*``,
  ``le`` and ``quantile`` are reserved) and values must be scalars —
  a clear ``ValueError``/``TypeError`` beats silently exporting invalid
  text; values are backslash-escaped at export.
"""

from __future__ import annotations

import json
import re
import threading
from fractions import Fraction
from typing import Any, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
]

LabelKey = tuple[tuple[str, str], ...]

#: Prometheus label-name grammar; ``__``-prefixed names (``__name__``)
#: are reserved for internal use, ``le``/``quantile`` for histogram and
#: summary buckets.
_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")
_RESERVED_LABELS = frozenset({"le", "quantile"})

#: Label values must be scalars that stringify deterministically; an
#: arbitrary object's ``str()`` can contain anything (quotes, newlines)
#: and silently corrupt the text exposition format.
_SCALAR_LABEL_TYPES = (str, bool, int, float, Fraction)


#: Label names already validated (the check runs once per name).
_VALID_LABEL_NAMES: set[str] = set()


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    items = []
    for k, v in labels.items():
        if k not in _VALID_LABEL_NAMES:
            if (
                not _LABEL_NAME_RE.match(k)
                or k.startswith("__")
                or k in _RESERVED_LABELS
            ):
                raise ValueError(
                    f"invalid or reserved label name {k!r}: labels must "
                    f"match [a-zA-Z_][a-zA-Z0-9_]* and must not start "
                    f"with '__' or be one of {sorted(_RESERVED_LABELS)}"
                )
            _VALID_LABEL_NAMES.add(k)
        if not isinstance(v, _SCALAR_LABEL_TYPES):
            raise TypeError(
                f"label {k}={v!r}: values must be str, bool, int, float "
                f"or Fraction (got {type(v).__name__})"
            )
        items.append((k, str(v)))
    return tuple(sorted(items))


def _escape_label_value(v: str) -> str:
    return v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_value(v: Any) -> float | int:
    if isinstance(v, Fraction):
        return float(v)
    return v


def _render_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in key)
    return "{" + inner + "}"


class _Metric:
    """Shared plumbing for the three metric types."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._series: dict[LabelKey, Any] = {}
        self._lock = threading.Lock()

    def _prom_header(self) -> list[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


class _Scalar(_Metric):
    """Counter/gauge plumbing: one number per label set."""

    def inc(self, amount: int | float | Fraction = 1, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels: Any) -> int | float | Fraction:
        return self._series.get(_label_key(labels), 0)

    def to_prometheus(self) -> list[str]:
        lines = self._prom_header()
        for key, v in sorted(self._series.items()):
            lines.append(f"{self.name}{_render_labels(key)} {_render_value(v)}")
        return lines

    def to_json(self) -> dict:
        return {
            "type": self.kind,
            "help": self.help,
            "series": [
                {"labels": dict(key), "value": _render_value(v)}
                for key, v in sorted(self._series.items())
            ],
        }


class Counter(_Scalar):
    """A monotonically increasing count (events, words, violations)."""

    kind = "counter"

    def inc(self, amount: int | float | Fraction = 1, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount


class Gauge(_Scalar):
    """A value that can go anywhere (utilization, makespan, bandwidth)."""

    kind = "gauge"

    def set(self, value: int | float | Fraction, **labels: Any) -> None:
        with self._lock:
            self._series[_label_key(labels)] = value


#: Default histogram buckets: span sub-microsecond Python calls up to
#: multi-second pipeline stages (seconds).
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Histogram(_Metric):
    """Bucketed distribution (stage durations, per-set I/O burst sizes)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError(f"histogram {name} needs at least one bucket")

    def observe(self, value: int | float | Fraction, **labels: Any) -> None:
        key = _label_key(labels)
        v = float(value)
        with self._lock:
            state = self._state(key)
            for i, le in enumerate(self.buckets):
                if v <= le:
                    state["counts"][i] += 1
            state["sum"] += v
            state["count"] += 1

    def _state(self, key: LabelKey) -> dict:
        state = self._series.get(key)
        if state is None:
            state = {"counts": [0] * len(self.buckets), "sum": 0.0, "count": 0}
            self._series[key] = state
        return state

    def count(self, **labels: Any) -> int:
        state = self._series.get(_label_key(labels))
        return 0 if state is None else state["count"]

    def sum(self, **labels: Any) -> float:
        state = self._series.get(_label_key(labels))
        return 0.0 if state is None else state["sum"]

    def quantile(self, q: float, **labels: Any) -> float | None:
        """Estimate the q-quantile (0..1) by linear bucket interpolation.

        Standard Prometheus ``histogram_quantile`` semantics: the rank
        ``q * count`` is located in the cumulative bucket counts and the
        value interpolated within the bucket's ``(lower, le]`` range
        (lower bound 0 for the first bucket — observations here are
        non-negative durations/sizes).  Ranks falling beyond the last
        finite bucket clamp to its upper bound.  Returns ``None`` for an
        empty or unknown series.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        state = self._series.get(_label_key(labels))
        if state is None or not state["count"]:
            return None
        rank = q * state["count"]
        prev_count = 0
        for i, (le, cum) in enumerate(zip(self.buckets, state["counts"])):
            if cum >= rank:
                lower = self.buckets[i - 1] if i else 0.0
                within = cum - prev_count
                if within <= 0:
                    return le
                frac = (rank - prev_count) / within
                return lower + (le - lower) * frac
            prev_count = cum
        return self.buckets[-1]

    def to_prometheus(self) -> list[str]:
        lines = self._prom_header()
        for key, state in sorted(self._series.items()):
            for le, c in zip(self.buckets, state["counts"]):
                bkey = key + (("le", repr(le)),)
                lines.append(f"{self.name}_bucket{_render_labels(bkey)} {c}")
            ikey = key + (("le", "+Inf"),)
            lines.append(f"{self.name}_bucket{_render_labels(ikey)} {state['count']}")
            lines.append(f"{self.name}_sum{_render_labels(key)} {state['sum']}")
            lines.append(f"{self.name}_count{_render_labels(key)} {state['count']}")
        return lines

    def to_json(self) -> dict:
        return {
            "type": self.kind,
            "help": self.help,
            "buckets": list(self.buckets),
            "series": [
                {
                    "labels": dict(key),
                    "counts": list(state["counts"]),
                    "sum": state["sum"],
                    "count": state["count"],
                }
                for key, state in sorted(self._series.items())
            ],
        }


class MetricsRegistry:
    """A named collection of metrics with lazy get-or-create accessors."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> Any:
        m = self._metrics.get(name)
        if m is None:
            with self._lock:
                m = self._metrics.setdefault(name, cls(name, help, **kwargs))
        if not isinstance(m, cls):
            raise TypeError(
                f"metric {name!r} already registered as {m.kind}, "
                f"not {cls.kind}"
            )
        return m

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self._metrics.values())

    def get(self, name: str) -> _Metric | None:
        return self._metrics.get(name)

    def reset(self) -> None:
        """Drop every metric (tests, or per-run registries)."""
        with self._lock:
            self._metrics.clear()

    def to_prometheus(self) -> str:
        """Prometheus text-exposition rendering of every metric."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            lines.extend(self._metrics[name].to_prometheus())
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> dict:
        """Plain-dict snapshot (json.dumps-able as is)."""
        return {name: m.to_json() for name, m in sorted(self._metrics.items())}

    def merge_json(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a :meth:`to_json` snapshot into this registry.

        The parallel runners (``run_campaign(jobs=...)``, ``repro
        bench --jobs``) give each worker process a fresh registry and
        ship its snapshot back; the parent merges them here so the
        process-wide registry sees the same series a sequential run
        would.  Counters add, gauges take the incoming value (last
        writer wins, matching sequential ``set`` semantics), histograms
        add their bucket counts and sums.  Label values arrive already
        stringified (that is how ``to_json`` renders them).
        """
        for name, doc in snapshot.items():
            mtype = doc.get("type")
            if mtype == "counter":
                c = self.counter(name, doc.get("help", ""))
                for s in doc["series"]:
                    # inc(0) still materialises the series, matching the
                    # zero-valued series a sequential run records.
                    c.inc(s["value"], **s["labels"])
            elif mtype == "gauge":
                g = self.gauge(name, doc.get("help", ""))
                for s in doc["series"]:
                    g.set(s["value"], **s["labels"])
            elif mtype == "histogram":
                buckets = tuple(doc["buckets"])
                h = self.histogram(name, doc.get("help", ""), buckets=buckets)
                if h.buckets != tuple(sorted(buckets)):
                    raise ValueError(
                        f"histogram {name!r}: bucket mismatch on merge"
                    )
                for s in doc["series"]:
                    with h._lock:
                        state = h._state(_label_key(s["labels"]))
                        for i, c_in in enumerate(s["counts"]):
                            state["counts"][i] += c_in
                        state["sum"] += s["sum"]
                        state["count"] += s["count"]
            else:
                raise ValueError(
                    f"cannot merge metric {name!r} of type {mtype!r}"
                )

    def dump_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json(), indent=indent, sort_keys=True)


_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _GLOBAL


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (returns the previous one)."""
    global _GLOBAL
    prev = _GLOBAL
    _GLOBAL = registry
    return prev
