"""Benchmark history store and the deterministic-measure regression gate.

The registry/probe layer (:mod:`repro.obs.metrics`, :mod:`repro.obs.probe`)
measures one run; this module makes those measurements *persist* and
*compare*:

* **history store** — every ``repro reproduce --record`` run appends one
  JSON line per experiment to ``benchmarks/out/history.jsonl`` (a :func:`make_record` dict keyed by
  experiment id, git commit, and problem size), and the latest runs are
  rolled up into a repo-root ``BENCH_PERF.json`` trajectory file so the
  perf history travels with the repository;
* **regression gate** — :func:`compare` diffs two sets of records on
  the paper's closed-form measures only (simulated cycles, memory
  traffic, host bandwidth; Sec. 4.2, Fig. 21), which are deterministic
  for a given design and so budgeted ~0.  Every other metric — wall
  clock above all — is stored but never gated; timing verdicts belong
  to the end-to-end benchmark (``benchmarks/e2e/run.py compare``).
  ``python -m repro perfcheck`` wraps :func:`compare` with a non-zero
  exit code for CI gating.

Everything here is stdlib-only and file-format-first: records are plain
dicts, stores are JSONL/JSON files, and loaders sniff the three shapes
(single record, record list / JSONL, trajectory roll-up) so the CLI can
point at any artefact ``repro reproduce --record`` produces.
"""

from __future__ import annotations

import json
import subprocess
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_THRESHOLDS",
    "METRIC_CLASSES",
    "PerfHistoryWarning",
    "Regression",
    "classify_metric",
    "current_commit",
    "make_record",
    "append_history",
    "load_history",
    "load_records",
    "latest_by_exp",
    "rollup",
    "write_trajectory",
    "make_baseline",
    "compare",
    "find_new_metrics",
    "format_report",
]


class PerfHistoryWarning(UserWarning):
    """A perf artefact contained lines/records that had to be skipped."""

#: Schema version stamped into every JSON artefact this subsystem writes
#: (history records, ``BENCH_PERF.json``, baselines, ``<exp_id>.json``).
SCHEMA_VERSION = 1

#: How many runs per experiment the ``BENCH_PERF.json`` roll-up keeps.
TRAJECTORY_KEEP = 50

#: Gated metric classes, in reporting order.  Each is one of the
#: paper's closed-form measures, exact for a given design; every metric
#: is classified by name into one of them or left ungated.
METRIC_CLASSES = ("sim_cycles", "memory_traffic", "host_bandwidth")

#: Relative regression thresholds per metric class: ``current`` regresses
#: when ``current > baseline * (1 + threshold)``.
DEFAULT_THRESHOLDS: dict[str, float] = {
    "sim_cycles": 0.001,
    "memory_traffic": 0.001,
    "host_bandwidth": 0.01,
}

_CLASS_PATTERNS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("sim_cycles", ("cycle", "makespan", "total_time", "stall")),
    ("memory_traffic", ("memory", "words", "reads", "traffic", "r_memory")),
    ("host_bandwidth", ("bandwidth", "d_io", "hostbw", "_io", "io_")),
)


def classify_metric(name: str) -> str | None:
    """The gated class of a metric name by substring, or ``None``.

    A name in seconds (``_s``/``_ms`` suffix) is a wall-clock reading
    and stays ungated whatever else it contains.
    """
    low = name.lower()
    if low.endswith(("_s", "_ms")):
        return None
    for cls, needles in _CLASS_PATTERNS:
        if any(n in low for n in needles):
            return cls
    return None


def current_commit(repo_dir: str | Path | None = None) -> str | None:
    """Short git commit id of ``repo_dir`` (or CWD); ``None`` off-repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(repo_dir) if repo_dir else None,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def make_record(
    exp_id: str,
    metrics: Mapping[str, float],
    *,
    title: str = "",
    n: int | None = None,
    m: int | None = None,
    commit: str | None = None,
    ts: float | None = None,
    run_id: str | None = None,
) -> dict:
    """One history record: experiment key + flat ``{metric: value}`` dict.

    ``run_id`` links the record to its run ledger (see
    :mod:`repro.obs.runlog`) so a perf regression can be traced back to
    the exact run — ``repro obs show <run-id>`` — that produced it.
    """
    return {
        "version": SCHEMA_VERSION,
        "exp_id": exp_id,
        "title": title,
        "ts": time.time() if ts is None else ts,
        "commit": commit,
        "run_id": run_id,
        "n": n,
        "m": m,
        "metrics": {k: _as_number(v) for k, v in metrics.items()},
    }


def _as_number(v: Any) -> float | int:
    if isinstance(v, bool):
        return int(v)
    if isinstance(v, (int, float)):
        return v
    return float(v)  # Fractions, Decimals, numpy scalars


# ----------------------------------------------------------------------
# Stores: history JSONL + trajectory roll-up
# ----------------------------------------------------------------------

def append_history(path: str | Path, record: Mapping) -> None:
    """Append one record to the JSONL history file (created on demand)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True, default=repr) + "\n")


def load_history(
    path: str | Path, skipped: list[tuple[int, str]] | None = None
) -> list[dict]:
    """Read a JSONL history file; missing file -> empty history.

    A history file is append-only and written by many harness runs, so a
    killed run can leave a truncated final line and a bad merge can leave
    garbage mid-file.  Corrupt lines (invalid JSON, or JSON that is not
    an object) are *skipped*, each with a :class:`PerfHistoryWarning`
    naming the file and line; pass a ``skipped`` list to collect
    ``(lineno, reason)`` pairs — ``perfcheck`` counts them in its report.
    """
    path = Path(path)
    if not path.exists():
        return []
    records = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            reason = f"invalid JSON ({exc.msg})"
            rec = None
        else:
            reason = "" if isinstance(rec, dict) else "not a record object"
        if rec is None or reason:
            warnings.warn(
                f"{path}:{lineno}: skipping corrupt history line: {reason}",
                PerfHistoryWarning,
                stacklevel=2,
            )
            if skipped is not None:
                skipped.append((lineno, reason))
            continue
        records.append(rec)
    return records


def latest_by_exp(records: Iterable[Mapping]) -> dict[str, dict]:
    """Last record per experiment id (records assumed chronological).

    Records without an ``exp_id`` (hand-edited or foreign artefacts)
    cannot be keyed, so they are skipped with a warning rather than
    aborting the whole comparison.
    """
    latest: dict[str, dict] = {}
    for rec in records:
        exp_id = rec.get("exp_id")
        if not exp_id:
            warnings.warn(
                "skipping perf record without exp_id",
                PerfHistoryWarning,
                stacklevel=2,
            )
            continue
        latest[exp_id] = dict(rec)
    return latest


def rollup(records: Sequence[Mapping], keep: int = TRAJECTORY_KEEP) -> dict:
    """The ``BENCH_PERF.json`` trajectory: last ``keep`` runs per exp."""
    by_exp: dict[str, list[dict]] = {}
    for rec in records:
        if not rec.get("exp_id"):
            continue  # unkeyable record; latest_by_exp already warned
        by_exp.setdefault(rec["exp_id"], []).append(
            {
                "ts": rec.get("ts"),
                "commit": rec.get("commit"),
                "run_id": rec.get("run_id"),
                "n": rec.get("n"),
                "m": rec.get("m"),
                "metrics": dict(rec.get("metrics", {})),
            }
        )
    return {
        "version": SCHEMA_VERSION,
        "experiments": {
            exp_id: {"runs": runs[-keep:]}
            for exp_id, runs in sorted(by_exp.items())
        },
    }


def write_trajectory(path: str | Path, records: Sequence[Mapping]) -> dict:
    """Roll ``records`` up and write the trajectory file; return the doc."""
    doc = rollup(records)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def make_baseline(records: Iterable[Mapping]) -> dict:
    """A committed-baseline document: the latest record per experiment."""
    return {
        "version": SCHEMA_VERSION,
        "experiments": latest_by_exp(records),
    }


def load_records(
    path: str | Path, skipped: list[tuple[int, str]] | None = None
) -> dict[str, dict]:
    """Latest record per exp from *any* perf artefact.

    Sniffs the format: ``.jsonl`` history, a baseline document
    (``{"experiments": {exp: record}}``), a trajectory roll-up
    (``{"experiments": {exp: {"runs": [...]}}}``), a JSON list of
    records, or a single record.  For JSONL histories, corrupt lines are
    skipped (see :func:`load_history`); ``skipped`` collects them.
    """
    path = Path(path)
    if path.suffix == ".jsonl":
        return latest_by_exp(load_history(path, skipped=skipped))
    doc = json.loads(path.read_text())
    if isinstance(doc, list):
        return latest_by_exp(doc)
    if "experiments" in doc:
        out: dict[str, dict] = {}
        for exp_id, entry in doc["experiments"].items():
            if "runs" in entry:  # trajectory shape
                if entry["runs"]:
                    rec = dict(entry["runs"][-1])
                    rec.setdefault("exp_id", exp_id)
                    out[exp_id] = rec
            else:  # baseline shape
                out[exp_id] = dict(entry)
        return out
    if "exp_id" in doc:  # single record
        return {doc["exp_id"]: doc}
    raise ValueError(f"unrecognised perf artefact shape in {path}")


# ----------------------------------------------------------------------
# Regression detection
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Regression:
    """One metric that moved past its class threshold."""

    exp_id: str
    metric: str
    metric_class: str
    baseline: float
    current: float
    threshold: float

    @property
    def ratio(self) -> float:
        """``current / baseline`` (``inf`` for a zero baseline)."""
        if self.baseline == 0:
            return float("inf")
        return self.current / self.baseline

    def __str__(self) -> str:  # noqa: D105
        pct = (self.ratio - 1.0) * 100 if self.ratio != float("inf") else float("inf")
        return (
            f"REGRESSION {self.exp_id}.{self.metric} [{self.metric_class}]: "
            f"{self.baseline:.6g} -> {self.current:.6g} "
            f"(+{pct:.1f}% > {self.threshold:.0%} allowed)"
        )


def compare(
    baseline: Mapping[str, Mapping],
    current: Mapping[str, Mapping],
) -> list[Regression]:
    """Diff two ``{exp_id: record}`` maps; return threshold breaches.

    Only gated metrics present on *both* sides of an experiment are
    compared (every one is higher-is-worse), each at its class's
    :data:`DEFAULT_THRESHOLDS` limit.
    """
    regressions: list[Regression] = []
    for exp_id, name, cls in _gated_pairs(baseline, current):
        b = float(baseline[exp_id]["metrics"][name])
        c = float(current[exp_id]["metrics"][name])
        limit = DEFAULT_THRESHOLDS[cls]
        if c > b * (1.0 + limit) + 1e-12:
            regressions.append(
                Regression(
                    exp_id=exp_id, metric=name, metric_class=cls,
                    baseline=b, current=c, threshold=limit,
                )
            )
    return regressions


def _gated_pairs(
    baseline: Mapping[str, Mapping],
    current: Mapping[str, Mapping],
) -> list[tuple[str, str, str]]:
    """``(exp_id, metric, class)`` for every gated metric on both sides."""
    pairs: list[tuple[str, str, str]] = []
    for exp_id in sorted(set(baseline) & set(current)):
        base_m = baseline[exp_id].get("metrics", {})
        cur_m = current[exp_id].get("metrics", {})
        for name in sorted(set(base_m) & set(cur_m)):
            cls = classify_metric(name)
            if cls is not None:
                pairs.append((exp_id, name, cls))
    return pairs


def find_new_metrics(
    baseline: Mapping[str, Mapping],
    current: Mapping[str, Mapping],
) -> list[tuple[str, str, str]]:
    """Current-only gated metrics on shared experiments, as findings.

    A gated metric present in ``current`` but absent from the baseline
    is not a regression (there is nothing to compare against) but it
    must not vanish silently either — it is exactly the state a freshly
    added benchmark metric is in until the baseline is regenerated.
    Returns ``(exp_id, metric, metric_class)`` triples;
    :func:`format_report` renders them and the CLI keeps them
    non-gating.
    """
    findings: list[tuple[str, str, str]] = []
    for exp_id in sorted(set(baseline) & set(current)):
        base_m = baseline[exp_id].get("metrics", {})
        cur_m = current[exp_id].get("metrics", {})
        for name in sorted(set(cur_m) - set(base_m)):
            cls = classify_metric(name)
            if cls is not None:
                findings.append((exp_id, name, cls))
    return findings


def format_report(
    baseline: Mapping[str, Mapping],
    current: Mapping[str, Mapping],
    regressions: Sequence[Regression],
    skipped_lines: int = 0,
) -> str:
    """Human-readable perfcheck summary (what the CLI prints)."""
    shared = sorted(set(baseline) & set(current))
    lines = [
        f"perfcheck: {len(shared)} experiment(s) compared "
        f"[gated classes: {', '.join(METRIC_CLASSES)}]",
    ]
    run_ids = sorted(
        {
            rec.get("run_id")
            for rec in current.values()
            if rec.get("run_id")
        }
    )
    if run_ids:
        lines.append(
            "current records from run ledger(s): " + ", ".join(run_ids)
        )
    gated = _gated_pairs(baseline, current)
    for exp_id in shared:
        n_gated = sum(1 for e, _, _ in gated if e == exp_id)
        bad = [r for r in regressions if r.exp_id == exp_id]
        status = "FAIL" if bad else "ok"
        lines.append(f"  {exp_id:>8}: {n_gated} gated metric(s) {status}")
    only_base = sorted(set(baseline) - set(current))
    only_cur = sorted(set(current) - set(baseline))
    if only_base:
        lines.append(f"  (baseline-only, skipped: {', '.join(only_base)})")
    if only_cur:
        lines.append(f"  (current-only, skipped: {', '.join(only_cur)})")
    for exp_id, metric, cls in find_new_metrics(baseline, current):
        lines.append(
            f"NEW METRIC {exp_id}.{metric} [{cls}]: no baseline yet, "
            "not gated (refresh with --update-baseline)"
        )
    if skipped_lines:
        lines.append(
            f"perfcheck: skipped {skipped_lines} corrupt history line(s)"
        )
    for r in regressions:
        lines.append(str(r))
    lines.append(
        "perfcheck: FAIL" if regressions else "perfcheck: no regressions"
    )
    return "\n".join(lines)
