"""Shared helpers for the benchmark harness.

Every benchmark regenerates one experiment from DESIGN.md's index: it
builds the paper artefact (graph / array / schedule), checks the *shape*
claims (who wins, by what factor), prints the reproduction table, and
saves it under ``benchmarks/out/<exp_id>.txt`` so EXPERIMENTS.md can refer
to concrete artefacts.  The ``benchmark`` fixture times the dominant
computation so ``pytest benchmarks/ --benchmark-only`` doubles as a
performance regression harness for the library itself.

Tables are additionally routed through a :class:`repro.obs.MetricsRegistry`
(:data:`REGISTRY`), so every experiment also lands as machine-readable
``benchmarks/out/<exp_id>.json`` — experiment id, title, structured rows
when the caller passes them, and the registry snapshot of the run.  Every
JSON artefact carries a schema ``version`` field
(:data:`repro.obs.perf.SCHEMA_VERSION`).

On top of that, :func:`save_table` feeds the **benchmark history store**
(:mod:`repro.obs.perf`): each experiment appends one record — problem size,
git commit, caller-supplied perf metrics — to
``benchmarks/out/history.jsonl`` and rolls the trajectory up into the
repo-root ``BENCH_PERF.json``.  ``python -m repro perfcheck`` gates on
their deterministic measures (simulated cycles, memory traffic, host
bandwidth).  No wall-clock value goes into a record: timing verdicts
come from the end-to-end benchmark in ``benchmarks/e2e/``.

Quiet mode: set ``REPRO_BENCH_QUIET=1`` (or pass ``--bench-quiet`` to
pytest, see ``benchmarks/conftest.py``) to suppress the table echo on
stderr — CI perf runs keep their timing output clean; echoing stays the
default locally.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Mapping, Sequence

from repro.obs import MetricsRegistry
from repro.obs import perf
from repro.obs import runlog

OUT_DIR = Path(__file__).parent / "out"

#: Benchmark history (JSONL, append-only) and the repo-root trajectory
#: roll-up every run refreshes.
HISTORY_PATH = OUT_DIR / "history.jsonl"
TRAJECTORY_PATH = Path(__file__).parent.parent / "BENCH_PERF.json"

# Default problem sizes: large enough for the asymptotic claims to show,
# small enough that the whole harness runs in a couple of minutes.
N_DEFAULT = 12
M_DEFAULT = 4

#: One registry per harness run; every saved table is counted and sized
#: here, and each ``<exp_id>.json`` embeds the snapshot taken at save time.
REGISTRY = MetricsRegistry()

#: When true, :func:`save_table` skips the stderr echo (tables are still
#: written to ``benchmarks/out/``).  Seeded from the environment so the
#: flag works under plain ``python bench_x.py`` too; ``--bench-quiet``
#: flips it via :func:`set_quiet`.
QUIET = os.environ.get("REPRO_BENCH_QUIET", "").lower() in ("1", "true", "yes")

_COMMIT = perf.current_commit(Path(__file__).parent)


def set_quiet(flag: bool) -> None:
    """Enable/disable the stderr table echo (used by ``--bench-quiet``)."""
    global QUIET
    QUIET = bool(flag)


def record_run(
    exp_id: str,
    title: str = "",
    n: int | None = None,
    m: int | None = None,
    perf_metrics: Mapping[str, float] | None = None,
) -> dict:
    """Append one experiment's perf record to the history store.

    The record's metrics are any registry series labelled with this
    ``exp_id`` (table bytes/rows) and the caller's ``perf_metrics``
    (simulated cycles, memory traffic, host bandwidth, ...).  Also refreshes the
    ``BENCH_PERF.json`` trajectory at the repo root.  Returns the record.
    """
    metrics: dict[str, float] = {}
    for metric in REGISTRY:
        for series in metric.to_json()["series"]:
            if series["labels"].get("exp") == exp_id:
                value = series.get("value", series.get("sum", 0))
                metrics[metric.name] = float(value)
    if perf_metrics:
        metrics.update(
            {k: float(v) for k, v in perf_metrics.items()}
        )
    record = perf.make_record(
        exp_id, metrics, title=title, n=n, m=m, commit=_COMMIT,
        run_id=runlog.current_run_id(),
    )
    perf.append_history(HISTORY_PATH, record)
    perf.write_trajectory(TRAJECTORY_PATH, perf.load_history(HISTORY_PATH))
    return record


def _infer_dim(rows: Sequence[Mapping], key: str) -> int | None:
    """Largest numeric ``rows[*][key]`` — the problem size the run peaked at."""
    vals = [
        r[key]
        for r in rows
        if isinstance(r.get(key), (int, float)) and not isinstance(r.get(key), bool)
    ]
    return int(max(vals)) if vals else None


def save_table(
    exp_id: str,
    title: str,
    body: str,
    rows: Sequence[Mapping] | None = None,
    n: int | None = None,
    m: int | None = None,
    perf_metrics: Mapping[str, float] | None = None,
) -> str:
    """Persist one experiment's table; echo it to stdout; return the text.

    Always writes both ``<exp_id>.txt`` (human-readable) and
    ``<exp_id>.json`` (machine-readable, schema-versioned) — with or
    without ``rows``.  Pass ``rows`` — the list of dicts most benchmarks
    already format — to make the JSON carry the actual data, not just
    the rendered text; pass ``n``/``m``/``perf_metrics`` to enrich the
    history record (see :func:`record_run`).  When ``n``/``m`` are not
    given they are inferred from the rows' own ``"n"``/``"m"`` columns
    (largest value), so history records carry dimensions whenever the
    table knows them.  No wall time is recorded: the time between two
    saves is not a measurement of either experiment.
    """
    if rows:
        # History records must always carry dimensions when they are
        # knowable: benchmarks that format per-size rows but never pass
        # n/m explicitly (A-ALN and friends) used to land as
        # ``"n": null`` and break sweep plots downstream.
        n = _infer_dim(rows, "n") if n is None else n
        m = _infer_dim(rows, "m") if m is None else m
    OUT_DIR.mkdir(exist_ok=True)
    text = f"== {exp_id}: {title} ==\n{body}\n"
    (OUT_DIR / f"{exp_id}.txt").write_text(text)

    REGISTRY.counter(
        "repro_benchmark_tables_total", "tables saved by the harness"
    ).inc()
    REGISTRY.gauge(
        "repro_benchmark_table_bytes", "rendered size of each table"
    ).set(len(text), exp=exp_id)
    if rows is not None:
        REGISTRY.gauge(
            "repro_benchmark_table_rows", "structured rows of each table"
        ).set(len(rows), exp=exp_id)
    payload = {
        "version": perf.SCHEMA_VERSION,
        "exp_id": exp_id,
        "title": title,
        "rows": [dict(r) for r in rows] if rows is not None else None,
        "body": body,
        "metrics": REGISTRY.to_json(),
    }
    (OUT_DIR / f"{exp_id}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=repr)
    )

    record_run(
        exp_id, title=title, n=n, m=m, perf_metrics=perf_metrics,
    )

    if not QUIET:
        print(f"\n{text}", file=sys.stderr)
    return text
