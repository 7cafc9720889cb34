"""The one experiment runner: build, check and record reproduction tables.

``repro reproduce`` goes through :func:`run_experiments`.  With
``jobs > 1`` each experiment runs in its own worker process under a
*fresh* metrics registry and the chosen simulator backend; the parent
then merges every worker's registry snapshot into its own
(:meth:`MetricsRegistry.merge_json`), so the final metrics are identical
to a sequential run.  Results always come back in the order the
experiment ids were given, regardless of which worker finished first —
parallelism never changes the artefact.

The verb then runs each experiment's ``check`` in this process, in id
order; a claim that does not hold raises :class:`ExperimentCheckFailed`
(built with :func:`require`, which ``python -O`` keeps, unlike
``assert``).  :func:`record` persists the tables that passed.

The worker is a module-level function (picklable for the ``spawn`` start
method) and re-resolves the registry and backend inside the child, so no
process inherits mutable state from the parent.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..obs import perf, runlog
from ..obs.metrics import MetricsRegistry, get_registry, set_registry
from ..obs.tracing import stage_span

__all__ = [
    "ExperimentCheckFailed", "require", "run_experiments", "infer_dim",
    "record",
]


class ExperimentCheckFailed(Exception):
    """A built table breaks one of the claims its experiment checks."""


def require(cond: object, what: str) -> None:
    """Raise :class:`ExperimentCheckFailed` naming ``what`` unless ``cond``."""
    if not cond:
        raise ExperimentCheckFailed(what)


def _run_one(exp_id: str) -> list[dict]:
    """Build one experiment table inside a ledger stage (any process)."""
    from . import EXPERIMENTS

    with stage_span("experiment.run", exp=exp_id):
        try:
            return EXPERIMENTS[exp_id].build()
        except ExperimentCheckFailed as exc:  # a builder's own guard
            raise ExperimentCheckFailed(f"{exp_id}: {exc}") from None


def _experiment_worker(
    exp_id: str,
    backend: str | None,
    runlog_payload: dict[str, str] | None = None,
) -> tuple[str, list[dict], dict[str, Any], list[dict[str, Any]]]:
    """Run one experiment in this process; return ``(id, rows, metrics,
    runlog_events)``.

    Installs a fresh registry and the requested backend default before
    building the table, so the child is indistinguishable from a
    sequential in-process run.  The parent's run-log context arrives in
    ``runlog_payload``; the worker's event buffer rides back with the
    result and is absorbed in submission order (like the registry
    snapshot).
    """
    from ..arrays.vector_sim import set_default_backend

    if backend is not None:
        set_default_backend(backend)
    reg = MetricsRegistry()
    set_registry(reg)
    with runlog.worker_scope(runlog_payload, task=exp_id) as rl:
        rows = _run_one(exp_id)
    events = rl.events if rl is not None else []
    return exp_id, rows, reg.to_json(), events


def run_experiments(
    exp_ids: Sequence[str],
    jobs: int | None = None,
    backend: str | None = None,
) -> list[tuple[str, list[dict]]]:
    """Build several experiment tables, optionally across processes.

    Parameters
    ----------
    exp_ids:
        Experiment ids from :data:`repro.experiments.EXPERIMENTS`, in the
        order results should be returned.
    jobs:
        Worker processes.  ``None``/``0``/``1`` (or a single experiment)
        runs sequentially in-process.
    backend:
        Simulator backend for the runs (``None`` keeps each process's
        default, i.e. ``REPRO_SIM_BACKEND`` or ``reference``).

    Per-worker registries are merged into this process's registry, so
    counters match a sequential run exactly.

    Returns ``[(exp_id, rows), ...]`` in ``exp_ids`` order.
    """
    from . import EXPERIMENTS

    unknown = [e for e in exp_ids if e not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiment id(s): {', '.join(unknown)}")

    # Run identity: the workload, never the parallelism degree.
    params = {"exp_ids": list(exp_ids), "backend": backend}
    with runlog.run_scope("reproduce", params) as rl:
        if not jobs or jobs <= 1 or len(exp_ids) <= 1:
            # Sequential runs share this process's registry already;
            # apply the backend override around the loop, restore after.
            from ..arrays.vector_sim import set_default_backend

            prev = (
                set_default_backend(backend) if backend is not None else None
            )
            try:
                results = []
                for eid in exp_ids:
                    with runlog.task_scope(eid):
                        results.append((eid, _run_one(eid)))
                return results
            finally:
                if prev is not None:
                    set_default_backend(prev)

        from ..arrays.vector_compile import clear_compiled_cache

        results = []
        payload = runlog.worker_payload()
        # Forked workers would inherit this process's compiled-plan
        # cache; each starts empty, as a fresh CLI process does.
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(exp_ids)),
            initializer=clear_compiled_cache,
        ) as pool:
            futures = [
                pool.submit(_experiment_worker, eid, backend, payload)
                for eid in exp_ids
            ]
            # Collect in submission order: deterministic regardless of
            # which worker finishes first; ledger events merge under the
            # same rule as the registry snapshots.
            for fut in futures:
                eid, rows, snapshot, events = fut.result()
                get_registry().merge_json(snapshot)
                if rl is not None:
                    rl.absorb(events)
                results.append((eid, rows))
        return results


def infer_dim(rows: Sequence[Mapping], key: str) -> int | None:
    """Largest numeric ``rows[*][key]`` — the problem size the run peaked at."""
    vals = [
        r[key]
        for r in rows
        if isinstance(r.get(key), (int, float)) and not isinstance(r.get(key), bool)
    ]
    return int(max(vals)) if vals else None


def record(tables: Sequence[tuple[str, list[dict], str]], root: Path) -> None:
    """Persist checked ``(exp_id, rows, text)`` tables under ``root``.

    Writes ``benchmarks/out/<exp_id>.txt`` (the printed table) and
    ``<exp_id>.json`` (schema-versioned rows), appends one
    :func:`repro.obs.perf.make_record` per table to
    ``benchmarks/out/history.jsonl`` and rolls the history up into
    ``BENCH_PERF.json``.  A record holds the experiment's ``measures``,
    the ``n``/``m`` inferred from its rows, the commit and the open run
    id — never a table size or a wall-clock value: timing verdicts come
    from the end-to-end benchmark in ``benchmarks/e2e/``.
    """
    from . import EXPERIMENTS

    out = root / "benchmarks" / "out"
    out.mkdir(exist_ok=True)
    history = out / "history.jsonl"
    commit = perf.current_commit(root)
    for exp_id, rows, text in tables:
        exp = EXPERIMENTS[exp_id]
        (out / f"{exp_id}.txt").write_text(text)
        doc = {"version": perf.SCHEMA_VERSION, "exp_id": exp_id,
               "title": exp.title, "rows": rows}
        (out / f"{exp_id}.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True, default=repr) + "\n"
        )
        measures = {k: float(v) for k, v in exp.measures(rows).items()}
        perf.append_history(history, perf.make_record(
            exp_id, measures, title=exp.title,
            n=infer_dim(rows, "n"), m=infer_dim(rows, "m"), commit=commit,
            run_id=runlog.current_run_id(),
        ))
    perf.write_trajectory(root / "BENCH_PERF.json", perf.load_history(history))
