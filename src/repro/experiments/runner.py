"""Parallel experiment runner: fan experiment tables out over processes.

``repro bench`` (and anything else that wants many reproduction tables)
goes through :func:`run_experiments`.  With ``jobs > 1`` each experiment
runs in its own worker process under a *fresh* metrics registry and the
chosen simulator backend; the parent then merges every worker's registry
snapshot into its own (:meth:`MetricsRegistry.merge_json`), so the final
metrics are identical to a sequential run.  Results always come back in
the order the experiment ids were given, regardless of which worker
finished first — parallelism never changes the artefact.

The worker is a module-level function (picklable for the ``spawn`` start
method) and re-resolves the registry and backend inside the child, so no
process inherits mutable state from the parent.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Any, Sequence

from ..obs import runlog
from ..obs.metrics import MetricsRegistry, get_registry, set_registry
from ..obs.tracing import stage_span

__all__ = ["run_experiments"]


def _run_one(exp_id: str) -> list[dict]:
    """Build one experiment table inside a ledger stage (any process)."""
    from . import EXPERIMENTS

    with stage_span("experiment.run", exp=exp_id):
        return EXPERIMENTS[exp_id].run()


def _experiment_worker(
    exp_id: str,
    backend: str | None,
    record_metrics: bool,
    runlog_payload: dict[str, str] | None = None,
) -> tuple[str, list[dict], dict[str, Any] | None, list[dict[str, Any]]]:
    """Run one experiment in this process; return ``(id, rows, metrics,
    runlog_events)``.

    Installs a fresh registry (when metrics are recorded) and the
    requested backend default before building the table, so the child is
    indistinguishable from a sequential in-process run.  The parent's
    run-log context arrives in ``runlog_payload``; the worker's event
    buffer rides back with the result and is absorbed in submission
    order (like the registry snapshot).
    """
    from ..arrays.vector_sim import set_default_backend

    if backend is not None:
        set_default_backend(backend)
    snapshot: dict[str, Any] | None = None
    with runlog.worker_scope(runlog_payload, task=exp_id) as rl:
        if record_metrics:
            reg = MetricsRegistry()
            set_registry(reg)
            rows = _run_one(exp_id)
            snapshot = reg.to_json()
        else:
            rows = _run_one(exp_id)
    events = rl.events if rl is not None else []
    return exp_id, rows, snapshot, events


def run_experiments(
    exp_ids: Sequence[str],
    jobs: int | None = None,
    backend: str | None = None,
    record_metrics: bool = True,
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
    record_metrics:
        When true, per-worker registries are merged into this process's
        registry so counters match a sequential run exactly.

    Returns ``[(exp_id, rows), ...]`` in ``exp_ids`` order.
    """
    from . import EXPERIMENTS

    unknown = [e for e in exp_ids if e not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiment id(s): {', '.join(unknown)}")

    # Run identity: the workload, never the parallelism degree.
    params = {"exp_ids": list(exp_ids), "backend": backend}
    with runlog.run_scope("bench", params) as rl:
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
                pool.submit(
                    _experiment_worker, eid, backend, record_metrics,
                    payload,
                )
                for eid in exp_ids
            ]
            # Collect in submission order: deterministic regardless of
            # which worker finishes first; ledger events merge under the
            # same rule as the registry snapshots.
            for fut in futures:
                eid, rows, snapshot, events = fut.result()
                if snapshot is not None:
                    get_registry().merge_json(snapshot)
                if rl is not None:
                    rl.absorb(events)
                results.append((eid, rows))
        return results
