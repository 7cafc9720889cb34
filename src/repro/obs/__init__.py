"""Observability for the partitioning pipeline and the cycle simulator.

Three instruments, one package:

* :mod:`repro.obs.metrics` — a **metrics registry** (counters, gauges,
  histograms) with Prometheus-text and JSON exporters; the benchmark
  harness routes every table through it so each experiment also lands as
  machine-readable ``benchmarks/out/<exp_id>.json``.
* :mod:`repro.obs.tracing` — **stage spans**, the one way to mark a
  stage (transforms, grouping, G-set selection, scheduling, plan
  building, compile, simulation, campaigns, verification, ...).  Each
  span feeds the installed tracer, whose Chrome ``trace_event`` export
  opens directly in Perfetto / ``chrome://tracing``, and the open run
  ledger.
* :mod:`repro.obs.probe` / :mod:`repro.obs.report` — **per-cycle
  simulator probes**: the cycle simulator emits fire/operand/input/
  violation events behind a zero-overhead-when-disabled protocol, from
  which per-cell occupancy timelines, memory-traffic curves and the
  measured Fig. 21 I/O demand curve are derived.

* :mod:`repro.obs.perf` — the **benchmark history store** (JSONL +
  ``BENCH_PERF.json`` trajectory roll-up) and the **regression gate**
  on the paper's deterministic measures behind
  ``python -m repro perfcheck``.
* :mod:`repro.obs.runlog` — the **run ledger**: every entry point opens
  a run context with a deterministic run ID and appends typed JSONL
  events (every stage span, lint, plan cache, backend, faults,
  checkpoints, oracle) to ``runs/<run-id>.jsonl``; query via
  ``python -m repro obs``.  Its ``EVENT_METRICS`` table derives the
  cache, fallback, lint and fault counters from those events.
* :mod:`repro.obs.dashboard` — the self-contained **HTML dashboard**
  (``python -m repro dashboard``); imported lazily (as
  ``repro.obs.dashboard``) because it pulls in the viz layer.
* :mod:`repro.obs.profile` — the **hierarchical profiler**: phase trees
  from ledger stage events, per-``(depth, opcode)``
  kernel timings behind a probe-style zero-overhead seam, critical-path
  makespan attribution and folded-stack/flamegraph export
  (``python -m repro profile``).

CLI: ``python -m repro trace --n 12 --m 4 --trace-out t.json``,
``python -m repro stats --n 12 --m 4``, ``python -m repro perfcheck``,
``python -m repro dashboard``.  See ``docs/observability.md``.
"""

from .metrics import (  # noqa: F401
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from .perf import (  # noqa: F401
    DEFAULT_THRESHOLDS,
    METRIC_CLASSES,
    SCHEMA_VERSION,
    Regression,
    append_history,
    classify_metric,
    compare,
    current_commit,
    latest_by_exp,
    load_history,
    load_records,
    make_baseline,
    make_record,
    rollup,
    write_trajectory,
)
from .probe import (  # noqa: F401
    FireEvent,
    NullProbe,
    OperandEvent,
    Probe,
    RecordingProbe,
    SOURCE_CLASSES,
)
from .profile import (  # noqa: F401
    KERNEL_BUCKETS,
    PROFILE_SCHEMA_VERSION,
    CriticalPath,
    KernelProfiler,
    PathStep,
    ProfileNode,
    attribute_makespan,
    build_profile_document,
    critical_path,
    install_kernel_profiler,
    kernel_profiler,
    kernel_profiling,
    profile_from_runlog,
    render_profile_text,
    to_folded,
    uninstall_kernel_profiler,
)
from .report import (  # noqa: F401
    io_demand_curve,
    memory_traffic_per_cycle,
    occupancy_timeline,
    probe_chrome_events,
    register_expected_metrics,
    register_sim_metrics,
)
from .runlog import (  # noqa: F401
    RUNLOG_SCHEMA_VERSION,
    RunLog,
    current_run,
    current_run_id,
    current_task,
    ledger_path,
    list_runs,
    make_run_id,
    read_ledger,
    record,
    run_scope,
    runlog_dir,
    runlog_enabled,
    strip_nondeterministic,
    summarize,
    task_scope,
    verify_ledger,
    worker_payload,
    worker_scope,
)
from .tracing import (  # noqa: F401
    Span,
    Tracer,
    get_tracer,
    install_tracer,
    stage_span,
    traced_run,
    uninstall_tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "SCHEMA_VERSION",
    "METRIC_CLASSES",
    "DEFAULT_THRESHOLDS",
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
    "Probe",
    "NullProbe",
    "RecordingProbe",
    "FireEvent",
    "OperandEvent",
    "SOURCE_CLASSES",
    "PROFILE_SCHEMA_VERSION",
    "KERNEL_BUCKETS",
    "ProfileNode",
    "profile_from_runlog",
    "to_folded",
    "KernelProfiler",
    "install_kernel_profiler",
    "uninstall_kernel_profiler",
    "kernel_profiler",
    "kernel_profiling",
    "PathStep",
    "CriticalPath",
    "critical_path",
    "attribute_makespan",
    "build_profile_document",
    "render_profile_text",
    "Span",
    "Tracer",
    "stage_span",
    "install_tracer",
    "uninstall_tracer",
    "get_tracer",
    "traced_run",
    "RUNLOG_SCHEMA_VERSION",
    "RunLog",
    "run_scope",
    "task_scope",
    "record",
    "current_run",
    "current_run_id",
    "current_task",
    "make_run_id",
    "ledger_path",
    "runlog_dir",
    "runlog_enabled",
    "worker_payload",
    "worker_scope",
    "read_ledger",
    "list_runs",
    "summarize",
    "verify_ledger",
    "strip_nondeterministic",
    "occupancy_timeline",
    "memory_traffic_per_cycle",
    "io_demand_curve",
    "probe_chrome_events",
    "register_sim_metrics",
    "register_expected_metrics",
]
