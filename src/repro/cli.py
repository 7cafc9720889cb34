"""Command-line interface: explore the reproduction from a terminal.

Examples (docs/api_tour.md, "Command line", walks through the verbs)::

    python -m repro partition --n 12 --m 4 --simulate --backend vector
    python -m repro lint --experiments --format sarif --out lint.sarif
    python -m repro faults --seed 0 --experiments --jobs 2
    python -m repro trace --n 12 --m 4 --trace-out t.json
    python -m repro bench F18 F19 --backend vector --jobs 2
    python -m repro profile --experiment F18 --flame-out flame.svg
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np

__all__ = ["main", "build_parser"]

#: :data:`repro.core.gsets.SCHEDULE_POLICIES`' names, pinned to it by
#: tests/test_cli.py: importing ``core.gsets`` here would put networkx
#: on every verb's import path (``repro closure`` included).
POLICIES = ("vertical", "horizontal", "wavefront")

#: Below n=3 every transitive-closure node is superfluous
#: (``algorithms.transitive_closure``; pinned by tests/test_cli.py).
MIN_N = 3


def _int_at_least(low: int, what: str):
    """An argparse ``type``: an int ``>= low``, else an error naming it."""

    def parse(text: str) -> int:
        if int(text) < low:  # int() failing reads "invalid int value"
            raise argparse.ArgumentTypeError(f"{what}, got {text}")
        return int(text)

    parse.__name__ = "int"
    return parse


def _design_args(s, *, n=12, m=None, packed=False, seed=False, backend=None,
                 n_help="problem size") -> None:
    """Add the design block ``--n/--m/--geometry/--policy/--packed/--seed/
    --backend`` to subparser ``s``, or the subset a verb asks for.

    ``m`` also adds ``--geometry`` and ``--policy``; ``backend`` is the
    ``--backend`` help.  Bad ``--n``/``--m``/``--policy`` values exit 2
    at parse time; :func:`main` checks the two-argument mesh rule.
    """
    s.add_argument("--n", default=n, help=n_help, type=_int_at_least(
        MIN_N, f"transitive-closure graphs need n >= {MIN_N}"))
    if m is not None:
        s.add_argument("--m", default=m, help="number of cells",
                       type=_int_at_least(1, "the array needs m >= 1 cell"))
        s.add_argument("--geometry", choices=("linear", "mesh"),
                       default="linear")
        s.add_argument("--policy", choices=POLICIES, default="vertical")
    if packed:
        s.add_argument("--packed", action="store_true", help="pack G-sets "
                       "instead of the paper's skew alignment")
    if seed:
        s.add_argument("--seed", type=int, default=0)
    if backend is not None:
        s.add_argument("--backend", choices=("reference", "vector"),
                       default=None, help=backend)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for ``python -m repro``."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="Graph-based partitioning of matrix algorithms for "
        "systolic arrays (Moreno & Lang, 1988) - reproduction toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("stages", help="property census of the Figs. 10-16 pipeline")
    _design_args(s, n=6)

    s = sub.add_parser("partition", help="partition transitive closure onto an array")
    _design_args(s, m=4, packed=True, seed=True,
                 backend="simulator backend (default: REPRO_SIM_BACKEND or "
                         "reference; see docs/simulator.md)")
    s.add_argument("--simulate", action="store_true",
                   help="cycle-simulate on a random instance and verify")
    s.add_argument("--trace-out", metavar="FILE", default=None,
                   help="with --simulate: write a Chrome trace JSON of the "
                        "pipeline stages and the simulated cycles")

    s = sub.add_parser("ggraph", help="render a G-graph's computation times")
    s.add_argument("--algorithm", choices=("tc", "lu", "faddeev", "givens"),
                   default="tc")
    s.add_argument("--n", type=int, default=8, help="problem size")

    s = sub.add_parser("schedule", help="show the G-set schedule order")
    _design_args(s, m=4)

    s = sub.add_parser("level", help="render one level of the Fig. 16 grid")
    _design_args(s, n=6)
    s.add_argument("--k", type=int, default=0, help="level index")

    s = sub.add_parser("fixed", help="simulate the Fig. 17 fixed-size array")
    _design_args(s, n=9, seed=True)

    s = sub.add_parser(
        "lint",
        help="statically check a design against the paper's invariants "
             "(RLxxx diagnostics; see docs/static-analysis.md)",
    )
    _design_args(s, m=4, packed=True)
    s.add_argument("--experiments", action="store_true",
                   help="lint every shipped configuration (the CI gate's "
                        "workload) instead of one design")
    s.add_argument("--config", default=None, metavar="NAME",
                   help="lint one shipped configuration by name")
    s.add_argument("--planner", action="store_true",
                   help="also compile the value program and run the "
                        "RL5xx plan-verification and RL6xx static-cost "
                        "tiers over it")
    s.add_argument("--from-run", metavar="RUN_ID", default=None,
                   help="rebuild the design a run ledger records and "
                        "lint the plan it fingerprinted (implies "
                        "--planner)")
    s.add_argument("--dir", metavar="DIR", default=None,
                   help="run-ledger directory for --from-run, where "
                        "this run's own ledger goes too "
                        "(default: runs/ or REPRO_RUNLOG_DIR)")
    s.add_argument("--baseline", metavar="FILE", default=None,
                   help="suppress warn/info findings recorded in this "
                        "baseline file; errors always gate")
    s.add_argument("--update-baseline", action="store_true",
                   help="rewrite --baseline from the current findings "
                        "(accepts new warn-tier debt, drops stale "
                        "entries)")
    s.add_argument("--baseline-diff-out", metavar="FILE", default=None,
                   help="write the new/suppressed/stale split as a JSON "
                        "artefact (CI uploads this)")
    s.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text")
    s.add_argument("--out", metavar="FILE", default=None,
                   help="write the report to FILE instead of stdout")

    s = sub.add_parser(
        "faults",
        help="run a seeded fault-injection campaign through the resilience "
             "runtime (inject / detect / recover / verify; see "
             "docs/resilience.md)",
    )
    s.add_argument("--seed", type=int, default=0,
                   help="campaign seed (same seed => identical campaign)")
    s.add_argument("--experiments", action="store_true",
                   help="inject into every shipped campaign configuration "
                        "(the CI gate's workload)")
    s.add_argument("--config", default=None, metavar="NAME",
                   help="inject into one shipped campaign configuration")
    s.add_argument("--kinds", default=None, metavar="K1,K2",
                   help="comma-separated fault kinds to inject "
                        "(permanent, transient, dropped_word; default: all)")
    s.add_argument("--regime", default=None,
                   choices=("correlated", "bursty", "hammer", "all"),
                   help="arm a whole failure-regime fault plan per config "
                        "instead of single-fault cells, under the adaptive "
                        "policy (quarantine + graceful degradation); "
                        "'all' runs every regime")
    s.add_argument("--cluster-radius", type=int, default=None, metavar="R",
                   help="correlated regime: cells within R hops of the "
                        "epicenter die (default 1)")
    s.add_argument("--burst-enter", type=float, default=None, metavar="P",
                   help="bursty regime: per-cycle good->bad probability "
                        "of the Gilbert-Elliott chain (default 0.15)")
    s.add_argument("--burst-exit", type=float, default=None, metavar="P",
                   help="bursty regime: per-cycle bad->good probability "
                        "(default 0.5)")
    s.add_argument("--hammer-strikes", type=int, default=None, metavar="K",
                   help="hammer regime: transient strikes on the targeted "
                        "cell (default 4)")
    s.add_argument("--summary-out", metavar="FILE", default=None,
                   help="write the per-regime aggregate summary JSON "
                        "(the CI faults job's artifact)")
    s.add_argument("--format", choices=("text", "json"), default="text")
    s.add_argument("--out", metavar="FILE", default=None,
                   help="write the report to FILE instead of stdout")
    s.add_argument("--trace-out", metavar="FILE", default=None,
                   help="write a Chrome trace JSON of the recovery timelines "
                        "(one process lane per run; open in Perfetto)")
    s.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes, one campaign configuration each "
                        "(results and metrics identical to --jobs 1)")
    s.add_argument("--backend", choices=("reference", "vector"), default=None,
                   help="simulator backend for fault-free attempts "
                        "(faulty attempts always use the reference "
                        "interpreter's injection seam)")

    s = sub.add_parser(
        "reproduce",
        help="regenerate an experiment table (see DESIGN.md's index)",
    )
    s.add_argument("exp", nargs="*",
                   help="experiment ids (e.g. F18 T-EVAL); default: list them")

    s = sub.add_parser(
        "trace",
        help="run the full pipeline + simulation under the tracer and "
             "write a Chrome trace JSON (open in Perfetto)",
    )
    _design_args(s, m=4, packed=True, seed=True,
                 backend="simulator backend; tracing installs a probe, so "
                         "the vector backend falls back to the reference "
                         "interpreter for the traced run itself")
    s.add_argument("--trace-out", metavar="FILE", default="trace.json")

    s = sub.add_parser(
        "bench",
        help="build experiment tables through the parallel runner "
             "(optionally on the vector simulator backend)",
    )
    s.add_argument("exp", nargs="*",
                   help="experiment ids (e.g. F18 F19); default: all")
    s.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes, one experiment each; results "
                        "come back in id order regardless of completion")
    s.add_argument("--backend", choices=("reference", "vector"), default=None,
                   help="simulator backend for the runs (rows are "
                        "bit-identical across backends)")
    s.add_argument("--dataset", metavar="SPEC", default=None,
                   help="benchmark the closure engines (and, on small "
                        "graphs, the partitioned-array simulator) on a "
                        "loaded dataset instead of experiment tables; "
                        "SPEC is an edge-list path or "
                        "kron:scale=S[,edges=E][,seed=K]")
    s.add_argument("--remap", action="store_true",
                   help="with --dataset FILE: compact arbitrary external "
                        "vertex ids to 0..n-1")
    s.add_argument("--sources", default=64, metavar="K",
                   type=_int_at_least(1, "needs at least one source"),
                   help="with --dataset: sampled source count for the "
                        "per-source engines on graphs above the dense "
                        "cutoff (default: 64, deterministic)")

    s = sub.add_parser(
        "closure",
        help="transitive closure of a loaded sparse dataset via the "
             "host-level engines (bit-packed / reference / SSC "
             "baselines; see docs/datasets.md)",
    )
    s.add_argument("--dataset", required=True, metavar="SPEC",
                   help="edge-list path (optionally .gz) or "
                        "kron:scale=S[,edges=E][,seed=K]")
    s.add_argument("--engine", default="bitpack",
                   choices=("bitpack", "reference", "ssc1", "ssc2", "ssc12"),
                   help="closure engine (default: bitpack)")
    s.add_argument("--check", metavar="ENGINE", default=None,
                   choices=("bitpack", "reference", "ssc1", "ssc2", "ssc12"),
                   help="also run ENGINE and assert bit-identical "
                        "agreement (sampled sources above the dense "
                        "cutoff; exit 1 on disagreement)")
    s.add_argument("--check-sources", default=64, metavar="K",
                   type=_int_at_least(1, "needs at least one source"),
                   help="sources sampled for --check on graphs above the "
                        "dense cutoff (default: 64, deterministic)")
    s.add_argument("--n", type=int, default=None,
                   help="vertex count override for edge-list files")
    s.add_argument("--remap", action="store_true",
                   help="compact arbitrary external vertex ids to 0..n-1")
    s.add_argument("--format", choices=("text", "json"), default="text")
    s.add_argument("--out", metavar="FILE", default=None,
                   help="write the summary to FILE instead of stdout")

    s = sub.add_parser(
        "stats",
        help="run the pipeline + simulation under the metrics registry and "
             "print measured vs. closed-form (Sec. 4.2) metrics",
    )
    _design_args(s, m=4, packed=True, seed=True)
    s.add_argument("--format", choices=("prom", "json"), default="prom",
                   help="registry export format (default: Prometheus text)")

    s = sub.add_parser(
        "perfcheck",
        help="gate two perf artefacts (history/baseline/trajectory) on "
             "the deterministic measures (simulated cycles, memory "
             "traffic, host bandwidth); exit non-zero on regression",
    )
    s.add_argument("--baseline", required=True, metavar="FILE",
                   help="baseline artefact: baseline/trajectory JSON or "
                        "history JSONL")
    s.add_argument("--current", required=True, metavar="FILE",
                   help="current artefact (same accepted formats)")
    s.add_argument("--update-baseline", action="store_true",
                   help="instead of comparing, rewrite --baseline from the "
                        "latest records of --current")

    s = sub.add_parser(
        "profile",
        help="profile a run: nested phase self/cumulative times, "
             "per-kernel timings, critical-path hotspots, and an SVG "
             "flamegraph (see docs/observability.md)",
    )
    s.add_argument("--experiment", metavar="EXP", default=None,
                   help="profile one shipped experiment (e.g. F18); "
                        "includes per-config critical paths for the "
                        "F18/F19 sweeps")
    _design_args(s, n=None, m=4, seed=True,
                 backend="simulator backend to profile (default: "
                         "REPRO_SIM_BACKEND or reference)",
                 n_help="profile one ad-hoc partitioned design instead "
                        "of an experiment (n=12 when no mode is given)")
    s.add_argument("--top", type=int, default=10, metavar="K",
                   help="rows per table: phases, kernels, hotspots "
                        "(default: 10)")
    s.add_argument("--json", action="store_true",
                   help="emit the versioned profile JSON document "
                        "instead of text")
    s.add_argument("--out", metavar="FILE", default=None,
                   help="write the report to FILE instead of stdout")
    s.add_argument("--flame-out", metavar="FILE", default=None,
                   help="write a self-contained SVG flamegraph of the "
                        "phase tree")
    s.add_argument("--folded-out", metavar="FILE", default=None,
                   help="write the phase tree in folded-stack format "
                        "(flamegraph.pl / speedscope / inferno input)")
    s.add_argument("--from-run", metavar="RUN_ID", default=None,
                   help="rebuild the phase profile from a past run's "
                        "ledger instead of running anything")
    s.add_argument("--dir", default=None, metavar="DIR",
                   help="with --from-run: ledger directory, where "
                        "this run's own ledger goes too (default: "
                        "REPRO_RUNLOG_DIR or ./runs)")

    s = sub.add_parser(
        "obs",
        help="query run ledgers: list/show/diff/verify the JSONL event "
             "logs every entry point records (see docs/observability.md)",
    )
    obs_sub = s.add_subparsers(dest="obs_command", required=True)

    o = obs_sub.add_parser("list", help="summarize recent runs, newest first")
    o.add_argument("--dir", default=None, metavar="DIR",
                   help="ledger directory (default: REPRO_RUNLOG_DIR or "
                        "./runs)")
    o.add_argument("--limit", type=int, default=20, metavar="N",
                   help="show at most N runs (default: 20)")

    o = obs_sub.add_parser(
        "show",
        help="one run's stage timeline with durations and cache/"
             "fallback/recovery annotations",
    )
    o.add_argument("run_id", nargs="?", default=None,
                   help="run ID (default: the most recent run)")
    o.add_argument("--dir", default=None, metavar="DIR")

    o = obs_sub.add_parser(
        "diff",
        help="compare two runs: event counts, stage durations, and "
             "content (modulo timestamps); exits 1 when content differs",
    )
    o.add_argument("run_a")
    o.add_argument("run_b")
    o.add_argument("--dir", default=None, metavar="DIR")

    o = obs_sub.add_parser(
        "verify",
        help="check ledger integrity: schema, contiguous seq, per-task "
             "monotonic timestamps, balanced stages, no orphan events",
    )
    o.add_argument("run_ids", nargs="*",
                   help="run IDs to verify (default: every ledger)")
    o.add_argument("--dir", default=None, metavar="DIR")

    s = sub.add_parser(
        "dashboard",
        help="render the self-contained HTML performance dashboard "
             "(per-cell heatmaps, occupancy lanes, measured-vs-closed-form "
             "curves, run ledger)",
    )
    s.add_argument("--out", metavar="FILE", default="dashboard.html")
    _design_args(s, n=9, m=3, seed=True)
    s.add_argument("--sizes", default=None,
                   help="comma-separated n values for the closed-form sweep "
                        "(default: around --n)")
    s.add_argument("--runs", metavar="DIR", default=None,
                   help="run-ledger directory for the run-history panel "
                        "(default: REPRO_RUNLOG_DIR or ./runs; skipped "
                        "when missing)")
    s.add_argument("--regimes", action="store_true",
                   help="run the compact failure-regime campaign and "
                        "render the Failure regimes panel (correlated / "
                        "bursty / hammer under the adaptive policy)")
    return p


def _write_text(path, text: str) -> None:
    """Write a CLI artefact, creating parent directories as needed.

    Every ``--out``/``--trace-out``-style writer goes through here so
    ``repro lint --out reports/lint.sarif`` works without a prior
    ``mkdir``.  A path that cannot be written exits 2 with one line.
    """
    from pathlib import Path

    p = Path(path)
    try:
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text)
    except OSError as exc:
        print(f"repro: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _emit(body: str, out: str | None, note: str) -> None:
    """Print a verb's report, or write it to ``out`` and print ``note``."""
    if out:
        _write_text(out, body + "\n")
        print(note)
    else:
        print(body)


def _cmd_stages(args) -> int:
    from .algorithms.transitive_closure import TC_STAGES
    from .viz import render_stage_table

    print(render_stage_table({k: f(args.n) for k, f in TC_STAGES.items()}))
    return 0


def _run_traced_pipeline(args):
    """Build + simulate one partitioned closure under tracer and probe.

    Returns ``(impl, result, ok, tracer, probe)`` — the shared machinery
    of ``trace``, ``stats`` and ``partition --trace-out``.
    """
    from .algorithms.transitive_closure import make_inputs
    from .algorithms.warshall import random_adjacency, warshall
    from .arrays.vector_sim import dispatch_simulate
    from .core.partitioner import partition_transitive_closure
    from .obs import RecordingProbe, probe_chrome_events
    from .obs.tracing import traced_run

    with traced_run() as tracer:
        impl = partition_transitive_closure(
            n=args.n, m=args.m, geometry=args.geometry,
            policy=args.policy, aligned=not args.packed,
        )
        probe = RecordingProbe()
        a = random_adjacency(args.n, seed=args.seed)
        # A probe forces the reference interpreter (dispatch falls back
        # even under --backend vector), so the sim.simulate span and the
        # cycle-level events are always present in the trace.
        res = dispatch_simulate(
            impl.exec_plan, impl.dg, make_inputs(a), probe=probe,
            backend=getattr(args, "backend", None),
        )
        ok = bool(np.array_equal(res.output_matrix(args.n), warshall(a)))
    tracer.add_chrome_events(probe_chrome_events(probe))
    return impl, res, ok, tracer, probe


def _cmd_partition(args) -> int:
    from .algorithms.warshall import random_adjacency, warshall
    from .core.partitioner import partition_transitive_closure

    if args.trace_out and not args.simulate:
        print("--trace-out requires --simulate", file=sys.stderr)
        return 2
    if args.trace_out:
        impl, res, ok, tracer, _probe = _run_traced_pipeline(args)
    else:
        impl = partition_transitive_closure(
            n=args.n, m=args.m, geometry=args.geometry,
            policy=args.policy, aligned=not args.packed,
        )
    print(f"G-graph: {impl.gg}")
    for key, value in impl.report.row().items():
        print(f"  {key:>12}: {value}")
    if not args.simulate:
        return 0
    if not args.trace_out:
        a = random_adjacency(args.n, seed=args.seed)
        res = impl.simulate(a, backend=args.backend)
        ok = bool(np.array_equal(res.output_matrix(args.n), warshall(a)))
    print(f"simulation: makespan={res.makespan} violations="
          f"{len(res.violations)} correct={ok}")
    if args.trace_out:
        n_events = tracer.write_chrome(args.trace_out)
        print(f"trace: {args.trace_out} ({n_events} events, "
              f"{len(tracer.spans)} spans)")
    return 0 if (ok and res.ok) else 1


def _cmd_ggraph(args) -> int:
    from .viz import render_ggraph_times

    try:
        if args.algorithm == "tc":
            from .algorithms.transitive_closure import tc_regular
            from .core.ggraph import GGraph, group_by_columns

            gg = GGraph(tc_regular(args.n), group_by_columns)
        elif args.algorithm == "lu":
            from .algorithms.lu import lu_ggraph

            gg = lu_ggraph(args.n)
        elif args.algorithm == "faddeev":
            from .algorithms.faddeev import faddeev_ggraph

            gg = faddeev_ggraph(args.n)
        else:
            from .algorithms.givens import givens_ggraph

            gg = givens_ggraph(args.n)
    except ValueError as exc:  # each front-end checks its own minimum n
        print(f"ggraph: {exc}", file=sys.stderr)
        return 2
    print(gg)
    print(render_ggraph_times(gg))
    return 0


def _cmd_schedule(args) -> int:
    from .core.partitioner import partition_transitive_closure
    from .viz import render_schedule

    impl = partition_transitive_closure(
        n=args.n, m=args.m, geometry=args.geometry, policy=args.policy
    )
    print(render_schedule(impl.order))
    return 0


def _cmd_level(args) -> int:
    from .algorithms.transitive_closure import tc_regular
    from .viz import render_level_grid

    if not (0 <= args.k < args.n):
        print(f"level k must be in [0, {args.n})", file=sys.stderr)
        return 2
    print(render_level_grid(tc_regular(args.n), args.k, args.n))
    return 0


def _cmd_fixed(args) -> int:
    from .algorithms.transitive_closure import make_inputs, tc_regular
    from .algorithms.warshall import random_adjacency, warshall
    from .core.ggraph import GGraph, group_by_columns
    from .arrays.cycle_sim import simulate
    from .arrays.plan import fixed_array_plan, min_initiation_interval

    dg = tc_regular(args.n)
    gg = GGraph(dg, group_by_columns)
    ep = fixed_array_plan(gg)
    a = random_adjacency(args.n, seed=args.seed)
    res = simulate(ep, dg, make_inputs(a))
    ok = bool(np.array_equal(res.output_matrix(args.n), warshall(a)))
    print(f"cells={len(gg)} II={min_initiation_interval(ep)} "
          f"makespan={res.makespan} correct={ok}")
    return 0 if ok else 1


def _cmd_lint(args) -> int:
    import json

    from .lint import (
        SCHEMA_VERSION,
        lint_config,
        lint_implementation,
        lint_shipped_configs,
    )

    modes = (args.experiments, bool(args.config), args.from_run is not None)
    if sum(modes) > 1:
        print("lint: --experiments, --config and --from-run are mutually "
              "exclusive", file=sys.stderr)
        return 2
    if args.update_baseline and not args.baseline:
        print("lint: --update-baseline needs --baseline FILE",
              file=sys.stderr)
        return 2

    notes: list[str] = []
    if args.from_run is not None:
        from .lint.planner import lint_from_run

        try:
            res = lint_from_run(args.from_run, args.dir)
        except FileNotFoundError as exc:
            print(f"lint: {exc}", file=sys.stderr)
            return 1
        except ValueError as exc:
            print(f"lint: {exc}", file=sys.stderr)
            return 2
        reports = {args.from_run: res["report"]}
        if res["matches"] is None:
            notes.append(
                f"run {args.from_run} recorded no plan fingerprint; "
                "linted today's rebuild"
            )
        elif res["matches"]:
            notes.append(
                f"plan fingerprint matches the run ledger "
                f"({res['fingerprint'][:12]})"
            )
        else:
            notes.append(
                "WARNING: today's plan fingerprint "
                f"{res['fingerprint'][:12]} is not among the "
                f"{len(res['recorded'])} the ledger recorded - the "
                "design has drifted since that run"
            )
    elif args.experiments:
        reports = lint_shipped_configs(planner=args.planner)
    elif args.config:
        try:
            reports = {
                args.config: lint_config(args.config, planner=args.planner)
            }
        except KeyError as exc:
            print(f"lint: {exc.args[0]}", file=sys.stderr)
            return 2
    else:
        from .core.metrics import tc_io_bandwidth
        from .core.partitioner import partition_transitive_closure

        impl = partition_transitive_closure(
            n=args.n, m=args.m, geometry=args.geometry,
            policy=args.policy, aligned=not args.packed,
        )
        name = (f"tc-n{args.n}-m{args.m}-{args.geometry}-{args.policy}"
                + ("-packed" if args.packed else ""))
        reports = {
            name: lint_implementation(
                impl, description=name,
                io_bound=tc_io_bandwidth(args.n, args.m),
                planner=args.planner,
            )
        }

    diff = None
    if args.baseline:
        from .lint.baseline import (
            apply_baseline,
            build_baseline,
            load_baseline,
            save_baseline,
        )

        if args.update_baseline:
            doc = build_baseline(reports)
            save_baseline(args.baseline, doc)
            notes.append(
                f"baseline: wrote {len(doc['findings'])} accepted "
                f"finding(s) to {args.baseline}"
            )
        else:
            try:
                baseline = load_baseline(args.baseline)
            except (OSError, ValueError, json.JSONDecodeError) as exc:
                print(f"lint: cannot load baseline: {exc}", file=sys.stderr)
                return 2
            diff = apply_baseline(reports, baseline)
            notes.append(diff.summary())
    if args.baseline_diff_out:
        if diff is None:
            print("lint: --baseline-diff-out needs --baseline (without "
                  "--update-baseline)", file=sys.stderr)
            return 2
        _write_text(
            args.baseline_diff_out,
            json.dumps(diff.to_dict(), indent=2, sort_keys=True) + "\n",
        )
        notes.append(f"baseline diff written to {args.baseline_diff_out}")

    errors = sum(len(rep.errors) for rep in reports.values())
    warnings = sum(len(rep.warnings) for rep in reports.values())
    summary = (f"{len(reports)} design(s), {errors} error(s), "
               f"{warnings} warning(s)")
    if args.format == "text":
        body = "\n\n".join(rep.to_text() for rep in reports.values())
        if len(reports) > 1:
            body += f"\n\nlint total: {summary}"
    elif args.format == "json":
        doc = {
            "version": SCHEMA_VERSION,
            "ok": all(rep.ok for rep in reports.values()),
            "reports": {n: rep.to_dict() for n, rep in reports.items()},
        }
        body = json.dumps(doc, indent=2, sort_keys=True)
    else:  # sarif: one SARIF run per linted design
        doc = None
        for rep in reports.values():
            one = rep.to_sarif()
            if doc is None:
                doc = one
            else:
                doc["runs"].extend(one["runs"])
        body = json.dumps(doc, indent=2, sort_keys=True)

    _emit(body, args.out,
          f"lint: wrote {args.format} report to {args.out} ({summary})")
    for note in notes:
        print(f"lint: {note}")
    return 1 if errors else 0


def _cmd_faults(args) -> int:
    import json

    from .resilience import (
        FaultKind,
        campaign_config,
        run_campaign,
        timeline_chrome_events,
    )
    from .resilience.report import RESILIENCE_PID

    if args.experiments and args.config:
        print("faults: --experiments and --config are mutually exclusive",
              file=sys.stderr)
        return 2
    configs = None
    if args.config:
        try:
            configs = [campaign_config(args.config)]
        except KeyError as exc:
            print(f"faults: {exc.args[0]}", file=sys.stderr)
            return 2
    kinds = None
    if args.kinds:
        if args.regime:
            print("faults: --kinds has no effect with --regime "
                  "(regimes plan their own fault mixes)", file=sys.stderr)
            return 2
        try:
            kinds = [FaultKind(k.strip()) for k in args.kinds.split(",")]
        except ValueError:
            print("faults: unknown fault kind; choose from "
                  + ", ".join(k.value for k in FaultKind), file=sys.stderr)
            return 2
    regime = None
    if args.regime:
        from .resilience import REGIME_NAMES

        regime = list(REGIME_NAMES) if args.regime == "all" else args.regime
    regime_knobs = {
        k: v
        for k, v in {
            "radius": args.cluster_radius,
            "p_enter": args.burst_enter,
            "p_exit": args.burst_exit,
            "strikes": args.hammer_strikes,
        }.items()
        if v is not None
    }

    result = run_campaign(
        seed=args.seed, configs=configs, kinds=kinds,
        jobs=args.jobs, backend=args.backend,
        regime=regime, regime_knobs=regime_knobs,
    )

    if args.trace_out:
        events = []
        for i, run in enumerate(r for r in result.runs if r.result is not None):
            for ev in timeline_chrome_events(run.result):
                ev["pid"] = RESILIENCE_PID + i  # one process lane per run
                events.append(ev)
        _write_text(
            args.trace_out, json.dumps({"traceEvents": events}, indent=2) + "\n"
        )
        print(f"faults: wrote {len(events)} trace events to {args.trace_out} "
              "-- open in https://ui.perfetto.dev")

    if args.summary_out:
        summary = result.regime_summary()
        _write_text(
            args.summary_out,
            json.dumps(summary, indent=2, sort_keys=True) + "\n",
        )
        print(f"faults: wrote regime summary to {args.summary_out} "
              f"({len(summary['regimes'])} regime(s))")

    if args.format == "json":
        body = json.dumps(result.to_dict(), indent=2, sort_keys=True)
    else:
        body = result.to_text()
    good = sum(1 for r in result.runs if r.ok)
    _emit(body, args.out, f"faults: wrote {args.format} report to {args.out} "
                          f"({good}/{len(result.runs)} runs ok)")
    return 0 if result.ok else 1


def _print_tables(results) -> None:
    """Print ``(experiment id, rows)`` pairs as titled tables."""
    from .experiments import EXPERIMENTS
    from .viz import format_table

    for eid, rows in results:
        exp = EXPERIMENTS[eid]
        print(f"== {exp.exp_id}: {exp.title} ==")
        print(format_table(rows))
        print()


def _cmd_reproduce(args) -> int:
    from .experiments import EXPERIMENTS

    if not args.exp:
        print("available experiments:")
        for exp in EXPERIMENTS.values():
            print(f"  {exp.exp_id:>8}  {exp.title}")
        return 0
    unknown = [e for e in args.exp if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment id(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    _print_tables((eid, EXPERIMENTS[eid].run()) for eid in args.exp)
    return 0


def _sample_sources(n: int, k: int) -> "np.ndarray":
    """Deterministic sorted sample of ``k`` distinct sources in ``[0, n)``."""
    if k >= n:
        return np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(0)
    return np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)


def _cmd_closure(args) -> int:
    import json
    from time import perf_counter

    from .datasets import DatasetError, compute_closure, resolve_dataset
    from .datasets.closure import DENSE_CUTOFF
    from .obs import runlog
    from .obs.tracing import stage_span

    try:
        with stage_span("dataset.load", spec=args.dataset):
            ds = resolve_dataset(args.dataset, n=args.n, remap=args.remap)
    except DatasetError as exc:
        print(f"closure: {exc}", file=sys.stderr)
        return 2
    runlog.record("dataset", **ds.describe())

    t0 = perf_counter()
    with stage_span("closure.compute", engine=args.engine) as sp:
        res = compute_closure(ds, args.engine)
        sp.tag("kernel", res.kernel)
    wall = perf_counter() - t0
    # One popcount per result: the summary and the ledger share it.
    closure_edges = res.closure_edges
    summary = {
        "dataset": ds.describe(),
        "engine": res.engine,
        "kernel": res.kernel,
        "wall_s": round(wall, 6),
        "closure_edges": closure_edges,
        "mean_reach": round(closure_edges / ds.n, 3) if ds.n else 0.0,
    }
    runlog.record(
        "closure", engine=res.engine, kernel=res.kernel,
        wall_s=summary["wall_s"], closure_edges=closure_edges,
    )

    agree = None
    if args.check:
        # Above the dense cutoff a full second closure can dwarf the
        # run itself, so the check compares a deterministic sample of
        # source rows instead of all n.
        srcs = (
            None if ds.n <= DENSE_CUTOFF
            else _sample_sources(ds.n, args.check_sources)
        )
        t0 = perf_counter()
        with stage_span("closure.check", engine=args.check) as sp:
            other = compute_closure(ds, args.check, sources=srcs)
            sp.tag("sources", int(len(other.sources)))
        check_wall = perf_counter() - t0
        mine = res.words if srcs is None else res.words[srcs]
        agree = bool(np.array_equal(mine, other.words))
        summary["check"] = {
            "engine": other.engine,
            "kernel": other.kernel,
            "sources": int(len(other.sources)),
            "wall_s": round(check_wall, 6),
            "agree": agree,
        }
        runlog.record(
            "closure_check", engine=other.engine, agree=agree,
            sources=int(len(other.sources)),
        )

    if args.format == "json":
        body = json.dumps(summary, indent=2, sort_keys=True)
    else:
        d = summary["dataset"]
        lines = [
            f"dataset: {d['name']} (n={d['n']}, m={d['m']}, "
            f"self_loops={d['self_loops']})",
            f"engine: {res.engine} (kernel {res.kernel}) "
            f"wall={summary['wall_s']}s",
            f"closure: {closure_edges} reachable pairs "
            f"(mean reach {summary['mean_reach']})",
        ]
        if agree is not None:
            c = summary["check"]
            lines.append(
                f"check: {c['engine']} on {c['sources']} source(s) "
                f"wall={c['wall_s']}s agree={c['agree']}"
            )
        body = "\n".join(lines)
    _emit(body, args.out, f"closure: wrote summary to {args.out}")
    return 0 if agree in (None, True) else 1


def _bench_dataset(args) -> int:
    """``repro bench --dataset``: closure engines head-to-head.

    Every engine runs on the same loaded graph; the bit-packed engine
    is the reference each other engine's rows are compared against
    (bit-for-bit).  Small graphs additionally run the partitioned-array
    simulator on both backends, closing the loop between the paper's
    systolic schedules and the host-level engines.
    """
    from time import perf_counter

    from .datasets import DatasetError, compute_closure, resolve_dataset
    from .datasets.closure import DENSE_CUTOFF
    from .obs import runlog
    from .viz import format_table

    try:
        ds = resolve_dataset(args.dataset, remap=args.remap)
    except DatasetError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    runlog.record("dataset", **ds.describe())

    t0 = perf_counter()
    oracle = compute_closure(ds, "bitpack")
    oracle_wall = perf_counter() - t0
    rows = [{
        "engine": "bitpack", "kernel": oracle.kernel,
        "sources": ds.n, "wall_s": round(oracle_wall, 6),
        "closure_edges": oracle.closure_edges, "agree": True,
    }]

    big = ds.n > DENSE_CUTOFF
    srcs = _sample_sources(ds.n, args.sources) if big else None
    engines = (["ssc1", "ssc2", "ssc12"] if big
               else ["reference", "ssc1", "ssc2", "ssc12"])
    for engine in engines:
        t0 = perf_counter()
        res = compute_closure(ds, engine, sources=srcs)
        wall = perf_counter() - t0
        mine = oracle.words if srcs is None else oracle.words[srcs]
        rows.append({
            "engine": engine, "kernel": res.kernel,
            "sources": int(len(res.sources)), "wall_s": round(wall, 6),
            "closure_edges": res.closure_edges,
            "agree": bool(np.array_equal(mine, res.words)),
        })

    if 3 <= ds.n <= 32:
        # Small enough for an FPDG: run the partitioned-array simulator
        # on the same adjacency via both backends.
        from .algorithms.transitive_closure import make_inputs
        from .arrays.vector_sim import dispatch_simulate
        from .core.bitmatrix import unpack_rows
        from .core.partitioner import partition_transitive_closure

        closed = unpack_rows(oracle.words, ds.n)
        impl = partition_transitive_closure(n=ds.n, m=4)
        inputs = make_inputs(ds.adjacency())
        for backend in ("reference", "vector"):
            t0 = perf_counter()
            res = dispatch_simulate(
                impl.exec_plan, impl.dg, inputs, backend=backend
            )
            wall = perf_counter() - t0
            rows.append({
                "engine": f"array-{backend}", "kernel": "systolic",
                "sources": ds.n, "wall_s": round(wall, 6),
                "closure_edges": int(res.output_matrix(ds.n).sum()),
                "agree": bool(
                    np.array_equal(res.output_matrix(ds.n), closed)
                ),
            })

    for row in rows:
        runlog.record("closure", dataset=ds.name, **row)
    print(f"== DS-{ds.name}: closure engines on n={ds.n}, m={ds.m} ==")
    print(format_table(rows))
    return 0 if all(r["agree"] for r in rows) else 1


def _cmd_bench(args) -> int:
    from .experiments import EXPERIMENTS
    from .experiments.runner import run_experiments

    if args.dataset:
        return _bench_dataset(args)
    exp_ids = list(args.exp) if args.exp else list(EXPERIMENTS)
    try:
        results = run_experiments(
            exp_ids, jobs=args.jobs, backend=args.backend
        )
    except KeyError as exc:
        print(f"bench: {exc.args[0]}", file=sys.stderr)
        return 2
    _print_tables(results)
    return 0


def _cmd_trace(args) -> int:
    impl, res, ok, tracer, probe = _run_traced_pipeline(args)
    n_events = tracer.write_chrome(args.trace_out)
    stages = sorted({s.name for s in tracer.spans})
    print(f"pipeline stages traced: {', '.join(stages)}")
    census = probe.operand_source_census()
    print(f"simulated {len(probe.fires)} fires over {res.makespan} cycles; "
          f"operand sources: " +
          ", ".join(f"{k}={v}" for k, v in census.items() if v))
    print(f"simulation: makespan={res.makespan} violations="
          f"{len(res.violations)} correct={ok}")
    print(f"trace: {args.trace_out} ({n_events} events, "
          f"{len(tracer.spans)} spans) -- open in https://ui.perfetto.dev")
    return 0 if (ok and res.ok) else 1


def _cmd_stats(args) -> int:
    from .obs import (
        MetricsRegistry,
        register_expected_metrics,
        register_sim_metrics,
    )

    impl, res, ok, _tracer, _probe = _run_traced_pipeline(args)
    reg = MetricsRegistry()
    labels = {"n": args.n, "m": args.m, "geometry": args.geometry}
    register_sim_metrics(reg, res, impl.report, labels=labels)
    register_expected_metrics(reg, args.n, args.m, args.geometry, labels=labels)
    reg.gauge("repro_sim_correct", "closure matched the software oracle").set(
        int(ok), **labels
    )
    if args.format == "json":
        print(reg.dump_json())
    else:
        print(reg.to_prometheus(), end="")
    # Measured vs. Sec. 4.2 closed forms.  Throughput/utilization are
    # exact iff m | n+1 with packed G-sets (the paper's divisibility
    # assumption); boundary G-sets account for any gap.  D_IO = m/n is a
    # *sufficient bound*: a host at that constant rate must meet every
    # word deadline (checked through the Fig. 21 R-block chain).
    from fractions import Fraction

    from .arrays.host import simulate_rblock_chain
    from .core.metrics import (
        memory_connections,
        tc_io_bandwidth,
        tc_linear_throughput,
        tc_mesh_throughput,
        tc_utilization,
    )

    rep = impl.report
    thr_form = tc_linear_throughput if args.geometry == "linear" else tc_mesh_throughput
    pairs = [
        ("throughput", rep.throughput, thr_form(args.n, args.m)),
        ("utilization", rep.utilization, tc_utilization(args.n)),
        ("memory_ports", rep.memory_connections,
         memory_connections(args.geometry, args.m)),
    ]
    exact = (args.n + 1) % args.m == 0 and args.packed
    print(f"\n# measured vs closed form (exact regime -- packed and m | n+1: "
          f"{exact})")
    for name, measured, expected in pairs:
        dev = (
            abs(float(measured) - float(expected)) / float(expected)
            if float(expected) else 0.0
        )
        print(f"#   {name:>12}: measured={float(measured):.6g} "
              f"expected={float(expected):.6g} deviation={dev:.2%}")
    d_io = tc_io_bandwidth(args.n, args.m)
    chain = simulate_rblock_chain(res, Fraction(d_io))
    print(f"#   {'io_bandwidth':>12}: measured_avg="
          f"{float(res.average_host_bandwidth()):.6g} "
          f"bound=m/n={float(d_io):.6g} "
          f"host@bound_meets_deadlines={chain.feasible}")
    return 0 if (ok and res.ok) else 1


def _cmd_perfcheck(args) -> int:
    import json

    from .obs import perf

    skipped: list[tuple[int, str]] = []
    try:
        current = perf.load_records(args.current, skipped=skipped)
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfcheck: cannot read --current: {exc}", file=sys.stderr)
        return 2
    if args.update_baseline:
        doc = {"version": perf.SCHEMA_VERSION, "experiments": current}
        _write_text(
            args.baseline,
            json.dumps(doc, indent=2, sort_keys=True, default=repr) + "\n",
        )
        print(f"perfcheck: baseline {args.baseline} updated "
              f"({len(current)} experiment(s))")
        return 0
    try:
        baseline = perf.load_records(args.baseline, skipped=skipped)
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfcheck: cannot read --baseline: {exc}", file=sys.stderr)
        return 2
    regressions = perf.compare(baseline, current)
    print(perf.format_report(
        baseline, current, regressions, skipped_lines=len(skipped),
    ))
    return 1 if regressions else 0


def _read_ledger(verb: str, run_id: str, ledger_dir) -> "list[dict] | None":
    """``run_id``'s ledger events, or ``None`` once the error is printed."""
    from .obs import runlog

    path = runlog.ledger_path(run_id, ledger_dir)
    try:
        events, problems = runlog.read_ledger(path)
    except OSError as exc:
        print(f"{verb}: cannot read {path}: {exc}", file=sys.stderr)
        return None
    if problems:
        print(f"{verb}: {len(problems)} corrupt line(s) skipped",
              file=sys.stderr)
    return events


@contextmanager
def _recorded_stages() -> Iterator[list[dict]]:
    """Record the block's ledger events in memory, even with no run open.

    The yielded list fills with the events (stage pairs included) the
    block emits; on exit they are folded into the open run, if any, so
    ``repro profile --from-run`` on this run sees the same stages.
    """
    from .obs import runlog

    outer = runlog.current_run()
    payload = runlog.worker_payload() or {"run": "profile", "entry": "profile"}
    with runlog.worker_scope(payload) as rl:
        try:
            yield rl.events
        finally:
            if outer is not None:
                outer.absorb(rl.events)


def _cmd_profile(args) -> int:
    import json
    from time import perf_counter

    from .obs import profile as prof
    from .obs.tracing import stage_span

    modes = sum(
        1 for flag in (args.experiment, args.from_run, args.n) if flag is not None
    )
    if modes > 1:
        print("profile: --experiment, --n and --from-run are mutually "
              "exclusive", file=sys.stderr)
        return 2

    if args.from_run is not None:
        events = _read_ledger("profile", args.from_run, args.dir)
        if events is None:
            return 1
        phases = prof.profile_from_runlog(events, root_name=args.from_run)
        doc = prof.build_profile_document(phases, wall_s=phases.total_s)
        base_id = args.from_run
        ok = True
    elif args.experiment is not None:
        from .arrays.vector_sim import resolve_backend, set_default_backend
        from .experiments import EXPERIMENTS

        if args.experiment not in EXPERIMENTS:
            print(f"profile: unknown experiment {args.experiment!r}; "
                  f"choose from {', '.join(EXPERIMENTS)}", file=sys.stderr)
            return 2
        backend = resolve_backend(args.backend)
        previous = set_default_backend(backend)
        try:
            with _recorded_stages() as events, prof.kernel_profiling() as kp:
                t0 = perf_counter()
                with stage_span(
                    f"experiment.{args.experiment}", backend=backend
                ):
                    EXPERIMENTS[args.experiment].run()
                wall = perf_counter() - t0
        finally:
            set_default_backend(previous)
        phases = prof.profile_from_runlog(events, wall_s=wall)
        critical = [
            prof.config_critical_report(g, n, m, backend=backend,
                                        top=args.top)
            for g, n, m in prof.experiment_configs(args.experiment)
        ]
        doc = prof.build_profile_document(
            phases, wall, kernels=kp.summary(), critical_paths=critical,
            experiment=args.experiment, backend=backend,
        )
        base_id = args.experiment
        ok = True
    else:
        from .algorithms.transitive_closure import make_inputs
        from .algorithms.warshall import random_adjacency, warshall
        from .arrays.vector_sim import dispatch_simulate, resolve_backend
        from .core.partitioner import partition_transitive_closure

        n = args.n if args.n is not None else 12
        backend = resolve_backend(args.backend)
        with _recorded_stages() as events, prof.kernel_profiling() as kp:
            t0 = perf_counter()
            with stage_span(
                "profile.config", n=n, m=args.m, geometry=args.geometry
            ):
                impl = partition_transitive_closure(
                    n=n, m=args.m, geometry=args.geometry,
                    policy=args.policy,
                )
                a = random_adjacency(n, seed=args.seed)
                res = dispatch_simulate(
                    impl.exec_plan, impl.dg, make_inputs(a),
                    backend=backend,
                )
            wall = perf_counter() - t0
        ok = bool(np.array_equal(res.output_matrix(n), warshall(a)))
        cp = prof.critical_path(impl.exec_plan, impl.dg)
        config = {
            "n": n, "m": args.m, "geometry": args.geometry,
            "policy": args.policy, "seed": args.seed, "correct": ok,
        }
        critical = [{
            "config": f"{args.geometry}-n{n}-m{args.m}",
            "geometry": args.geometry, "n": n, "m": args.m,
            "makespan": res.makespan,
            "start_cycle": cp.start_cycle,
            "end_cycle": cp.end_cycle,
            "length": cp.length,
            "matches_makespan": cp.length == res.makespan,
            "busy": res.busy, "useful": res.useful,
            "fired_nodes": len(impl.exec_plan.fires),
            "path_nodes": len(cp.steps),
            "zero_slack_nodes": cp.zero_slack_nodes,
            "hotspots": prof.attribute_makespan(cp, top=args.top),
        }]
        phases = prof.profile_from_runlog(events, wall_s=wall)
        doc = prof.build_profile_document(
            phases, wall, kernels=kp.summary(), critical_paths=critical,
            config=config, backend=backend,
        )
        base_id = f"{args.geometry}-n{n}-m{args.m}"

    body = (
        json.dumps(doc, indent=2, sort_keys=True) if args.json
        else prof.render_profile_text(doc, top=args.top)
    )
    _emit(body, args.out, f"profile: wrote {'json' if args.json else 'text'} "
                          f"report to {args.out}")

    if args.flame_out:
        from .viz import svg_flamegraph

        _write_text(args.flame_out, svg_flamegraph(
            doc["phases"], title=f"repro profile: {base_id}"
        ))
        print(f"profile: wrote flamegraph to {args.flame_out}")
    if args.folded_out:
        folded = prof.to_folded(phases)
        _write_text(args.folded_out, "\n".join(folded) + "\n")
        print(f"profile: wrote {len(folded)} folded stack(s) to "
              f"{args.folded_out}")
    return 0 if ok else 1


def _cmd_obs(args) -> int:
    from .obs import runlog

    if args.obs_command == "list":
        summaries = runlog.list_runs(args.dir)
        if not summaries:
            print(f"obs: no ledgers under {runlog.runlog_dir(args.dir)}")
            return 0
        print(f"{'run':<34} {'entry':<12} {'events':>6} {'tasks':>5} "
              f"{'dur(s)':>8} ok")
        for s in summaries[: args.limit]:
            dur = (
                f"{s['duration_s']:8.3f}"
                if s["duration_s"] is not None else f"{'?':>8}"
            )
            print(f"{s['run'] or '?':<34} {s['entry'] or '?':<12} "
                  f"{s['events']:>6} {len(s['tasks']):>5} {dur} "
                  f"{s['ok']}")
        return 0

    if args.obs_command == "show":
        run_id = args.run_id
        if run_id is None:
            summaries = runlog.list_runs(args.dir)
            if not summaries:
                print(
                    f"obs: no ledgers under {runlog.runlog_dir(args.dir)}",
                    file=sys.stderr,
                )
                return 1
            run_id = summaries[0]["run"]
        events = _read_ledger("obs", run_id, args.dir)
        if events is None:
            return 1
        print(runlog.format_show(events))
        return 0

    if args.obs_command == "diff":
        loaded = [_read_ledger("obs", r, args.dir)
                  for r in (args.run_a, args.run_b)]
        if loaded[0] is None or loaded[1] is None:
            return 1
        text, identical = runlog.format_diff(
            loaded[0], loaded[1], args.run_a, args.run_b
        )
        print(text)
        return 0 if identical else 1

    # verify
    run_ids = args.run_ids or [s["run"] for s in runlog.list_runs(args.dir)]
    targets = [(rid, runlog.ledger_path(rid, args.dir)) for rid in run_ids]
    if not targets:
        print(f"obs: no ledgers under {runlog.runlog_dir(args.dir)}",
              file=sys.stderr)
        return 1
    bad = 0
    for run_id, path in targets:
        try:
            events, problems = runlog.read_ledger(path)
        except OSError as exc:
            print(f"{run_id}: FAIL (cannot read: {exc})")
            bad += 1
            continue
        findings = runlog.verify_ledger(events, problems, run_id=run_id)
        if findings:
            bad += 1
            print(f"{run_id}: FAIL ({len(findings)} finding(s))")
            for f in findings:
                print(f"  - {f}")
        else:
            print(f"{run_id}: ok ({len(events)} event(s))")
    print(f"obs verify: {len(targets) - bad}/{len(targets)} ledger(s) clean")
    return 1 if bad else 0


def _cmd_dashboard(args) -> int:
    from .obs.dashboard import build_dashboard

    sizes = None
    if args.sizes:
        try:
            sizes = sorted({int(s) for s in args.sizes.split(",") if s.strip()})
        except ValueError:
            sizes = []
        if not sizes or sizes[0] < MIN_N:
            print(f"dashboard: bad --sizes {args.sizes!r} (want n >= {MIN_N}, "
                  "e.g. 6,9,12)", file=sys.stderr)
            return 2
    from .obs import runlog as _runlog

    runs_dir = _runlog.runlog_dir(args.runs)
    html = build_dashboard(
        n=args.n, m=args.m, geometry=args.geometry, policy=args.policy,
        seed=args.seed, sizes=sizes,
        runlog_dir=str(runs_dir) if runs_dir.is_dir() else None,
        regimes=args.regimes,
    )
    _write_text(args.out, html)
    print(f"dashboard: {args.out} ({len(html):,} bytes)")
    return 0


_COMMANDS = {
    "stages": _cmd_stages,
    "partition": _cmd_partition,
    "ggraph": _cmd_ggraph,
    "schedule": _cmd_schedule,
    "level": _cmd_level,
    "fixed": _cmd_fixed,
    "lint": _cmd_lint,
    "faults": _cmd_faults,
    "reproduce": _cmd_reproduce,
    "bench": _cmd_bench,
    "closure": _cmd_closure,
    "trace": _cmd_trace,
    "stats": _cmd_stats,
    "perfcheck": _cmd_perfcheck,
    "profile": _cmd_profile,
    "obs": _cmd_obs,
    "dashboard": _cmd_dashboard,
}

#: Verbs that open a run-ledger scope (see :mod:`repro.obs.runlog`).
#: ``jobs`` is excluded from the run identity so ``--jobs N`` shares the
#: sequential run's ledger.
_LEDGER_VERBS = frozenset(
    {"partition", "trace", "faults", "bench", "perfcheck", "profile",
     "lint", "closure"}
)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "geometry", None) == "mesh" and math.isqrt(args.m) ** 2 != args.m:
        parser.error(f"--geometry mesh needs a perfect-square --m, got {args.m}")
    handler = _COMMANDS[args.command]
    if args.command in _LEDGER_VERBS:
        from .obs import runlog

        params = {
            k: v for k, v in sorted(vars(args).items())
            if k not in ("command", "jobs")
        }
        # A verb reading a ledger from --dir records its own run there.
        from_run = getattr(args, "from_run", None) is not None
        ledger_dir = getattr(args, "dir", None) if from_run else None
        with runlog.run_scope(args.command, params, dir=ledger_dir):
            return handler(args)
    return handler(args)
