"""End-to-end benchmark for the reproduction: four workloads, one command.

Run every workload, untraced and then traced, and save the results::

    python benchmarks/e2e/run.py --seed 0 --out results.json

Run one workload once (the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics untraced, the per-layer metrics with ``--trace 1``)::

    python benchmarks/e2e/run.py --workload design-cold --seed 3 \\
        --seconds 20 --trace 0

Compare two results files, or the medians of two sets of them, against
the bounds in ``BENCHMARK.json`` (exit 1 on a regression, a differing
deterministic count, failed ops or differing environment stamps)::

    python benchmarks/e2e/run.py compare base.json change.json
    python benchmarks/e2e/run.py compare b1.json b2.json b3.json \\
        --against c1.json c2.json c3.json

Metric names, units, directions and bounds come from ``BENCHMARK.json``
at the repository root; ``README.md`` beside this file defines them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from typing import Any

import harness
import layers

BENCHMARK = harness.ROOT / "BENCHMARK.json"
#: Per-layer units whose values depend only on the inputs, so two runs
#: with the same seed must agree on them exactly.
DETERMINISTIC_UNITS = ("count", "cycles", "ratio")
#: Seconds of traced ops per workload in the all-workloads mode.
TRACE_SECONDS = 3.0


def env_stamp() -> dict[str, Any]:
    """What a result depends on besides the code: compare refuses to
    compare results whose stamps differ."""
    def pkg(name: str) -> str | None:
        try:
            return version(name)
        except PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": pkg("numpy"),
        "scipy": pkg("scipy"),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def end_to_end(m: harness.Measured) -> dict[str, float]:
    lat = [t for _, t in m.loop.samples]
    return {
        "setup_s": harness.median(m.setup_s),
        "op_p50_s": harness.median(lat),
        # Median over rounds, not ops / total wall: one stalled op on a
        # shared machine would otherwise move the whole run's number.
        "ops_per_s": harness.median(
            [m.loop.round_len / t for t in m.loop.rounds]
        ),
        "peak_rss_mb": m.rss_kb / 1024,
    }


def per_layer(m: harness.Measured) -> dict[str, float]:
    """Per-layer metrics of a traced run, counts per traced pass."""
    tr, passes = m.trace, max(m.loop.passes, 1)
    calls, self_s = tr.get("calls", {}), tr.get("self_s", {})
    counters, extra = tr.get("counters", {}), tr.get("extra", {})
    wall = sum(t for _, t in m.loop.traced)
    out: dict[str, float] = {}
    for layer in layers.LAYERS:
        out[f"{layer.name}.share"] = 100 * self_s.get(layer.name, 0.0) / wall
        out[f"{layer.name}.calls"] = calls.get(layer.name, 0) / passes
    out["unattributed.share"] = 100 - sum(
        v for k, v in out.items() if k.endswith(".share")
    )
    out["process.import_s"] = harness.median(tr.get("import_s", []))
    untraced = harness.median([t for _, t in m.loop.samples])
    traced = harness.median([t for _, t in m.loop.traced])
    out["trace.overhead_ratio"] = traced / untraced if untraced else 0.0
    lookups = calls.get("arrays.vector_compile.get_compiled", 0)
    compiles = calls.get("arrays.vector_compile.compile_plan", 0)
    out["arrays.vector_compile.cache_hit_ratio"] = (
        1 - compiles / lookups if lookups else 0.0
    )
    sim_s = self_s.get("arrays.cycle_sim.simulate", 0.0)
    out["arrays.cycle_sim.fires_per_s"] = (
        counters.get("fires", 0) / sim_s if sim_s else 0.0
    )
    out["arrays.sim.makespan_cycles"] = counters.get("makespan_cycles", 0) / passes
    out["arrays.vector_sim.fallbacks"] = tr.get("fallbacks", 0) / passes
    for key in ("attempts", "retries", "repartitions"):
        out[f"resilience.{key}"] = counters.get(key, 0) / passes
    attempts = counters.get("attempts", 0)
    out["resilience.useful_attempt_ratio"] = (
        counters.get("committed", 0) / attempts if attempts else 0.0
    )
    load_s = self_s.get("datasets.edgelist.load_edgelist", 0.0)
    out["datasets.edgelist.edges_per_s"] = (
        counters.get("edges", 0) / load_s if load_s else 0.0
    )
    for geometry in ("linear", "mesh"):
        key = f"arrays.vector_compile.break_even_replays.{geometry}"
        out[key] = extra.get(key, 0.0)
    return out


def _with_units(values: dict[str, float], specs: list[dict]) -> dict[str, dict]:
    return {
        s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
        for s in specs
    }


def run_one(
    name: str, seed: int, seconds: float, trace: bool, bench: dict
) -> dict[str, Any]:
    """Measure one workload once; return its results record."""
    return record(harness.measure(name, seed, seconds, trace), seconds, trace, bench)


def record(
    m: harness.Measured, seconds: float, trace: bool, bench: dict
) -> dict[str, Any]:
    """The results record of one measured run."""
    lat = [t for _, t in m.loop.samples]
    rec: dict[str, Any] = {
        "correct": m.loop.failed == 0,
        "attempted": m.loop.attempted,
        "failed": m.loop.failed,
        "samples": len(lat),
        "setup_samples": m.setup_s,
        "seconds": seconds,
    }
    if trace:
        rec["passes"] = m.loop.passes
        rec["layers"] = _with_units(per_layer(m), bench["per_layer"])
        traced_ops = max(len(m.loop.traced), 1)
        rec["layer_table"] = [
            {
                "layer": layer.name,
                "calls_per_pass": m.trace.get("calls", {}).get(layer.name, 0)
                / max(m.loop.passes, 1),
                "self_s_per_op": m.trace.get("self_s", {}).get(layer.name, 0.0)
                / traced_ops,
            }
            for layer in layers.LAYERS
        ]
    else:
        rec["metrics"] = _with_units(end_to_end(m), bench["end_to_end"])
        # Reported, not gated: the highest percentile with at least ten
        # samples beyond it exists only from 100 samples up.
        rec["op_p90_s"] = (
            statistics.quantiles(lat, n=10)[8] if len(lat) >= 100 else None
        )
        rec["rounds"] = len(m.loop.rounds)
    return rec


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def _fmt(v: Any) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def print_end_to_end(results: dict[str, Any]) -> None:
    recs = {k: r for k, r in results["workloads"].items() if "metrics" in r}
    if recs:
        print(f"{'workload':<16} {'metric':<12} {'value':>12} unit   samples")
    for name, rec in recs.items():
        rows = [(k, v["value"], v["unit"]) for k, v in rec["metrics"].items()]
        rows.append(("fail_ratio", rec["failed"] / rec["attempted"], "ratio"))
        rows.append(("op_p90_s", rec.get("op_p90_s"), "s"))
        counts = {"setup_s": len(rec["setup_samples"]), "ops_per_s": rec["rounds"]}
        for metric, value, unit in rows:
            n = counts.get(metric, rec["samples"])
            print(f"{name:<16} {metric:<12} {_fmt(value):>12} {unit:<6} {n}")


def print_layers(results: dict[str, Any]) -> None:
    for name, rec in results["workloads"].items():
        if "layers" not in rec:
            continue
        shares = rec["layers"]
        print(f"\n[{name}] traced passes={rec['passes']} "
              f"overhead={shares['trace.overhead_ratio']['value']:.3f}x "
              f"import={shares['process.import_s']['value']:.3f}s")
        print(f"  {'layer':<46} {'calls/pass':>10} {'self ms/op':>11} {'share%':>7}")
        for row in rec["layer_table"]:
            if not row["calls_per_pass"]:
                continue
            share = shares[f"{row['layer']}.share"]["value"]
            print(f"  {row['layer']:<46} {row['calls_per_pass']:>10.6g} "
                  f"{row['self_s_per_op'] * 1e3:>11.3f} {share:>7.2f}")
        print(f"  {'unattributed':<46} {'':>10} {'':>11} "
              f"{shares['unattributed.share']['value']:>7.2f}")
        for key, spec in shares.items():
            if key.endswith((".share", ".calls")) or not spec["value"]:
                continue
            print(f"  {key:<58} {_fmt(spec['value']):>12} {spec['unit']}")


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

def compare(base: list[str], change: list[str], bench: dict) -> int:
    """Print the change set against the base set per workload x metric.

    Each side is one or more results files; a metric's value on a side
    is its median over that side's files.  Returns 1 on a regression
    beyond a bound, a failed op on the change side, a deterministic
    count that differs between any two files of the same seed, or
    environment stamps that differ.
    """
    sides = [[json.loads(Path(p).read_text()) for p in paths]
             for paths in (base, change)]
    runs = sides[0] + sides[1]
    bad = 0
    envs = sorted({json.dumps(r.get("env"), sort_keys=True) for r in runs})
    if len(envs) > 1:
        print("ENV DIFFERS:", *envs, sep="\n  ")
        bad += 1
    same_seed = len({r.get("seed") for r in runs}) == 1
    print(f"{'workload':<16} {'metric':<46} {'base':>12} {'change':>12} "
          f"{'delta':>8}  verdict")
    for name in sorted(set.intersection(*(set(r["workloads"]) for r in runs))):
        recs = [[r["workloads"][name] for r in side] for side in sides]
        for spec in bench["end_to_end"]:
            key = spec["name"]
            vals = [[rec["metrics"][key]["value"] for rec in side
                     if key in rec.get("metrics", {})] for side in recs]
            if not all(vals):
                continue
            va, vb = statistics.median(vals[0]), statistics.median(vals[1])
            delta = (vb - va) / va if va else 0.0
            worse = delta if spec["better"] == "lower" else -delta
            verdict = "REGRESSION" if worse > spec["bound"] else (
                "better" if -worse > spec["bound"] else "ok"
            )
            bad += verdict == "REGRESSION"
            print(f"{name:<16} {key:<46} {_fmt(va):>12} {_fmt(vb):>12} "
                  f"{delta:>+8.1%}  {verdict} (bound {spec['bound']:.0%})")
        failed = [sum(rec["failed"] for rec in side) for side in recs]
        if failed[1]:
            print(f"{name:<16} {'failed ops':<46} {failed[0]:>12} "
                  f"{failed[1]:>12} {'':>8}  REGRESSION (bound 0)")
            bad += 1
        if not same_seed:
            continue
        for spec in bench["per_layer"]:
            key = spec["name"]
            if spec["unit"] not in DETERMINISTIC_UNITS:
                continue
            vals = [rec["layers"][key]["value"] for side in recs for rec in side
                    if key in rec.get("layers", {})]
            if len(set(vals)) > 1:
                print(f"{name:<16} {key:<46} {_fmt(min(vals)):>12} "
                      f"{_fmt(max(vals)):>12} {'':>8}  COUNT DIFFERS")
                bad += 1
    if not same_seed:
        print("seeds differ: deterministic counts not compared")
    print("no regressions" if not bad else f"{bad} problem(s)")
    return 1 if bad else 0


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------

def main(argv: list[str]) -> int:
    bench = json.loads(BENCHMARK.read_text())
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(
            prog="run.py compare",
            usage="run.py compare BASE CHANGE | BASE... --against CHANGE...",
        )
        p.add_argument("base", nargs="+")
        p.add_argument("--against", nargs="+", default=None)
        args = p.parse_args(argv[1:])
        if args.against is None:
            if len(args.base) != 2:
                p.error("give two files, or sets split by --against")
            args.base, args.against = args.base[:1], args.base[1:]
        return compare(args.base, args.against, bench)
    if not (harness.ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program source at {harness.ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    p = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(harness.WORKLOADS), default=None,
                   help="run one workload (default: all, untraced then traced)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="with --workload: report per-layer metrics")
    p.add_argument("--out", default=None, help="write the results JSON here")
    args = p.parse_args(argv)

    results: dict[str, Any] = {
        "seed": args.seed, "env": env_stamp(), "workloads": {},
    }
    try:
        if args.workload:
            rec = run_one(args.workload, args.seed, args.seconds,
                          bool(args.trace), bench)
            results["workloads"][args.workload] = rec
        else:
            for name in harness.WORKLOADS:
                results["workloads"][name] = run_one(
                    name, args.seed, args.seconds, False, bench
                )
            for name in harness.WORKLOADS:
                traced = run_one(name, args.seed, TRACE_SECONDS, True, bench)
                rec = results["workloads"][name]
                rec["layers"] = traced["layers"]
                rec["layer_table"] = traced["layer_table"]
                rec["passes"] = traced["passes"]
                rec["correct"] = rec["correct"] and traced["correct"]
                rec["attempted"] += traced["attempted"]
                rec["failed"] += traced["failed"]
    except harness.ChildError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    print_end_to_end(results)
    print_layers(results)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=2) + "\n")
    if args.workload:
        rec = results["workloads"][args.workload]
        print(json.dumps({
            "correct": rec["correct"],
            "attempted": rec["attempted"],
            "failed": rec["failed"],
            "metrics": rec["layers"] if args.trace else rec["metrics"],
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
