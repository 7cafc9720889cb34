"""Self-contained HTML performance dashboard (stdlib only, inline SVG).

``python -m repro dashboard --out dash.html`` renders one HTML file with
no external assets or scripts: native ``<title>`` tooltips carry the
hover layer, a ``<details>`` table mirrors every chart for
accessibility, and all chrome colors are CSS custom properties.

Sections:

* a KPI row of the run's headline measures (makespan, utilization vs
  the paper's closed form ``U = (n-1)(n-2)/(n(n+1))``, occupancy, host
  bandwidth vs the ``m/n`` bound, memory traffic, correctness);
* per-cell **fire-count and utilization heatmaps** from the
  :class:`~repro.obs.probe.RecordingProbe` event stream;
* the per-cell **occupancy timeline** (compute / transmit / delay lanes);
* the **Hotspots panel**: critical-path attribution over the execution
  plan (:mod:`repro.obs.profile`) — which ``(G-set, cell)`` segments own
  the makespan, with per-path slack counts;
* **measured vs. closed-form curves** across problem size ``n``
  (throughput and utilization, Sec. 4.2) and the measured **Fig. 21
  I/O-demand curve** against the ``m/n`` host-rate bound;
* the **failure regimes** panel (``--regimes``) and the **run ledger**
  panel of recent runs (:mod:`repro.obs.runlog`).
"""

from __future__ import annotations

from html import escape
from typing import Any, Hashable, Mapping, Sequence

from ..viz.svg import svg_heatmap, svg_lanes, svg_line_chart
from .probe import RecordingProbe
from .report import io_demand_curve, occupancy_timeline
from .runlog import list_runs

__all__ = [
    "ACTIVITY_CLASSES",
    "activity_class",
    "cell_grid",
    "collect_run",
    "collect_regimes",
    "sweep_closed_forms",
    "render_dashboard",
    "build_dashboard",
]

#: Fixed activity -> categorical-slot order for the occupancy lanes.
ACTIVITY_CLASSES = ("compute", "transmit", "delay")

#: Lane cap for the occupancy timeline (cells beyond it are listed, not
#: silently dropped).
MAX_LANES = 16

_STYLE = """
:root { color-scheme: light; }
.viz-root {
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e;
  --muted: #898781; --gridline: #e1e0d9; --baseline: #c3c2b7;
  --good: #0ca30c; --critical: #d03b3b;
  --border: rgba(11,11,11,0.10);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  color: var(--text-primary); background: var(--page);
  margin: 0; padding: 24px; line-height: 1.45;
}
.viz-root h1 { font-size: 20px; margin: 0 0 4px; }
.viz-root h2 { font-size: 14px; margin: 28px 0 8px; }
.viz-root .sub { color: var(--text-secondary); font-size: 12px; margin: 0 0 16px; }
.viz-root .card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 14px 16px; margin: 0 0 12px;
}
.viz-root .row { display: flex; flex-wrap: wrap; gap: 12px; }
.viz-root .tile { min-width: 132px; }
.viz-root .tile .label { font-size: 11px; color: var(--text-secondary); }
.viz-root .tile .value { font-size: 22px; font-weight: 600; }
.viz-root .tile .delta { font-size: 11px; color: var(--text-secondary); }
.viz-root .status-ok .value::after { content: " \\2713"; color: var(--good); }
.viz-root .status-bad .value::after { content: " \\2717"; color: var(--critical); }
.viz-root table { border-collapse: collapse; font-size: 12px; }
.viz-root th, .viz-root td {
  padding: 3px 10px; text-align: right;
  border-bottom: 1px solid var(--gridline);
  font-variant-numeric: tabular-nums;
}
.viz-root th { color: var(--text-secondary); font-weight: 600; }
.viz-root details summary { cursor: pointer; font-size: 12px; color: var(--text-secondary); }
.viz-root .note { font-size: 11px; color: var(--muted); }
"""


def activity_class(activity: str) -> str:
    """Normalise a fired node's tag/kind onto :data:`ACTIVITY_CLASSES`."""
    low = str(activity).lower()
    if "compute" in low or low == "op":
        return "compute"
    if "delay" in low:
        return "delay"
    return "transmit"


def cell_grid(counts: Mapping[Hashable, Any]) -> dict[tuple[int, int], float]:
    """Place per-cell values on a heatmap grid.

    Mesh cells (``(row, col)`` tuples) keep their coordinates; linear
    cells (ints) become one row; anything else is enumerated in sorted
    order.
    """
    keys = list(counts)
    if keys and all(
        isinstance(k, tuple) and len(k) == 2
        and all(isinstance(x, int) for x in k) for k in keys
    ):
        return {(k[0], k[1]): float(counts[k]) for k in keys}
    if keys and all(isinstance(k, int) for k in keys):
        return {(0, k): float(counts[k]) for k in keys}
    return {
        (0, i): float(counts[k])
        for i, k in enumerate(sorted(keys, key=repr))
    }


def collect_run(
    n: int,
    m: int,
    geometry: str = "linear",
    policy: str = "vertical",
    seed: int = 0,
) -> dict:
    """Partition + probe-simulate one closure; the dashboard's main input."""
    import numpy as np

    from ..algorithms.transitive_closure import make_inputs
    from ..algorithms.warshall import random_adjacency, warshall
    from ..arrays.cycle_sim import simulate
    from ..core.partitioner import partition_transitive_closure

    impl = partition_transitive_closure(
        n=n, m=m, geometry=geometry, policy=policy
    )
    probe = RecordingProbe()
    a = random_adjacency(n, seed=seed)
    res = simulate(impl.exec_plan, impl.dg, make_inputs(a), probe=probe)
    ok = bool(np.array_equal(res.output_matrix(n), warshall(a)))
    return {
        "n": n, "m": m, "geometry": geometry, "policy": policy,
        "impl": impl, "probe": probe, "result": res, "correct": ok,
    }


def sweep_closed_forms(
    sizes: Sequence[int],
    m: int,
    geometry: str = "linear",
    policy: str = "vertical",
) -> list[dict]:
    """Measured vs. Sec. 4.2 closed-form measures across problem size."""
    from ..core.metrics import (
        tc_linear_throughput,
        tc_mesh_throughput,
        tc_utilization,
    )
    from ..core.partitioner import partition_transitive_closure

    thr_form = (
        tc_linear_throughput if geometry == "linear" else tc_mesh_throughput
    )
    rows = []
    for n in sizes:
        impl = partition_transitive_closure(
            n=n, m=m, geometry=geometry, policy=policy
        )
        rep = impl.report
        rows.append(
            {
                "n": n,
                "measured_throughput": float(rep.throughput),
                "expected_throughput": float(thr_form(n, m)),
                "measured_utilization": float(rep.utilization),
                "expected_utilization": float(tc_utilization(n)),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def _tile(label: str, value: str, delta: str = "", status: str = "") -> str:
    cls = f"tile {status}".strip()
    delta_html = f'<div class="delta">{escape(delta)}</div>' if delta else ""
    return (
        f'<div class="{cls}"><div class="label">{escape(label)}</div>'
        f'<div class="value">{escape(value)}</div>{delta_html}</div>'
    )


def _table(rows: Sequence[Mapping[str, Any]]) -> str:
    if not rows:
        return "<p class='note'>(no data)</p>"
    cols = list(rows[0].keys())
    head = "".join(f"<th>{escape(str(c))}</th>" for c in cols)
    body = "".join(
        "<tr>" + "".join(
            f"<td>{escape(_cell_text(r.get(c)))}</td>" for c in cols
        ) + "</tr>"
        for r in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def _cell_text(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _details_table(summary: str, rows: Sequence[Mapping[str, Any]]) -> str:
    return (
        f"<details><summary>{escape(summary)}</summary>{_table(rows)}"
        f"</details>"
    )


def _run_sections(run: dict) -> list[str]:
    probe: RecordingProbe = run["probe"]
    res = run["result"]
    rep = run["impl"].report
    n, m = run["n"], run["m"]

    from ..core.metrics import tc_io_bandwidth, tc_utilization

    u_expected = float(tc_utilization(n))
    bw_bound = float(tc_io_bandwidth(n, m))
    sections = []

    status = "status-ok" if (run["correct"] and res.ok) else "status-bad"
    sections.append(
        '<div class="card"><div class="row">'
        + _tile("Makespan", f"{res.makespan:,}", "simulated cycles")
        + _tile(
            "Utilization",
            f"{float(res.utilization):.3f}",
            f"closed form U = {u_expected:.3f}",
        )
        + _tile("Occupancy", f"{float(res.occupancy):.3f}", "busy / capacity")
        + _tile(
            "Host bandwidth",
            f"{float(res.average_host_bandwidth()):.3f}",
            f"bound m/n = {bw_bound:.3f} words/cycle",
        )
        + _tile(
            "Memory traffic",
            f"{res.memory_reads:,}",
            f"{res.memory_words:,} words parked",
        )
        + _tile(
            "Closure",
            "correct" if run["correct"] else "wrong",
            f"{len(res.violations)} violation(s)",
            status,
        )
        + "</div></div>"
    )

    # Per-cell heatmaps from the probe event stream.
    from ..arrays.cycle_sim import cell_fire_counts, cell_utilization

    counts = cell_fire_counts(probe)
    util = cell_utilization(probe, res.makespan)
    count_rows = [
        {"cell": repr(c), "fires": v, "utilization": float(util[c])}
        for c, v in sorted(counts.items(), key=lambda kv: repr(kv[0]))
    ]
    sections.append(
        '<div class="card">'
        + svg_heatmap(
            cell_grid(counts),
            title=f"Fires per cell (n={n}, m={m}, {run['geometry']})",
            value_label="fires",
        )
        + svg_heatmap(
            {k: round(v, 3) for k, v in cell_grid(
                {c: float(f) for c, f in util.items()}
            ).items()},
            title="Per-cell utilization (busy cycles / makespan)",
            value_label="utilization",
            max_value=1.0,
        )
        + _details_table("per-cell data", count_rows)
        + "</div>"
    )

    # Occupancy timeline lanes.
    timeline = occupancy_timeline(probe)
    labels = sorted(timeline, key=repr)
    shown = labels[:MAX_LANES]
    lanes = {
        repr(c): [(t, activity_class(act)) for t, act in timeline[c]]
        for c in shown
    }
    note = (
        f'<p class="note">showing {len(shown)} of {len(labels)} cells; '
        f"omitted: {', '.join(repr(c) for c in labels[MAX_LANES:])}</p>"
        if len(labels) > len(shown) else ""
    )
    sections.append(
        '<div class="card">'
        + svg_lanes(
            lanes, res.makespan, ACTIVITY_CLASSES,
            title="Occupancy timeline (cell x cycle)",
        )
        + note
        + "</div>"
    )

    # Fig. 21: measured cumulative demand vs the m/n host-rate bound.
    curve = io_demand_curve(probe)
    if curve:
        last_t = max(curve[-1][0], 1)
        bound = [(0.0, 0.0), (float(last_t), bw_bound * last_t)]
        sections.append(
            '<div class="card">'
            + svg_line_chart(
                [
                    ("measured demand", [(float(t), float(w)) for t, w in curve]),
                    ("host @ m/n", bound),
                ],
                title="Fig. 21 - cumulative host words vs deadline cycle",
                x_label="cycle", y_label="words", step=True,
            )
            + _details_table(
                "I/O demand data",
                [{"cycle": t, "cum_words": w} for t, w in curve],
            )
            + "</div>"
        )
    return sections


def _hotspot_sections(run: dict, top: int = 10) -> list[str]:
    """The Hotspots panel: critical-path attribution for the shown run.

    Extracts the longest dependence-constrained chain through the run's
    execution plan (:func:`repro.obs.profile.critical_path`) and charges
    its cycles to ``(G-set, cell)`` segments — where the makespan
    actually went.  A chain covering every cycle (length == makespan)
    means no scheduling gap is left unexplained.
    """
    from .profile import attribute_makespan, critical_path

    impl = run["impl"]
    res = run["result"]
    cp = critical_path(impl.exec_plan, impl.dg)
    rows = attribute_makespan(cp, top=top)
    matches = cp.length == res.makespan
    fired = len(impl.exec_plan.fires)
    table_rows = [
        {
            "gset": r["gset"],
            "cell": r["cell"],
            "cycles": r["cycles"],
            "share": f"{r['share']:.1%}",
        }
        for r in rows
    ]
    note = (
        '<p class="note">critical path: cycles '
        f"{cp.start_cycle}..{cp.end_cycle} over {len(cp.steps)} node(s); "
        "top segments by cycles owned "
        "(<code>repro profile</code> for the full table and "
        "flamegraph)</p>"
    )
    return [
        '<div class="card"><div class="row">'
        + _tile(
            "Critical path",
            f"{cp.length:,}",
            f"of {res.makespan:,} cycles"
            + (" - covers the run" if matches else ""),
            "status-ok" if matches else "status-bad",
        )
        + _tile(
            "Zero-slack nodes",
            f"{cp.zero_slack_nodes:,}",
            f"of {fired:,} fired nodes",
        )
        + "</div>"
        + _table(table_rows)
        + note
        + "</div>"
    ]


def _numeric(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _sweep_sections(rows: Sequence[Mapping[str, Any]]) -> list[str]:
    # Foreign or legacy sweep rows may carry null dimensions; plotting a
    # None x-coordinate would crash the chart, so such rows are skipped
    # (they still appear in the details table below the charts).
    plotted = [r for r in rows if _numeric(r.get("n"))]
    if not rows:
        return []
    if not plotted:
        return ['<div class="card">' + _details_table("sweep data", list(rows)) + "</div>"]
    rows, all_rows = plotted, list(rows)
    thr = [
        ("measured", [(r["n"], r["measured_throughput"]) for r in rows]),
        ("closed form", [(r["n"], r["expected_throughput"]) for r in rows]),
    ]
    util = [
        ("measured", [(r["n"], r["measured_utilization"]) for r in rows]),
        ("closed form", [(r["n"], r["expected_utilization"]) for r in rows]),
    ]
    return [
        '<div class="card">'
        + svg_line_chart(
            thr, title="Throughput vs n - measured vs T = m/(n^2 (n+1))",
            x_label="n", y_label="1/cycles",
        )
        + svg_line_chart(
            util,
            title="Utilization vs n - measured vs U = (n-1)(n-2)/(n(n+1))",
            x_label="n", y_label="U",
        )
        + _details_table("sweep data", all_rows)
        + "</div>"
    ]


def collect_regimes(
    seed: int = 0,
    configs: Sequence[str] = ("linear-n12-m4", "mesh-n8-m4"),
) -> dict[str, Any]:
    """Run a compact failure-regime campaign for the dashboard panel.

    Two designs (one linear, one mesh — the mesh is where correlated
    clusters force the graceful-degradation tier) x every shipped
    regime, summarized by
    :meth:`~repro.resilience.campaign.CampaignResult.regime_summary`.
    """
    from ..resilience import REGIME_NAMES, run_campaign

    result = run_campaign(
        seed=seed, configs=list(configs), regime=list(REGIME_NAMES),
        record_metrics=False,
    )
    summary = result.regime_summary()
    summary["configs"] = list(configs)
    summary["runs"] = [r.to_dict() for r in result.runs]
    return summary


def _regime_sections(summary: Mapping[str, Any]) -> list[str]:
    """The Failure regimes panel: per-regime recover/degrade verdicts."""
    regimes: Mapping[str, Mapping[str, Any]] = summary.get("regimes", {})
    if not regimes:
        return []
    total = sum(g["runs"] for g in regimes.values())
    good = sum(g["ok"] for g in regimes.values())
    degraded = sum(g["degraded"] for g in regimes.values())
    quarantined = sum(g["quarantined"] for g in regimes.values())
    tiles = (
        _tile(
            "Regime cells",
            f"{good}/{total}",
            "recovered or gracefully degraded",
            "status-ok" if good == total else "status-bad",
        )
        + _tile("Quarantined cells", str(quarantined), "strike ladder")
        + _tile("Degraded runs", str(degraded), "host-side completion")
    )
    regime_rows = [
        {
            "regime": name,
            "runs": g["runs"],
            "ok": g["ok"],
            "recovered": g["recovered"],
            "degraded": g["degraded"],
            "quarantined": g["quarantined"],
            "degraded_gsets": g["degraded_gsets"],
            "min_availability": (
                f"{g['min_availability']:.3f}"
                if g.get("min_availability") is not None else "-"
            ),
            "max_slowdown": (
                f"{g['max_slowdown']:.3f}"
                if g.get("max_slowdown") is not None else "-"
            ),
        }
        for name, g in sorted(regimes.items())
    ]
    run_rows = [
        {
            "config": r["config"],
            "regime": r.get("regime", "-"),
            "ok": r["ok"],
            "faults": r.get("faults_planned", "-"),
            "detections": r["detections"],
            "retries": r["retries"],
            "repartitions": r["repartitions"],
            "quarantined": r.get("quarantined", 0),
            "degraded_gsets": r.get("degraded_gsets", 0),
            "availability": (
                f"{r['availability']:.3f}"
                if r.get("availability") is not None else "-"
            ),
            "mttr_cycles": (
                f"{r['mttr_cycles']:.1f}"
                if r.get("mttr_cycles") is not None else "-"
            ),
        }
        for r in summary.get("runs", [])
    ]
    note = (
        '<p class="note">seeded regime campaigns '
        f"(seed {summary.get('seed', 0)}) under the adaptive policy: "
        "correlated cluster death, Gilbert-Elliott transient bursts, "
        "same-cell hammering (<code>repro faults --regime all</code> "
        "for the full matrix)</p>"
    )
    return [
        '<div class="card"><div class="row">'
        + tiles
        + "</div>"
        + _table(regime_rows)
        + (_details_table("per-run data", run_rows) if run_rows else "")
        + note
        + "</div>"
    ]


def _runlog_sections(summaries: Sequence[Mapping[str, Any]]) -> list[str]:
    """The run-history panel: one row per ledger, newest first."""
    rows = []
    for s in summaries:
        counts = s.get("counts", {})
        annotations = ", ".join(
            f"{name}={counts[name]}"
            for name in (
                "lint", "plan_cache", "fallback", "fault_inject",
                "fault_detect", "fault_recover", "checkpoint",
                "repartition", "oracle", "error",
            )
            if counts.get(name)
        )
        rows.append(
            {
                "run": s.get("run") or "-",
                "entry": s.get("entry") or "-",
                "events": s.get("events", 0),
                "tasks": len(s.get("tasks", [])),
                "duration_s": (
                    round(s["duration_s"], 3)
                    if s.get("duration_s") is not None else "-"
                ),
                "ok": s.get("ok"),
                "annotations": annotations or "-",
            }
        )
    clean = sum(1 for s in summaries if s.get("ok"))
    return [
        '<div class="card">'
        + _tile("ledgers", str(len(summaries)))
        + _tile("completed ok", str(clean))
        + _details_table("recent runs (repro obs list)", rows)
        + "</div>"
    ]


def render_dashboard(
    run: dict | None = None,
    sweep_rows: Sequence[Mapping[str, Any]] | None = None,
    title: str = "repro - performance dashboard",
    runlog_summaries: Sequence[Mapping[str, Any]] | None = None,
    regime_summary: Mapping[str, Any] | None = None,
) -> str:
    """Assemble the full HTML document from pre-computed pieces."""
    body: list[str] = [f"<h1>{escape(title)}</h1>"]
    if run is not None:
        body.append(
            f'<p class="sub">transitive closure, n={run["n"]}, '
            f'm={run["m"]}, {escape(run["geometry"])} array, '
            f'policy {escape(run["policy"])} - '
            f"{len(run['probe'].fires):,} probed fires over "
            f"{run['result'].makespan:,} cycles</p>"
        )
        body.append("<h2>Simulated run</h2>")
        body.extend(_run_sections(run))
        body.append("<h2>Hotspots (critical-path attribution)</h2>")
        body.extend(_hotspot_sections(run))
    if sweep_rows:
        body.append("<h2>Measured vs. closed forms (Sec. 4.2)</h2>")
        body.extend(_sweep_sections(sweep_rows))
    if regime_summary:
        body.append("<h2>Failure regimes (resilience under fire)</h2>")
        body.extend(_regime_sections(regime_summary))
    if runlog_summaries:
        body.append("<h2>Run ledger (recent runs)</h2>")
        body.extend(_runlog_sections(runlog_summaries))
    if (
        run is None and not sweep_rows
        and not runlog_summaries and not regime_summary
    ):
        body.append('<p class="sub">(nothing to show)</p>')
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>{escape(title)}</title>"
        f"<style>{_STYLE}</style></head>"
        f"<body class='viz-root'>{''.join(body)}</body></html>"
    )


def build_dashboard(
    n: int = 9,
    m: int = 3,
    geometry: str = "linear",
    policy: str = "vertical",
    seed: int = 0,
    sizes: Sequence[int] | None = None,
    runlog_dir: str | None = None,
    regimes: bool = False,
) -> str:
    """Run the pipeline, sweep sizes, read ledgers, render — one call.

    ``regimes=True`` additionally runs the compact failure-regime
    campaign (:func:`collect_regimes`) and renders the Failure regimes
    panel.
    """
    run = collect_run(n, m, geometry=geometry, policy=policy, seed=seed)
    if sizes is None:
        sizes = sorted({max(4, n - 3), n, n + 3})
    sweep = sweep_closed_forms(sizes, m, geometry=geometry, policy=policy)
    summaries = list_runs(runlog_dir) if runlog_dir else []
    regime_summary = collect_regimes(seed=seed) if regimes else None
    return render_dashboard(
        run, sweep, runlog_summaries=summaries,
        regime_summary=regime_summary,
    )
