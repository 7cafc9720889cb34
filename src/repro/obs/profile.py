"""Deterministic hierarchical profiler and hotspot attribution.

Three layers, all answering "where did the time (or the makespan) go?":

* **Phase profiling** — :func:`profile_from_runlog` folds a run
  ledger's ``stage_start``/``stage_end`` events (one pair per
  :func:`repro.obs.tracing.stage_span`) into a nested
  :class:`ProfileNode` tree with cumulative (``total_s``) and exclusive
  (``self_s``) times, so ``partition -> lint preflight -> plan compile
  -> simulate`` becomes a tree whose self-times sum to the measured
  wall time.  ``repro profile`` builds its live tree from the events of
  the run it measures, and ``repro profile --from-run`` builds the same
  tree from a past run's JSONL alone.
* **Kernel profiling** — :class:`KernelProfiler` records per-``(depth,
  opcode)`` batch-step timings and element counts from the vector
  replay loop (and per-node opcode timings from the reference
  interpreter) into :class:`~repro.obs.metrics.Histogram` series, with
  p50/p99 read back via :meth:`~repro.obs.metrics.Histogram.quantile`.
  The install seam (:func:`install_kernel_profiler` /
  :func:`kernel_profiler`) follows the ``probe``/``inject`` contract:
  when nothing is installed the hot loops pay one ``is not None`` check
  and nothing else.
* **Cycle attribution** — :func:`critical_path` extracts the longest
  dependence-constrained chain through an
  :class:`~repro.arrays.plan.ExecutionPlan` (data edges at the
  simulator's local/memory latencies plus same-cell resource edges),
  reports per-edge slack, and :func:`attribute_makespan` charges the
  path's cycles to ``(G-set, cell)`` segments — the top-k hotspot table.

Exports: :func:`to_folded` renders the phase tree in flamegraph-collapsed
(folded-stack) format; :func:`build_profile_document` assembles the
versioned profile JSON the ``repro profile`` CLI verb writes
(:data:`PROFILE_SCHEMA_VERSION`); ``repro.viz.svg.svg_flamegraph``
renders the tree as a self-contained SVG icicle.
"""

from __future__ import annotations

import bisect
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Sequence

from .metrics import MetricsRegistry, get_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..arrays.plan import ExecutionPlan
    from ..core.graph import DependenceGraph

__all__ = [
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
    "experiment_configs",
    "build_config_plan",
    "config_critical_report",
    "build_profile_document",
    "render_profile_text",
]

#: Bump when the profile JSON document's fields change meaning; CI
#: verifies it on the ``repro profile`` smoke artefacts.
PROFILE_SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# Phase profiling: ledger stage events -> nested self/cumulative tree
# ----------------------------------------------------------------------

@dataclass
class ProfileNode:
    """One phase in the profile tree (aggregated over its occurrences)."""

    name: str
    count: int = 0
    total_s: float = 0.0
    children: "dict[str, ProfileNode]" = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        """Exclusive time: total minus the children's cumulative time.

        Clamped at zero — overlapping children could otherwise push it
        negative, and a flamegraph frame cannot have negative width.
        """
        return max(0.0, self.total_s - sum(
            c.total_s for c in self.children.values()
        ))

    def child(self, name: str) -> "ProfileNode":
        """Get-or-create the named child."""
        node = self.children.get(name)
        if node is None:
            node = ProfileNode(name)
            self.children[name] = node
        return node

    def add(self, path: Sequence[str], seconds: float) -> None:
        """Fold one occurrence of the phase at ``path`` into the tree."""
        node = self
        for name in path:
            node = node.child(name)
        node.count += 1
        node.total_s += seconds

    def to_dict(self) -> dict[str, Any]:
        """JSON form: children sorted by descending cumulative time."""
        return {
            "name": self.name,
            "count": self.count,
            "total_s": round(self.total_s, 9),
            "self_s": round(self.self_s, 9),
            "children": [
                c.to_dict()
                for c in sorted(
                    self.children.values(),
                    key=lambda c: (-c.total_s, c.name),
                )
            ],
        }

    def walk(self) -> "Iterator[tuple[tuple[str, ...], ProfileNode]]":
        """Depth-first ``(path, node)`` pairs, root included."""
        stack: list[tuple[tuple[str, ...], ProfileNode]] = [
            ((self.name,), self)
        ]
        while stack:
            path, node = stack.pop()
            yield path, node
            for c in sorted(
                node.children.values(), key=lambda c: c.name, reverse=True
            ):
                stack.append((path + (c.name,), c))


def profile_from_runlog(
    events: Sequence[Mapping[str, Any]],
    root_name: str = "run",
    wall_s: "float | None" = None,
) -> ProfileNode:
    """Build a phase tree from a run ledger's stage events.

    Every :func:`repro.obs.tracing.stage_span` lands in the ledger as a
    ``stage_start``/``stage_end`` pair; a stage's parent is the stage
    still open in the same task stream when it starts, and its time is
    the measured ``dur_s``.  Task names become first-level phases, so a
    campaign ledger profiles as ``run -> <config> -> <stage> -> ...``.
    ``wall_s`` pins the root's cumulative time; by default it is the
    ledger's first-to-last timestamp extent.  Time outside every stage
    is the root's self time, so the tree's self-times sum to the root
    total.
    """
    if wall_s is None:
        ts = [
            ev["ts"] for ev in events
            if isinstance(ev.get("ts"), (int, float))
        ]
        wall_s = max(ts) - min(ts) if ts else 0.0
    root = ProfileNode(root_name, count=1, total_s=wall_s)
    stacks: dict[Any, list[str]] = {}
    for ev in events:
        name = ev.get("event")
        task = ev.get("task")
        stack = stacks.setdefault(task, [])
        if name == "stage_start":
            stack.append(str(ev.get("stage")))
        elif name == "stage_end":
            stage = str(ev.get("stage"))
            if stack and stack[-1] == stage:
                stack.pop()
            dur = ev.get("dur_s")
            prefix = ([str(task)] if task is not None else [])
            root.add(
                prefix + stack + [stage],
                dur if isinstance(dur, (int, float)) else 0.0,
            )

    # Task/never-closed prefix nodes were created with zero total; give
    # them their children's cumulative time so self-times telescope to
    # the root total (the remainder lands on the root as untracked).
    def fill(node: ProfileNode) -> None:
        child_sum = 0.0
        for c in node.children.values():
            fill(c)
            child_sum += c.total_s
        if node.count == 0 and node.total_s == 0.0:
            node.total_s = child_sum

    for c in root.children.values():
        fill(c)
    return root


def to_folded(root: ProfileNode) -> list[str]:
    """Flamegraph-collapsed lines: ``a;b;c <self-microseconds>``.

    The standard folded-stack format (Gregg's ``flamegraph.pl``,
    speedscope, inferno all consume it); values are integral
    microseconds of *exclusive* time, zero-self frames are omitted.
    """
    lines = []
    for path, node in root.walk():
        us = round(node.self_s * 1e6)
        if us > 0:
            lines.append(";".join(path) + f" {us}")
    return lines


# ----------------------------------------------------------------------
# Kernel profiling: per-(depth, opcode) step timings, probe-style seam
# ----------------------------------------------------------------------

#: Kernel-step histogram buckets (seconds): batched numpy steps land in
#: the microsecond decades, whole replays in the milliseconds.
KERNEL_BUCKETS = (
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0,
)


class KernelProfiler:
    """Accumulates per-``(backend, depth, opcode)`` kernel-step timings.

    Observations land in the process registry's
    ``repro_profile_kernel_step_seconds`` :class:`Histogram` (and an
    elements counter), so ``repro stats``-style exports see them too;
    :meth:`summary` reads p50/p99 back through
    :meth:`~repro.obs.metrics.Histogram.quantile`.
    """

    def __init__(self, registry: "MetricsRegistry | None" = None) -> None:
        self.registry = registry if registry is not None else get_registry()
        self._hist = self.registry.histogram(
            "repro_profile_kernel_step_seconds",
            "Kernel batch-step wall time by backend/depth/opcode",
            buckets=KERNEL_BUCKETS,
        )
        self._elements = self.registry.counter(
            "repro_profile_kernel_elements_total",
            "Node firings evaluated per backend/depth/opcode",
        )
        #: exact per-key aggregates, for the deterministic summary table
        self._stats: dict[tuple[str, int, str], dict[str, float]] = {}

    def record(
        self,
        opcode: str,
        width: int,
        seconds: float,
        depth: int = 0,
        backend: str = "vector",
    ) -> None:
        """One batch step: ``width`` firings of ``opcode`` at ``depth``."""
        labels = {"backend": backend, "depth": depth, "opcode": opcode}
        self._hist.observe(seconds, **labels)
        self._elements.inc(width, **labels)
        st = self._stats.get((backend, depth, opcode))
        if st is None:
            st = {"calls": 0, "elements": 0, "total_s": 0.0}
            self._stats[(backend, depth, opcode)] = st
        st["calls"] += 1
        st["elements"] += width
        st["total_s"] += seconds

    def summary(self) -> list[dict[str, Any]]:
        """Per-key rows, heaviest total time first (p50/p99 included)."""
        rows = []
        for (backend, depth, opcode), st in self._stats.items():
            labels = {"backend": backend, "depth": depth, "opcode": opcode}
            rows.append(
                {
                    "backend": backend,
                    "depth": depth,
                    "opcode": opcode,
                    "calls": int(st["calls"]),
                    "elements": int(st["elements"]),
                    "total_s": round(st["total_s"], 9),
                    "p50_s": self._hist.quantile(0.50, **labels),
                    "p99_s": self._hist.quantile(0.99, **labels),
                }
            )
        rows.sort(key=lambda r: (-r["total_s"], r["backend"],
                                 r["depth"], r["opcode"]))
        return rows


_KPROF: "KernelProfiler | None" = None


def kernel_profiler() -> "KernelProfiler | None":
    """The installed kernel profiler, or ``None`` when profiling is off.

    The hot loops (:meth:`~repro.arrays.vector_compile.CompiledPlan.
    replay`, :func:`repro.arrays.cycle_sim.simulate`) look this up once
    per run and branch on ``is not None`` — the ``probe``/``inject``
    zero-overhead contract.
    """
    return _KPROF


def install_kernel_profiler(
    kp: "KernelProfiler | None" = None,
) -> KernelProfiler:
    """Install (and return) the process-wide kernel profiler."""
    global _KPROF
    _KPROF = kp if kp is not None else KernelProfiler()
    return _KPROF


def uninstall_kernel_profiler() -> "KernelProfiler | None":
    """Turn kernel profiling off; returns what was installed."""
    global _KPROF
    prev = _KPROF
    _KPROF = None
    return prev


@contextmanager
def kernel_profiling(
    kp: "KernelProfiler | None" = None,
) -> Iterator[KernelProfiler]:
    """Install a kernel profiler for one block, always uninstalling."""
    installed = install_kernel_profiler(kp)
    try:
        yield installed
    finally:
        uninstall_kernel_profiler()


# ----------------------------------------------------------------------
# Cycle attribution: critical path + slack over the plan's constraints
# ----------------------------------------------------------------------

#: Edge-kind preference at equal slack: a data dependence explains a
#: delay better than mere cell occupancy.
_EDGE_RANK = {"data-local": 0, "data-memory": 1, "resource": 2}


@dataclass(frozen=True)
class PathStep:
    """One node on the critical path (chronological order).

    ``edge`` and ``slack`` describe the constraint *into the next step*
    (``"end"``/0 on the last step): the kind of dependence that chains
    them and the idle cycles between the value being ready and the
    consumer firing.
    """

    node: Any
    cell: Any
    cycle: int
    region: Any
    edge: str
    slack: int


@dataclass
class CriticalPath:
    """The longest dependence-constrained chain through a plan."""

    steps: list[PathStep]
    makespan: int
    #: fired node -> minimum incoming-constraint slack (nodes with no
    #: fired predecessor are absent)
    slacks: dict[Any, int]

    @property
    def start_cycle(self) -> int:
        return self.steps[0].cycle if self.steps else 0

    @property
    def end_cycle(self) -> int:
        return self.steps[-1].cycle if self.steps else -1

    @property
    def length(self) -> int:
        """Cycles spanned inclusively: ``end - start + 1``."""
        if not self.steps:
            return 0
        return self.end_cycle - self.start_cycle + 1

    @property
    def matches_makespan(self) -> bool:
        """True when the chain explains the whole run, cycle 0 to last."""
        return self.length == self.makespan

    @property
    def zero_slack_nodes(self) -> int:
        return sum(1 for s in self.slacks.values() if s == 0)


def critical_path(plan: "ExecutionPlan", dg: "DependenceGraph") -> CriticalPath:
    """Extract the critical path over the plan's constraint DAG.

    Constraint edges mirror the simulator's timing rules exactly
    (:func:`repro.arrays.cycle_sim.simulate`): a data operand is usable
    one cycle after its producer fires when producer and consumer share
    a G-set region and are local/neighbouring cells, two cycles after
    when it round-trips external memory; and a cell fires at most one
    node per cycle (resource edges between its consecutive firings).
    A backward dynamic program finds, for the last-firing node, the
    chain reaching the *earliest* possible start cycle (ties broken by
    slack, then edge kind, then node repr — fully deterministic); when
    that chain starts at cycle 0 its length equals the makespan and the
    path accounts for every cycle of the run.
    """
    from ..core.graph import NodeKind

    fires = plan.fires
    if not fires:
        return CriticalPath(steps=[], makespan=plan.makespan, slacks={})
    node_data = dg.g.nodes
    region_of = plan.region_of
    topology = plan.topology

    # Per-cell firing timeline for resource edges.
    by_cell: dict[Any, list[tuple[int, Any]]] = {}
    for nid, (cell, t) in fires.items():
        by_cell.setdefault(cell, []).append((t, nid))
    for timeline in by_cell.values():
        timeline.sort(key=lambda p: (p[0], repr(p[1])))
    cell_cycles = {c: [t for t, _ in tl] for c, tl in by_cell.items()}

    def candidates(nid: Any) -> list[tuple[int, str, Any, int]]:
        """Incoming constraints: ``(slack, kind, pred, pred_cycle)``."""
        cell, t = fires[nid]
        out: list[tuple[int, str, Any, int]] = []
        for ref in node_data[nid].get("operands", {}).values():
            src = ref[0]
            src_kind = node_data[src]["kind"]
            if src_kind in (NodeKind.INPUT, NodeKind.CONST):
                continue  # host-fed / wired: the chain starts here
            pcell, pt = fires[src]
            if pt >= t:
                continue  # a violation edge cannot chain backwards
            same_region = (
                not region_of
                or region_of.get(src) == region_of.get(nid)
            )
            local = cell == pcell or topology.is_neighbor(pcell, cell)
            if same_region and local:
                out.append((t - (pt + 1), "data-local", src, pt))
            else:
                out.append((t - (pt + 2), "data-memory", src, pt))
        timeline = cell_cycles[cell]
        i = bisect.bisect_left(timeline, t)
        if i > 0:
            pt, pred = by_cell[cell][i - 1]
            out.append((t - (pt + 1), "resource", pred, pt))
        return out

    # DP in firing order: earliest chain start reachable from each node.
    order = sorted(fires, key=lambda nid: (fires[nid][1], repr(nid)))
    best_start: dict[Any, int] = {}
    choice: dict[Any, tuple[Any, str, int]] = {}
    slacks: dict[Any, int] = {}
    for nid in order:
        cands = candidates(nid)
        if not cands:
            best_start[nid] = fires[nid][1]
            continue
        slacks[nid] = min(c[0] for c in cands)
        picked = min(
            cands,
            key=lambda c: (
                best_start[c[2]], c[0], _EDGE_RANK[c[1]], repr(c[2]),
            ),
        )
        best_start[nid] = best_start[picked[2]]
        choice[nid] = (picked[2], picked[1], picked[0])

    tail = max(fires, key=lambda nid: (fires[nid][1], repr(nid)))
    # Deterministic tie-break on the last cycle: lexicographically
    # smallest repr among the latest-firing nodes.
    last_t = fires[tail][1]
    tail = min(
        (nid for nid in fires if fires[nid][1] == last_t), key=repr
    )

    chain: list[PathStep] = []
    nid: Any = tail
    edge, slack = "end", 0
    while True:
        cell, t = fires[nid]
        chain.append(
            PathStep(
                node=nid, cell=cell, cycle=t,
                region=region_of.get(nid), edge=edge, slack=slack,
            )
        )
        nxt = choice.get(nid)
        if nxt is None:
            break
        nid, edge, slack = nxt
    chain.reverse()
    # The backward walk hands each node the (edge, slack) of the
    # constraint it satisfies *into its consumer* — exactly the "hop out
    # of this step" the PathStep contract wants, with the tail keeping
    # its ``("end", 0)`` placeholder.
    return CriticalPath(
        steps=chain, makespan=plan.makespan, slacks=slacks
    )


def attribute_makespan(
    cp: CriticalPath, top: int = 8
) -> list[dict[str, Any]]:
    """Charge the path's cycles to ``(G-set, cell)`` segments: top-k.

    Contiguous path steps sharing a region and cell form one segment;
    a segment owns the cycles from its first step to the next segment's
    first step (the last segment runs to the path's end), so the
    segment cycles sum to :attr:`CriticalPath.length` exactly.
    """
    if not cp.steps:
        return []
    segments: list[tuple[Any, Any, int]] = []  # (region, cell, start)
    for s in cp.steps:
        if not segments or (segments[-1][0], segments[-1][1]) != (
            s.region, s.cell,
        ):
            segments.append((s.region, s.cell, s.cycle))
    totals: dict[tuple[str, str], int] = {}
    end = cp.end_cycle + 1
    for i, (region, cell, start) in enumerate(segments):
        stop = segments[i + 1][2] if i + 1 < len(segments) else end
        key = (str(region), str(cell))
        totals[key] = totals.get(key, 0) + (stop - start)
    length = cp.length
    rows = [
        {
            "gset": gset,
            "cell": cell,
            "cycles": cycles,
            "share": round(cycles / length, 6) if length else 0.0,
        }
        for (gset, cell), cycles in totals.items()
    ]
    rows.sort(key=lambda r: (-r["cycles"], r["gset"], r["cell"]))
    return rows[:top]


# ----------------------------------------------------------------------
# Shipped-config helpers and the profile document
# ----------------------------------------------------------------------

def experiment_configs(exp_id: str) -> list[tuple[str, int, int]]:
    """The ``(geometry, n, m)`` configurations an experiment sweeps.

    Only the partitioned-array sweeps (F18 linear, F19 mesh) have
    per-config plans to attribute; other experiments return ``[]``.
    """
    from ..experiments.arrays import F18_CONFIGS, F19_CONFIGS

    if exp_id == "F18":
        return [("linear", n, m) for n, m in F18_CONFIGS]
    if exp_id == "F19":
        return [("mesh", n, m) for n, m in F19_CONFIGS]
    return []


def build_config_plan(
    geometry: str, n: int, m: int
) -> "tuple[DependenceGraph, ExecutionPlan]":
    """Rebuild the partitioned plan the F18/F19 sweeps execute."""
    from ..algorithms.transitive_closure import tc_regular
    from ..arrays.plan import partitioned_plan
    from ..core.ggraph import GGraph, group_by_columns
    from ..core.gsets import (
        make_linear_gsets,
        make_mesh_gsets,
        schedule_gsets,
    )

    dg = tc_regular(n)
    gg = GGraph(dg, group_by_columns)
    if geometry == "linear":
        plan = make_linear_gsets(gg, m, aligned=False)
    else:
        plan = make_mesh_gsets(gg, m)
    order = schedule_gsets(plan, "vertical")
    return dg, partitioned_plan(plan, order)


def config_critical_report(
    geometry: str,
    n: int,
    m: int,
    backend: "str | None" = None,
    top: int = 8,
) -> dict[str, Any]:
    """Critical path + hotspots for one config, simulator-cross-checked.

    Runs one simulation (on ``backend``) so the path length, busy and
    useful counts are checked against a measured
    :class:`~repro.arrays.cycle_sim.SimResult`, not just the plan.
    """
    from ..algorithms.transitive_closure import make_inputs
    from ..algorithms.warshall import random_adjacency
    from ..arrays.vector_sim import dispatch_simulate

    dg, ep = build_config_plan(geometry, n, m)
    cp = critical_path(ep, dg)
    # Same adjacency the F18/F19 sweeps use (linear seeds n+m, mesh n*m)
    # so the cross-checked SimResult is the shipped one.
    a = random_adjacency(
        n, 0.35, seed=(n + m if geometry == "linear" else n * m)
    )
    res = dispatch_simulate(ep, dg, make_inputs(a), backend=backend)
    return {
        "config": f"{geometry}-n{n}-m{m}",
        "geometry": geometry,
        "n": n,
        "m": m,
        "makespan": res.makespan,
        "start_cycle": cp.start_cycle,
        "end_cycle": cp.end_cycle,
        "length": cp.length,
        "matches_makespan": cp.length == res.makespan,
        "busy": res.busy,
        "useful": res.useful,
        "fired_nodes": len(ep.fires),
        "path_nodes": len(cp.steps),
        "zero_slack_nodes": cp.zero_slack_nodes,
        "hotspots": attribute_makespan(cp, top=top),
    }


def build_profile_document(
    phases: ProfileNode,
    wall_s: float,
    kernels: "Sequence[Mapping[str, Any]] | None" = None,
    critical_paths: "Sequence[Mapping[str, Any]] | None" = None,
    experiment: "str | None" = None,
    config: "Mapping[str, Any] | None" = None,
    backend: "str | None" = None,
) -> dict[str, Any]:
    """Assemble the versioned profile JSON document."""
    self_sum = sum(node.self_s for _, node in phases.walk())
    return {
        "version": PROFILE_SCHEMA_VERSION,
        "kind": "repro-profile",
        "experiment": experiment,
        "config": dict(config) if config else None,
        "backend": backend,
        "wall_s": round(wall_s, 9),
        "self_sum_s": round(self_sum, 9),
        "phases": phases.to_dict(),
        "kernels": [dict(k) for k in (kernels or [])],
        "critical_paths": [dict(c) for c in (critical_paths or [])],
    }


def _phase_rows(
    doc: Mapping[str, Any],
) -> list[tuple[str, int, float, float]]:
    rows: list[tuple[str, int, float, float]] = []

    def rec(node: Mapping[str, Any], prefix: str) -> None:
        path = f"{prefix};{node['name']}" if prefix else str(node["name"])
        rows.append(
            (path, node["count"], node["total_s"], node["self_s"])
        )
        for c in node.get("children", []):
            rec(c, path)

    rec(doc["phases"], "")
    return rows


def render_profile_text(doc: Mapping[str, Any], top: int = 10) -> str:
    """Human-readable profile: phases, kernels, critical paths."""
    lines = [
        f"profile v{doc['version']} "
        + (f"experiment={doc['experiment']} " if doc.get("experiment") else "")
        + (f"backend={doc['backend']} " if doc.get("backend") else "")
        + f"wall={doc['wall_s']:.4f}s self-sum={doc['self_sum_s']:.4f}s",
        "",
        f"phases (top {top} by self time):",
        f"  {'phase':<52} {'count':>5} {'total(s)':>10} {'self(s)':>10}",
    ]
    rows = _phase_rows(doc)
    for path, count, total, self_s in sorted(
        rows, key=lambda r: -r[3]
    )[:top]:
        shown = path if len(path) <= 52 else "..." + path[-49:]
        lines.append(
            f"  {shown:<52} {count:>5} {total:>10.4f} {self_s:>10.4f}"
        )
    kernels = doc.get("kernels") or []
    if kernels:
        lines.append("")
        lines.append(f"kernels (top {top} by total time):")
        lines.append(
            f"  {'backend':<10} {'depth':>5} {'opcode':<8} {'calls':>6} "
            f"{'elements':>9} {'total(s)':>10} {'p50(s)':>9} {'p99(s)':>9}"
        )
        for k in kernels[:top]:
            p50 = k.get("p50_s")
            p99 = k.get("p99_s")
            lines.append(
                f"  {k['backend']:<10} {k['depth']:>5} {k['opcode']:<8} "
                f"{k['calls']:>6} {k['elements']:>9} {k['total_s']:>10.6f} "
                f"{(p50 if p50 is not None else 0.0):>9.2g} "
                f"{(p99 if p99 is not None else 0.0):>9.2g}"
            )
    for cp in doc.get("critical_paths") or []:
        lines.append("")
        lines.append(
            f"critical path [{cp['config']}]: cycles "
            f"{cp['start_cycle']}..{cp['end_cycle']} "
            f"length={cp['length']} makespan={cp['makespan']} "
            f"({'=' if cp['matches_makespan'] else '<'} makespan), "
            f"{cp['path_nodes']} node(s), "
            f"{cp['zero_slack_nodes']}/{cp['fired_nodes']} zero-slack"
        )
        if cp.get("hotspots"):
            lines.append(
                f"  {'gset':<22} {'cell':<8} {'cycles':>7} {'share':>7}"
            )
            for h in cp["hotspots"]:
                lines.append(
                    f"  {h['gset']:<22} {h['cell']:<8} {h['cycles']:>7} "
                    f"{h['share']:>7.1%}"
                )
    return "\n".join(lines)
