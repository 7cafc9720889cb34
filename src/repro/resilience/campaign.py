"""Seeded fault-injection campaigns over the shipped experiment designs.

A campaign takes every shipped partitioned configuration (the same
design points the lint gate proves clean, plus a 3x3 mesh), plans one
fault of each kind against each design with a deterministic
seed-derived RNG, and drives the resilient runtime through
inject -> detect -> recover -> verify.  The CI ``faults`` job gates on
``CampaignResult.ok``: every planned fault actually fired, every fired
fault was detected, every run completed, and every recovered output
equals the software oracle.

Seeding is stringly deterministic — ``random.Random(f"{seed}:{config}:
{kind}")`` — so a campaign replays identically across processes and
platforms (no ``hash()``, no global RNG state).

The fixed-size array of Fig. 17 is deliberately *not* a campaign
target: it has no G-set barriers to checkpoint at and no spare cells to
re-partition onto — the paper's partitioned arrays are the
fault-tolerant ones, and the campaign measures exactly that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Hashable, Mapping, Sequence

import numpy as np

from ..algorithms import transitive_closure as tc
from ..arrays.plan import partitioned_plan
from ..arrays.vector_compile import clear_compiled_cache, compiled_cache_info
from ..core.semiring import BOOLEAN, Semiring
from ..obs import runlog
from ..obs.metrics import get_registry
from ..obs.tracing import stage_span
from .faults import FaultKind, FaultSpec
from .regimes import FaultPlan, make_regime
from .runtime import RecoveryPolicy, RecoveryResult, ResilienceError, run_resilient

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..core.ggraph import GGraph
    from ..core.graph import DependenceGraph, NodeId
    from ..core.gsets import GSet, GSetPlan

__all__ = [
    "ADAPTIVE_POLICY",
    "CampaignConfig",
    "CampaignDesign",
    "CampaignRun",
    "CampaignResult",
    "CAMPAIGN_CONFIGS",
    "campaign_config",
    "plan_fault",
    "run_campaign",
]

#: The recovery policy regime campaigns run under: capped exponential
#: backoff with deterministic jitter, a quarantine ladder that retires a
#: thrice-struck cell instead of burning the budget on it, and the
#: graceful-degradation tier so a cornered run completes host-side with
#: ``degraded=True`` rather than raising ``RecoveryExhausted``.
ADAPTIVE_POLICY = RecoveryPolicy(
    max_retries=4,
    backoff="exponential",
    backoff_cycles=2,
    backoff_cap_cycles=32,
    jitter_cycles=3,
    quarantine_strikes=3,
    degrade=True,
)


@dataclass(frozen=True)
class CampaignConfig:
    """One named design point a campaign injects faults into."""

    name: str
    description: str
    n: int
    m: int
    geometry: str = "linear"
    policy: str = "vertical"
    aligned: bool = True
    memory_aware: bool = False


@dataclass
class CampaignDesign:
    """A built design: the artefacts the resilient runtime consumes."""

    config: CampaignConfig
    dg: "DependenceGraph"
    gg: "GGraph"
    plan: "GSetPlan"
    order: "list[GSet]"
    semiring: Semiring


#: The campaign's design points: the six partitioned lint-gate configs
#: plus a 3x3 mesh (so mesh row retirement is exercised on more than
#: one surviving row).
CAMPAIGN_CONFIGS: tuple[CampaignConfig, ...] = (
    CampaignConfig(
        "linear-n12-m4",
        "F18 reference point: linear array, aligned, vertical policy",
        n=12, m=4,
    ),
    CampaignConfig(
        "linear-n9-m3",
        "F21 host-bandwidth point: linear array with m | n",
        n=9, m=3,
    ),
    CampaignConfig(
        "mesh-n8-m4",
        "F19 reference point: 2x2 mesh",
        n=8, m=4, geometry="mesh",
    ),
    CampaignConfig(
        "linear-horizontal-n12-m4",
        "F20/A-POL variant: horizontal-path schedule policy",
        n=12, m=4, policy="horizontal",
    ),
    CampaignConfig(
        "linear-packed-n12-m4",
        "A-ALN ablation: packed (non-aligned) linear blocks",
        n=12, m=4, aligned=False,
    ),
    CampaignConfig(
        "linear-memaware-n12-m4",
        "A-POL optimization: memory-aware greedy schedule",
        n=12, m=4, memory_aware=True,
    ),
    CampaignConfig(
        "mesh-n12-m9",
        "3x3 mesh: row retirement leaves a working 2x3 array",
        n=12, m=9, geometry="mesh",
    ),
)


def campaign_config(name: str) -> CampaignConfig:
    """Look up a shipped campaign configuration by name."""
    by_name = {c.name: c for c in CAMPAIGN_CONFIGS}
    if name not in by_name:
        raise KeyError(
            f"unknown campaign config {name!r}; available: {sorted(by_name)}"
        )
    return by_name[name]


def build_design(config: CampaignConfig) -> CampaignDesign:
    """Construct the design artefacts for one campaign configuration."""
    if config.memory_aware:
        from ..core.ggraph import GGraph, group_by_columns
        from ..core.gsets import make_linear_gsets
        from ..core.schedopt import schedule_gsets_memory_aware

        dg = tc.tc_regular(config.n)
        gg = GGraph(dg, group_by_columns)
        plan = make_linear_gsets(gg, config.m, aligned=config.aligned)
        order = list(schedule_gsets_memory_aware(plan))
        return CampaignDesign(
            config=config, dg=dg, gg=gg, plan=plan, order=order,
            semiring=BOOLEAN,
        )
    from ..core.partitioner import partition_transitive_closure

    impl = partition_transitive_closure(
        n=config.n, m=config.m, geometry=config.geometry,
        policy=config.policy, aligned=config.aligned,
    )
    return CampaignDesign(
        config=config, dg=impl.dg, gg=impl.gg, plan=impl.plan,
        order=list(impl.order), semiring=impl.semiring,
    )


def seeded_matrix(n: int, rng: random.Random, density: float = 0.4) -> np.ndarray:
    """A reproducible boolean adjacency matrix for campaign inputs."""
    return np.array(
        [[1 if rng.random() < density else 0 for _ in range(n)] for _ in range(n)],
        dtype=np.int64,
    )


def plan_fault(
    design: CampaignDesign, kind: FaultKind, rng: random.Random
) -> FaultSpec:
    """Target one fault of ``kind`` at ``design``, seeded by ``rng``.

    Targets are chosen so the fault is guaranteed to fire: transient
    faults hit a slot node (every slot node fires exactly once per run),
    dropped words hit a consumed primary input, and permanent faults hit
    a cell that fires with an onset no later than its last healthy
    firing.
    """
    dg = design.dg
    if kind is FaultKind.TRANSIENT:
        slots = [
            nid for nid in dg.topological_order()
            if dg.kind(nid).occupies_slot
        ]
        return FaultSpec(kind=kind, node=rng.choice(slots))
    if kind is FaultKind.DROPPED_WORD:
        consumed = sorted(
            (nid for nid in dg.inputs if dg.consumers(nid)), key=repr
        )
        return FaultSpec(kind=kind, node=rng.choice(consumed))
    # Permanent: a physical cell of the healthy plan, dying while it
    # still has work left (onset <= its last healthy firing).
    ep = partitioned_plan(design.plan, design.order)
    last_fire: dict[Hashable, int] = {}
    for cell, t in ep.fires.values():
        last_fire[cell] = max(last_fire.get(cell, -1), t)
    cells = sorted(last_fire, key=repr)
    cell = cells[rng.randrange(len(cells))]
    onset = rng.randint(0, last_fire[cell])
    return FaultSpec(kind=kind, cell=cell, onset=onset)


@dataclass
class CampaignRun:
    """The measured outcome of one (config, fault kind) campaign cell."""

    config: str
    kind: str
    fault: str
    injected: bool
    detected: bool
    recovered: bool
    oracle_ok: bool
    detections: int = 0
    retries: int = 0
    repartitions: int = 0
    total_cycles: int = 0
    healthy_cycles: int = 0
    overhead_cycles: int = 0
    degraded_throughput: Fraction = Fraction(0)
    error: "str | None" = None
    result: "RecoveryResult | None" = field(default=None, repr=False)
    #: Set on regime campaign cells (``None`` for classic one-fault runs).
    regime: "str | None" = None
    regime_params: "dict[str, Any] | None" = None
    faults_planned: int = 0
    quarantined: int = 0
    degraded_gsets: int = 0
    degraded_nodes: int = 0
    availability: "float | None" = None
    mttr_cycles: "float | None" = None

    @property
    def degraded(self) -> bool:
        """True when any G-set completed via the graceful tier."""
        return self.degraded_gsets > 0

    @property
    def ok(self) -> bool:
        """Injected, detected, oracle-correct, and recovered *or*
        gracefully degraded (the only tier regime runs may end in)."""
        return (
            self.error is None
            and self.injected
            and self.detected
            and (self.recovered or self.degraded)
            and self.oracle_ok
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe rendering (the heavyweight result object elided)."""
        d = {
            "config": self.config,
            "kind": self.kind,
            "fault": self.fault,
            "ok": self.ok,
            "injected": self.injected,
            "detected": self.detected,
            "recovered": self.recovered,
            "oracle_ok": self.oracle_ok,
            "detections": self.detections,
            "retries": self.retries,
            "repartitions": self.repartitions,
            "total_cycles": self.total_cycles,
            "healthy_cycles": self.healthy_cycles,
            "overhead_cycles": self.overhead_cycles,
            "degraded_throughput": float(self.degraded_throughput),
            "error": self.error,
        }
        if self.regime is not None:
            d["regime"] = self.regime
            d["regime_params"] = self.regime_params
            d["faults_planned"] = self.faults_planned
            d["quarantined"] = self.quarantined
            d["degraded"] = self.degraded
            d["degraded_gsets"] = self.degraded_gsets
            d["degraded_nodes"] = self.degraded_nodes
            d["availability"] = self.availability
            d["mttr_cycles"] = self.mttr_cycles
        return d


@dataclass
class CampaignResult:
    """Every run of one seeded campaign, plus the aggregate verdict."""

    seed: int
    runs: list[CampaignRun]

    @property
    def ok(self) -> bool:
        """The CI gate: 100% injected, detected, recovered, verified."""
        return bool(self.runs) and all(r.ok for r in self.runs)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe rendering for ``repro faults --format json``."""
        return {
            "seed": self.seed,
            "ok": self.ok,
            "runs": [r.to_dict() for r in self.runs],
        }

    def regime_summary(self) -> dict[str, Any]:
        """Aggregate regime verdicts for CI artifacts and the dashboard.

        Groups the campaign's regime cells by regime name and reports,
        per regime: runs, how many recovered on-array vs completed via
        the graceful tier, quarantines, and the worst availability /
        slowdown observed — the numbers the "Failure regimes" dashboard
        panel renders.
        """
        regimes: dict[str, dict[str, Any]] = {}
        for r in self.runs:
            if r.regime is None:
                continue
            g = regimes.setdefault(
                r.regime,
                {
                    "runs": 0, "ok": 0, "recovered": 0, "degraded": 0,
                    "quarantined": 0, "degraded_gsets": 0,
                    "min_availability": None, "max_slowdown": None,
                    "params": r.regime_params,
                },
            )
            g["runs"] += 1
            g["ok"] += int(r.ok)
            g["recovered"] += int(r.recovered and not r.degraded)
            g["degraded"] += int(r.degraded)
            g["quarantined"] += r.quarantined
            g["degraded_gsets"] += r.degraded_gsets
            if r.availability is not None:
                cur = g["min_availability"]
                g["min_availability"] = (
                    r.availability if cur is None
                    else min(cur, r.availability)
                )
            if r.healthy_cycles > 0:
                slow = r.total_cycles / r.healthy_cycles
                cur = g["max_slowdown"]
                g["max_slowdown"] = (
                    slow if cur is None else max(cur, slow)
                )
        return {
            "seed": self.seed,
            "ok": self.ok,
            "regimes": regimes,
        }

    def to_text(self) -> str:
        """Human-readable campaign table."""
        lines = [f"fault campaign (seed {self.seed})", ""]
        header = (
            f"{'config':<26} {'kind':<13} {'ok':<4} {'det':>3} "
            f"{'rty':>3} {'rep':>3} {'cycles':>7} {'ovh':>5} {'thr':>6}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for r in self.runs:
            lines.append(
                f"{r.config:<26} {r.kind:<13} "
                f"{'yes' if r.ok else 'NO':<4} {r.detections:>3} "
                f"{r.retries:>3} {r.repartitions:>3} {r.total_cycles:>7} "
                f"{r.overhead_cycles:>5} {float(r.degraded_throughput):>6.3f}"
            )
            if r.error:
                lines.append(f"    error: {r.error}")
            if r.regime is not None and (r.quarantined or r.degraded):
                lines.append(
                    f"    ladder: {r.quarantined} cell(s) quarantined, "
                    f"{r.degraded_gsets} G-set(s) host-degraded "
                    f"({r.degraded_nodes} node(s))"
                )
        good = sum(1 for r in self.runs if r.ok)
        lines.append("")
        lines.append(
            f"{good}/{len(self.runs)} runs ok "
            f"(injected, detected, recovered-or-degraded, oracle-verified)"
        )
        return "\n".join(lines)


def _config_runs(
    seed: int,
    config: CampaignConfig,
    kinds: Sequence[FaultKind],
    policy: RecoveryPolicy,
    record_metrics: bool,
    backend: "str | None",
    regimes: "Sequence[str] | None" = None,
    regime_knobs: "Mapping[str, Any] | None" = None,
) -> list[CampaignRun]:
    """All campaign cells of one configuration (one design build).

    The compiled-plan cache starts empty, as in a fresh worker, so a
    config's compiles and cache hits do not depend on the configs run
    before it in the same process (``--jobs N`` ledger parity).
    """
    clear_compiled_cache()
    cache_before = compiled_cache_info()
    with stage_span("campaign.config", config=config.name):
        design = build_design(config)
        a = seeded_matrix(
            config.n, random.Random(f"{seed}:{config.name}:matrix")
        )
        inputs = tc.make_inputs(a, design.semiring)
        if regimes:
            runs = _regime_runs(
                seed, config, regimes, regime_knobs or {}, policy,
                record_metrics, backend, design, inputs,
            )
        else:
            runs = _kind_runs(
                seed, config, kinds, policy, record_metrics, backend,
                design, inputs,
            )
    if record_metrics:
        _count_cells(config, runs)
    cache_after = compiled_cache_info()
    runlog.record(
        "plan_cache", outcome="summary", config=config.name,
        hits=cache_after["hits"] - cache_before["hits"],
        misses=cache_after["misses"] - cache_before["misses"],
    )
    return runs


def _cell_run(
    config: CampaignConfig,
    kind: str,
    fault: str,
    injected: bool,
    detected: bool,
    result: "RecoveryResult | None",
    error: "str | None",
    **regime_fields: Any,
) -> CampaignRun:
    """One cell's outcome; a run that raised keeps its error and zeros."""
    if result is None:
        return CampaignRun(
            config=config.name, kind=kind, fault=fault, injected=injected,
            detected=False, recovered=False, oracle_ok=False, error=error,
            **regime_fields,
        )
    return CampaignRun(
        config=config.name, kind=kind, fault=fault, injected=injected,
        detected=detected, recovered=result.recovered,
        oracle_ok=bool(result.oracle_ok),
        detections=len(result.detections), retries=result.retries,
        repartitions=result.repartitions, total_cycles=result.total_cycles,
        healthy_cycles=result.healthy_cycles,
        overhead_cycles=result.overhead_cycles,
        degraded_throughput=result.degraded_throughput, result=result,
        **regime_fields,
    )


def _count_cells(config: CampaignConfig, runs: Sequence[CampaignRun]) -> None:
    """The campaign cell counters.  A cell's verdict is in no ledger
    event, so they stay outside ``runlog.EVENT_METRICS``."""
    reg = get_registry()
    for run in runs:
        reg.counter(
            "repro_fault_campaign_runs_total",
            "campaign runs by config, kind and verdict",
        ).inc(config=config.name, kind=run.kind, ok=run.ok)
        if run.regime is None:
            continue
        reg.counter(
            "repro_fault_regime_runs_total",
            "regime campaign cells by regime and verdict",
        ).inc(regime=run.regime, config=config.name, ok=run.ok)
        reg.counter(
            "repro_fault_regime_faults_total",
            "faults planned by the failure regimes",
        ).inc(run.faults_planned, regime=run.regime, config=config.name)


def _kind_runs(
    seed: int,
    config: CampaignConfig,
    kinds: Sequence[FaultKind],
    policy: RecoveryPolicy,
    record_metrics: bool,
    backend: "str | None",
    design: CampaignDesign,
    inputs: "Mapping[NodeId, Any]",
) -> list[CampaignRun]:
    runs: list[CampaignRun] = []
    for kind in kinds:
        rng = random.Random(f"{seed}:{config.name}:{kind.value}")
        spec = plan_fault(design, kind, rng)
        error: "str | None" = None
        result: "RecoveryResult | None" = None
        with stage_span("campaign.cell", kind=kind.value):
            try:
                result = run_resilient(
                    design.dg, design.gg, design.plan, design.order,
                    inputs,
                    semiring=design.semiring,
                    faults=[spec],
                    policy=policy,
                    aligned=config.aligned,
                    record_metrics=record_metrics,
                    description=f"{config.name}:{kind.value}",
                    backend=backend,
                )
            except ResilienceError as exc:
                error = f"{type(exc).__name__}: {exc}"
        runs.append(_cell_run(
            config, kind.value, spec.describe(), spec.triggered,
            result is not None and spec.triggered
            and result.detected_fault_count >= len(result.injected),
            result, error,
        ))
    return runs


def _regime_runs(
    seed: int,
    config: CampaignConfig,
    regimes: "Sequence[str]",
    regime_knobs: "Mapping[str, Any]",
    policy: RecoveryPolicy,
    record_metrics: bool,
    backend: "str | None",
    design: CampaignDesign,
    inputs: "Mapping[NodeId, Any]",
) -> list[CampaignRun]:
    """One campaign cell per failure regime against one design.

    Each regime plans its whole multi-fault :class:`~repro.resilience.
    regimes.FaultPlan` from ``random.Random(f"{seed}:{config}:{regime}")``
    — the same stringly-deterministic keying as :func:`plan_fault` — and
    a cell is *ok* when at least one planned fault fired, every fired
    fault was detected, the output matches the oracle, and the run
    either recovered on-array or completed via the graceful tier.
    """
    runs: list[CampaignRun] = []
    for name in regimes:
        regime = make_regime(name, **regime_knobs)
        rng = random.Random(f"{seed}:{config.name}:{name}")
        fault_plan: FaultPlan = regime.plan(design, rng)
        specs = fault_plan.specs()
        error: "str | None" = None
        result: "RecoveryResult | None" = None
        with stage_span("campaign.cell", regime=name):
            runlog.record(
                "fault_regime", design=f"{config.name}:{name}",
                regime=name, params=dict(fault_plan.params),
                faults=len(specs),
            )
            try:
                result = run_resilient(
                    design.dg, design.gg, design.plan, design.order,
                    inputs,
                    semiring=design.semiring,
                    faults=specs,
                    policy=policy,
                    aligned=config.aligned,
                    record_metrics=record_metrics,
                    description=f"{config.name}:{name}",
                    backend=backend,
                )
            except ResilienceError as exc:
                error = f"{type(exc).__name__}: {exc}"
        fired = [f for f in specs if f.triggered]
        regime_fields: dict[str, Any] = dict(
            regime=name, regime_params=dict(fault_plan.params),
            faults_planned=len(fault_plan.faults),
        )
        if result is not None:
            regime_fields.update(
                quarantined=len(result.escalations),
                degraded_gsets=len(result.degraded_sids),
                degraded_nodes=result.degraded_nodes,
                availability=float(result.availability),
                mttr_cycles=result.mttr_cycles,
            )
        runs.append(_cell_run(
            config, name,
            "; ".join(f.describe() for f in fault_plan.faults), bool(fired),
            result is not None and bool(fired)
            and result.all_faults_detected,
            result, error, **regime_fields,
        ))
    return runs


def _campaign_worker(
    seed: int,
    config: CampaignConfig,
    kinds: tuple[FaultKind, ...],
    policy: RecoveryPolicy,
    record_metrics: bool,
    backend: "str | None",
    runlog_payload: "dict[str, str] | None" = None,
    regimes: "tuple[str, ...] | None" = None,
    regime_knobs: "dict[str, Any] | None" = None,
) -> "tuple[list[CampaignRun], dict[str, Any] | None, list[dict[str, Any]]]":
    """One worker process: a fresh registry, one config, all kinds.

    Module-level so :class:`~concurrent.futures.ProcessPoolExecutor`
    can pickle it.  Returns the runs, the worker registry's JSON
    snapshot (merged into the parent registry), and the worker's run-log
    event buffer (absorbed into the parent ledger in submission order —
    the same discipline, so a ``--jobs N`` ledger is content-identical
    to a sequential one).
    """
    from ..obs.metrics import MetricsRegistry, set_registry

    snapshot: "dict[str, Any] | None" = None
    if record_metrics:
        set_registry(MetricsRegistry())
    with runlog.worker_scope(runlog_payload, task=config.name) as rl:
        runs = _config_runs(
            seed, config, kinds, policy, record_metrics, backend,
            regimes=regimes, regime_knobs=regime_knobs,
        )
    events = rl.events if rl is not None else []
    if record_metrics:
        snapshot = get_registry().to_json()
    return runs, snapshot, events


def run_campaign(
    seed: int = 0,
    configs: "Sequence[CampaignConfig | str] | None" = None,
    kinds: "Sequence[FaultKind | str] | None" = None,
    policy: "RecoveryPolicy | None" = None,
    record_metrics: bool = True,
    jobs: "int | None" = None,
    backend: "str | None" = None,
    regime: "str | Sequence[str] | None" = None,
    regime_knobs: "Mapping[str, Any] | None" = None,
) -> CampaignResult:
    """Run one seeded campaign: every config x every fault kind/regime.

    Classic campaigns (``regime=None``) inject exactly one planned
    fault per (config, kind) cell and must detect it, recover, and
    produce the oracle's output.  Regime campaigns (``regime`` a name
    from :data:`~repro.resilience.regimes.REGIME_NAMES`, or a sequence
    of them) instead arm one whole multi-fault
    :class:`~repro.resilience.regimes.FaultPlan` per (config, regime)
    cell and run it under :data:`ADAPTIVE_POLICY` (quarantine ladder +
    graceful degradation) unless ``policy`` overrides; a cell passes
    when every fired fault is detected and the run recovers *or*
    degrades gracefully with oracle-correct output.  ``regime_knobs``
    forwards CLI knob overrides to
    :func:`~repro.resilience.regimes.make_regime`.  A
    :class:`~repro.resilience.runtime.RecoveryExhausted` (or any
    resilience error) is recorded on the run — the campaign never
    crashes half way — and fails the aggregate verdict.

    ``jobs`` > 1 fans the configurations out over a
    :class:`~concurrent.futures.ProcessPoolExecutor`.  Results come
    back in submission order and every worker's metrics snapshot is
    merged into the parent registry, so the :class:`CampaignResult`
    (and, with ``record_metrics``, the registry series) is identical to
    a sequential run's — the seeded RNG streams are keyed by config
    name, never by worker.  ``backend`` selects the attempt simulator
    (see :func:`~repro.resilience.runtime.run_resilient`).
    """
    chosen = [
        campaign_config(c) if isinstance(c, str) else c
        for c in (configs if configs is not None else CAMPAIGN_CONFIGS)
    ]
    chosen_kinds = [
        FaultKind(k) if isinstance(k, str) else k
        for k in (kinds if kinds is not None else tuple(FaultKind))
    ]
    regimes: "tuple[str, ...] | None" = None
    if regime is not None:
        regimes = (regime,) if isinstance(regime, str) else tuple(regime)
    if policy is None:
        policy = ADAPTIVE_POLICY if regimes else RecoveryPolicy()
    knobs = dict(regime_knobs or {})
    # Run identity: semantic parameters only — never ``jobs``, so a
    # parallel campaign shares the sequential run's ledger.  Regime
    # keys only appear on regime campaigns, keeping the classic
    # campaign's run IDs stable across this feature.
    params: dict[str, Any] = {
        "seed": seed,
        "configs": [c.name for c in chosen],
        "kinds": [k.value for k in chosen_kinds],
        "backend": backend,
    }
    if regimes:
        params["regimes"] = list(regimes)
        if knobs:
            params["regime_knobs"] = {
                k: knobs[k] for k in sorted(knobs)
            }
    runs: list[CampaignRun] = []
    with runlog.run_scope("campaign", params) as rl:
        if jobs is not None and jobs > 1 and len(chosen) > 1:
            from concurrent.futures import ProcessPoolExecutor

            kinds_t = tuple(chosen_kinds)
            payload = runlog.worker_payload()
            with ProcessPoolExecutor(max_workers=min(jobs, len(chosen))) as pool:
                futures = [
                    pool.submit(
                        _campaign_worker, seed, config, kinds_t, policy,
                        record_metrics, backend, payload,
                        regimes, knobs,
                    )
                    for config in chosen
                ]
                # Deterministic: collect in submission (= config) order;
                # ledgers and registries merge under the same rule.
                for fut in futures:
                    config_runs, snapshot, events = fut.result()
                    runs.extend(config_runs)
                    if snapshot is not None:
                        get_registry().merge_json(snapshot)
                    if rl is not None:
                        rl.absorb(events)
        else:
            for config in chosen:
                with runlog.task_scope(config.name):
                    runs.extend(
                        _config_runs(
                            seed, config, chosen_kinds, policy,
                            record_metrics, backend,
                            regimes=regimes, regime_knobs=knobs,
                        )
                    )
    return CampaignResult(seed=seed, runs=runs)
