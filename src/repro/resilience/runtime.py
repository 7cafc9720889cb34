"""The resilient executor: G-set-stepped runs with mid-run recovery.

Instead of simulating one monolithic execution plan, the resilient
runtime drives the pile one G-set at a time — the same cells, the same
skews, the same cycles as :func:`repro.arrays.plan.partitioned_plan`
(a fault-free resilient run fires every node at the *identical*
``(cell, cycle)``; the test suite asserts this) — but with a commit
barrier after every set:

1. build the set's attempt subgraph (operands from earlier sets become
   reads of the checkpoint store — the cut-and-pile external memories);
2. simulate it at absolute cycles, with the campaign's injector armed;
3. run the detectors (deadline watchdog, then full-rate signature
   recompute-and-compare);
4. on success, park the set's boundary words and commit; on
   :class:`~repro.resilience.detect.FaultDetected`, retry with backoff —
   and when the same physical cell stays implicated across
   ``permanent_threshold`` consecutive detections, diagnose a permanent
   fault, retire the cell (linear bypass ``m -> m-f``; mesh row
   retirement), re-partition the *uncommitted remainder* of the G-graph
   with the existing :func:`~repro.core.gsets.make_linear_gsets` /
   :func:`~repro.core.gsets.make_mesh_gsets` machinery, lint the
   resulting :class:`~repro.resilience.checkpoint.RecoveryPlan` (RL401),
   and resume from the checkpoint.

Every cycle of overhead — failed attempts, backoff, re-partition
control, idle slots left by committed members inside re-cut G-sets — is
accounted on the same clock the healthy run uses, so
``RecoveryResult.degraded_throughput`` is a measured number, not an
estimate.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Hashable, Mapping, Sequence

import numpy as np

from ..algorithms import transitive_closure as tc
from ..arrays.plan import ExecutionPlan, _mesh_skew
from ..arrays.topology import linear_topology, mesh_topology
from ..core.evaluate import evaluate, evaluate_full
from ..core.ggraph import GGraph
from ..core.graph import DependenceGraph, NodeId, NodeKind, PortRef
from ..core.gsets import GSet, GSetPlan, make_linear_gsets, make_mesh_gsets, schedule_gsets
from ..core.partitioner import PartitionedImplementation
from ..core.semiring import BOOLEAN, Semiring
from ..obs import runlog
from ..obs.metrics import get_registry
from ..obs.tracing import stage_span
from .checkpoint import CheckpointStore, RecoveryPlan
from .detect import DetectionEvent, FaultDetected, check_signatures, check_watchdog
from .faults import AttemptInjector, FaultKind, FaultSpec

__all__ = [
    "CellHealth",
    "RecoveryPolicy",
    "ResilienceError",
    "RecoveryExhausted",
    "TimelineEvent",
    "RecoveryResult",
    "run_resilient",
    "run_resilient_closure",
]


class ResilienceError(RuntimeError):
    """An unrecoverable resilience-runtime failure."""


class RecoveryExhausted(ResilienceError):
    """The retry budget ran out (or no cells survive) — a structured stop.

    Carries the G-set that could not be completed, the number of
    attempts spent on it, and the last detection event.
    """

    def __init__(
        self, sid: tuple, attempts: int, last: "DetectionEvent | None", why: str
    ) -> None:
        self.sid = sid
        self.attempts = attempts
        self.last_detection = last
        super().__init__(
            f"recovery exhausted at G-set {sid} after {attempts} attempt(s): {why}"
        )


@dataclass(frozen=True)
class RecoveryPolicy:
    """Tunable recovery behaviour (all cycle costs land on the run clock).

    Attributes
    ----------
    max_retries:
        Retries allowed per G-set before :class:`RecoveryExhausted`
        (or, with :attr:`degrade`, the graceful-degradation tier).
    backoff_cycles:
        Base backoff.  ``backoff="linear"`` waits ``r * backoff_cycles``
        on retry ``r``; ``"exponential"`` waits
        ``backoff_cycles * 2**(r-1)`` capped at
        :attr:`backoff_cap_cycles`.
    backoff:
        Backoff growth discipline, ``"linear"`` or ``"exponential"``.
    backoff_cap_cycles:
        Upper bound on one exponential backoff wait (RL402 requires the
        growth to be bounded).
    jitter_cycles:
        Deterministic jitter amplitude: retry ``r`` of G-set ``sid``
        additionally waits ``sha256(f"jitter:{sid}:{r}") %
        (jitter_cycles + 1)`` cycles — de-synchronizing repeated
        retries without any platform-dependent randomness.
    permanent_threshold:
        Consecutive signature detections that must implicate one same
        physical cell before it is diagnosed permanent and retired.
    quarantine_strikes:
        Escalation ladder: cumulative signature strikes (across the
        whole run, not necessarily consecutive) after which a cell is
        *quarantined* as suspected-permanent and the existing
        re-partition path triggers instead of burning the retry budget
        on a chronically flaky cell.  ``0`` disables the ladder.
    repartition_cycles:
        Control-plane cost charged for a mid-run re-partition.
    degrade:
        Enable the graceful-degradation tier: when the retry budget is
        exhausted, or a re-partition is impossible (no surviving
        cells), the affected G-set is retired to a host-side reference
        computation and the run completes with ``degraded=True``
        instead of raising :class:`RecoveryExhausted`.
    degrade_cycles_per_node:
        Host-side cost model for a degraded G-set: cycles charged per
        member node computed on the host (the host is slower per value
        than the array but needs no retries).
    signature_sample_rate:
        Fraction of members whose signatures are recomputed (1.0 — the
        default — is what guarantees every value fault is caught).
    """

    max_retries: int = 4
    backoff_cycles: int = 2
    backoff: str = "linear"
    backoff_cap_cycles: int = 64
    jitter_cycles: int = 0
    permanent_threshold: int = 2
    quarantine_strikes: int = 0
    repartition_cycles: int = 8
    degrade: bool = False
    degrade_cycles_per_node: int = 2
    signature_sample_rate: float = 1.0


def _backoff_wait(policy: RecoveryPolicy, sid: tuple, attempt: int) -> int:
    """Cycles to wait after failed ``attempt`` of G-set ``sid``.

    Deterministic by construction: exponential growth is capped, and
    jitter comes from a stringly-keyed SHA-256 draw, never a platform
    RNG — the same policy replays the same waits everywhere.
    """
    if policy.backoff == "exponential":
        base = min(
            policy.backoff_cycles * (2 ** (attempt - 1)),
            policy.backoff_cap_cycles,
        )
    else:
        base = policy.backoff_cycles * attempt
    if policy.jitter_cycles > 0:
        digest = hashlib.sha256(f"jitter:{sid}:{attempt}".encode()).digest()
        base += digest[0] % (policy.jitter_cycles + 1)
    return base


@dataclass
class CellHealth:
    """One physical cell's health record on the per-run scoreboard.

    ``state`` walks ``healthy -> suspect`` on the first implication and
    ends in ``retired`` (diagnosed permanent) or ``quarantined``
    (escalated after :attr:`RecoveryPolicy.quarantine_strikes` strikes);
    cells never leave a terminal state within one run.
    """

    cell: Hashable
    state: str = "healthy"  # healthy | suspect | retired | quarantined
    strikes: int = 0
    implicated: int = 0
    first_implicated: "int | None" = None
    retired_at: "int | None" = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe rendering for reports and campaign summaries."""
        return {
            "cell": repr(self.cell),
            "state": self.state,
            "strikes": self.strikes,
            "implicated": self.implicated,
            "first_implicated": self.first_implicated,
            "retired_at": self.retired_at,
        }


@dataclass(frozen=True)
class TimelineEvent:
    """One step of the recovery timeline (renderable as a trace span)."""

    # "gset" | "retry" | "backoff" | "repartition" | "skip" | "degrade"
    kind: str
    sid: tuple
    start: int
    end: int
    detail: str = ""


@dataclass
class RecoveryResult:
    """Everything a resilient run measured."""

    description: str
    outputs: dict[NodeId, Any]
    total_cycles: int
    healthy_cycles: int
    stall_cycles: int
    injected: list[FaultSpec]
    detections: list[DetectionEvent]
    detected_fault_count: int
    retries: int
    repartitions: int
    retired_cells: frozenset[Hashable]
    final_m: int
    words_parked: int
    timeline: list[TimelineEvent]
    #: Absolute cycle every committed node fired at (fault-free runs
    #: reproduce :func:`repro.arrays.plan.partitioned_plan` exactly).
    fire_cycles: dict[NodeId, int]
    oracle_ok: "bool | None" = None
    #: G-sets retired to the host-side reference computation (graceful
    #: degradation) and the member nodes the host computed.
    degraded_sids: list[tuple] = field(default_factory=list)
    degraded_nodes: int = 0
    #: Escalated-to-permanent specs the quarantine ladder synthesized
    #: (``provenance="escalated"``; never armed in the simulator).
    escalations: list[FaultSpec] = field(default_factory=list)
    #: Per-physical-cell health records (initial topology's cells).
    scoreboard: dict[Hashable, CellHealth] = field(default_factory=dict)
    #: Cycles from each G-set's first detection to its commit/degrade.
    repair_cycles: list[int] = field(default_factory=list)

    @property
    def overhead_cycles(self) -> int:
        """Cycles beyond the fault-free makespan of the healthy plan."""
        return self.total_cycles - self.healthy_cycles

    @property
    def degraded_throughput(self) -> Fraction:
        """Measured throughput as a fraction of the healthy run's (<= 1)."""
        if self.total_cycles <= 0:
            return Fraction(0)
        return Fraction(self.healthy_cycles, self.total_cycles)

    @property
    def degraded(self) -> bool:
        """True when any G-set was retired to the host (graceful tier)."""
        return bool(self.degraded_sids)

    @property
    def mttr_cycles(self) -> "float | None":
        """Mean cycles from a set's first detection to its commit
        (measured repair time; ``None`` for fault-free runs)."""
        if not self.repair_cycles:
            return None
        return sum(self.repair_cycles) / len(self.repair_cycles)

    @property
    def availability(self) -> Fraction:
        """Fraction of cell-cycles the array's cells were in service.

        A cell retired (or quarantined) at clock ``t`` was available
        for ``t`` of the run's ``total_cycles``; surviving cells for
        all of them.  1 for a fault-free run, and the per-cell view of
        the hyper-systolic row-retirement cost as arrays shrink.
        """
        if self.total_cycles <= 0 or not self.scoreboard:
            return Fraction(1)
        alive = sum(
            min(h.retired_at, self.total_cycles)
            if h.retired_at is not None else self.total_cycles
            for h in self.scoreboard.values()
        )
        return Fraction(alive, len(self.scoreboard) * self.total_cycles)

    @property
    def recovered(self) -> bool:
        """Every detected fault was survived (the run completed)."""
        return self.detected_fault_count == len(
            [f for f in self.injected if f.triggered]
        )

    @property
    def all_faults_detected(self) -> bool:
        """Every fault that actually fired was caught by a detector."""
        return self.recovered

    def output_matrix(self, n: int, semiring: Semiring = BOOLEAN) -> np.ndarray:
        """Assemble ``("out", i, j)`` outputs into a matrix."""
        return tc.read_output_matrix(self.outputs, n, semiring)


def _identity_cell_map(geometry: str, m: int, shape: tuple[int, int]) -> dict:
    if geometry == "linear":
        return {c: c for c in range(m)}
    return {(r, c): (r, c) for r in range(shape[0]) for c in range(shape[1])}


def _skew_fn(geometry: str, skew_unit: int) -> Callable[[Any], int]:
    if geometry == "linear":
        return lambda cell: skew_unit * int(cell)
    return lambda cell: _mesh_skew(cell, skew_unit)


@dataclass
class _SetLayout:
    """One pending G-set's uncommitted members with plan coordinates."""

    sid: tuple
    members: tuple[NodeId, ...]  # dg topological order
    cell_of: dict[NodeId, Hashable]
    slot_of: dict[NodeId, int]
    comp_time: int


def _layout(
    s: GSet,
    gg: GGraph,
    committed: set[NodeId],
    topo_index: Mapping[NodeId, int],
) -> _SetLayout:
    cell_of: dict[NodeId, Hashable] = {}
    slot_of: dict[NodeId, int] = {}
    for gid, cell in zip(s.gids, s.cells):
        for j, nid in enumerate(gg.gnodes[gid].members):
            if nid in committed:
                continue
            cell_of[nid] = cell
            slot_of[nid] = j
    members = tuple(sorted(cell_of, key=lambda n: topo_index[n]))
    return _SetLayout(
        sid=s.sid,
        members=members,
        cell_of=cell_of,
        slot_of=slot_of,
        comp_time=s.comp_time(gg),
    )


def _build_attempt_graph(
    dg: DependenceGraph,
    layout: _SetLayout,
    store: CheckpointStore,
    inputs: Mapping[NodeId, Any],
) -> tuple[DependenceGraph, dict[NodeId, Any], list[tuple[NodeId, str]]]:
    """The attempt subgraph, its input env, and the ports to park.

    Members are re-added with their original ids; operands outside the
    set become reads of the checkpoint store (synthetic
    ``("ckpt", src, port)`` inputs), host inputs, or constants.  Output
    taps expose every member's ``out`` port (``("sig", nid)`` — the
    signature the detector compares) plus every forwarded port consumed
    outside the set (``("park", nid, port)`` — the cut-and-pile words
    the commit parks).
    """
    member_set = set(layout.members)
    sub = DependenceGraph(f"{dg.name}/gset{layout.sid}")
    sub_inputs: dict[NodeId, Any] = {}
    node_data = dg.g.nodes

    def resolve(src: NodeId, port: str) -> PortRef:
        if src in member_set:
            return PortRef(src, port)
        if store.has(src):
            synth = ("ckpt", src, port)
            if synth not in sub:
                sub.add_input(synth)
                sub_inputs[synth] = store.read(src, port)
            return PortRef(synth, "out")
        src_kind = node_data[src]["kind"]
        if src_kind is NodeKind.INPUT:
            if src not in sub:
                sub.add_input(src, tag=node_data[src].get("tag"))
                sub_inputs[src] = inputs[src]
            return PortRef(src, port)
        if src_kind is NodeKind.CONST:
            if src not in sub:
                sub.add_const(src, node_data[src]["value"])
            return PortRef(src, port)
        raise ResilienceError(
            f"G-set {layout.sid} depends on uncommitted node {src!r} "
            "outside the set — the resumed schedule is unsound"
        )

    for nid in layout.members:
        d = node_data[nid]
        kind = d["kind"]
        operands = {
            role: resolve(src, port)
            for role, (src, port) in d["operands"].items()
        }
        if kind is NodeKind.OP:
            sub.add_op(
                nid, d["opcode"], operands,
                comp_time=d.get("comp_time", 1), tag=d.get("tag"),
            )
        elif kind in (NodeKind.PASS, NodeKind.DELAY):
            (ref,) = operands.values()
            sub.add_pass(nid, ref, kind=kind, tag=d.get("tag"))
        else:  # pragma: no cover - G-nodes only group slot nodes
            raise ResilienceError(f"non-slot node {nid!r} inside a G-node")

    parked_ports: list[tuple[NodeId, str]] = []
    for nid in layout.members:
        sub.add_output(("sig", nid), PortRef(nid, "out"))
        for p in dg.output_ports(nid):
            consumed_outside = any(
                dst not in member_set for dst, _ in dg.consumers(nid, p)
            )
            if consumed_outside:
                parked_ports.append((nid, p))
                if p != "out":
                    sub.add_output(("park", nid, p), PortRef(nid, p))
    return sub, sub_inputs, parked_ports


def run_resilient(
    dg: DependenceGraph,
    gg: GGraph,
    plan: GSetPlan,
    order: Sequence[GSet],
    inputs: Mapping[NodeId, Any],
    semiring: Semiring = BOOLEAN,
    faults: Sequence[FaultSpec] = (),
    policy: RecoveryPolicy = RecoveryPolicy(),
    aligned: bool = True,
    reschedule: "Callable[[GSetPlan], list[GSet]] | None" = None,
    skew_unit: int = 1,
    verify: bool = True,
    record_metrics: bool = True,
    description: "str | None" = None,
    rng: "random.Random | None" = None,
    backend: "str | None" = None,
) -> RecoveryResult:
    """Execute a partitioned design with checkpoints, detection, recovery.

    Parameters
    ----------
    faults:
        Armed :class:`~repro.resilience.faults.FaultSpec` list (empty for
        a fault-free run — which then fires every node at exactly the
        cycles :func:`~repro.arrays.plan.partitioned_plan` assigns).
    policy:
        Retry/backoff/diagnosis/re-partition tuning.
    aligned:
        Alignment flag forwarded to :func:`make_linear_gsets` when a
        permanent fault forces a linear re-partition.
    reschedule:
        Scheduler for re-partitioned plans (default: the paper's
        vertical-path policy).
    verify:
        Compare the recovered outputs against the software oracle
        (:func:`repro.core.evaluate.evaluate`) and record the verdict on
        ``RecoveryResult.oracle_ok``.
    record_metrics:
        Publish ``repro_fault_*`` metrics to the process-wide registry.
    backend:
        Simulator backend for the per-set attempts (``None`` uses the
        process default).  Attempts that an armed fault *could* touch
        keep the injection seam and therefore run on the reference
        interpreter regardless (see
        :meth:`~repro.resilience.faults.AttemptInjector.may_trigger`);
        provably fault-free attempts drop the seam and may use the
        vectorized backend.

    Raises
    ------
    RecoveryExhausted
        When one G-set exceeds the retry budget or no cells survive.
    """
    from ..arrays.vector_sim import get_backend, resolve_backend

    _preflight_policy(policy)
    backend_name = resolve_backend(backend)
    simulate = get_backend(backend_name)

    if reschedule is None:
        reschedule = lambda p: schedule_gsets(p, "vertical")  # noqa: E731
    desc = description or (
        f"{dg.name} -> {plan.geometry}(m={plan.m}) resilient"
    )
    runlog.record(
        "backend", backend=backend_name, design=desc,
        geometry=plan.geometry, m=plan.m,
    )
    faults = list(faults)
    topo_index = {nid: i for i, nid in enumerate(dg.topological_order())}
    slot_nodes = frozenset(
        nid for nid in topo_index
        if dg.g.nodes[nid]["kind"].occupies_slot
    )

    geometry = plan.geometry
    cur_m = plan.m
    cur_shape = plan.shape
    cell_map: dict[Hashable, Hashable] = _identity_cell_map(
        geometry, cur_m, cur_shape
    )
    retired: set[Hashable] = set()
    skew = _skew_fn(geometry, skew_unit)
    topo = (
        linear_topology(cur_m) if geometry == "linear"
        else mesh_topology(*cur_shape)
    )

    store = CheckpointStore()
    clock = 0
    stalls = 0
    retries = 0
    repartitions = 0
    timeline: list[TimelineEvent] = []
    detections: list[DetectionEvent] = []
    detected_spec_ids: set[int] = set()

    healthy_cycles = _healthy_clock(gg, order)

    queue: list[GSet] = list(order)
    i = 0
    attempts_this_set = 0
    implicated_history: list[set[Hashable]] = []
    logged_specs: set[int] = set()

    # Per-physical-cell health scoreboard (escalation ladder state).
    scoreboard: dict[Hashable, CellHealth] = {
        c: CellHealth(cell=c) for c in cell_map
    }
    escalations: list[FaultSpec] = []
    degraded_sids: list[tuple] = []
    degraded_nodes = 0
    repair_cycles: list[int] = []
    incident_open: "int | None" = None
    # Graceful-degradation terminal mode: once a re-partition proves
    # impossible the array is written off and every remaining G-set
    # goes straight to the host-side reference computation.
    host_only = False

    def _host_complete(s: GSet, layout: _SetLayout, start: int, reason: str) -> int:
        """Graceful degradation: compute one G-set host-side and commit it.

        The host evaluates the attempt subgraph with the reference
        interpreter — reliable by assumption, like the signature
        recompute — parks exactly the words the array would have
        parked, and charges ``degrade_cycles_per_node`` per member on
        the same run clock every other recovery cost lands on.
        """
        nonlocal degraded_nodes
        sub, sub_inputs, parked_ports = _build_attempt_graph(
            dg, layout, store, inputs
        )
        full = evaluate_full(sub, sub_inputs, semiring)
        end = start + policy.degrade_cycles_per_node * len(layout.members)
        parked = {(nid, p): full[nid][p] for nid, p in parked_ports}
        store.commit(
            s.sid, layout.members, parked,
            {nid: end for nid in layout.members},
        )
        degraded_sids.append(s.sid)
        degraded_nodes += len(layout.members)
        timeline.append(
            TimelineEvent(
                "degrade", s.sid, start, end,
                f"{reason}: {len(layout.members)} node(s) host-computed",
            )
        )
        runlog.record(
            "degrade", design=desc, sid=repr(s.sid), reason=reason,
            nodes=len(layout.members), words=len(parked),
        )
        return end

    with stage_span(
        "resilience.run", graph=dg.name, geometry=geometry, m=plan.m,
        gsets=len(order), faults=len(faults),
    ) as sp:
        while i < len(queue):
            s = queue[i]
            layout = _layout(s, gg, store.committed_nodes, topo_index)
            if not layout.members:
                timeline.append(
                    TimelineEvent("skip", s.sid, clock, clock, "all committed")
                )
                i += 1
                attempts_this_set = 0
                implicated_history.clear()
                continue
            if host_only:
                clock = _host_complete(s, layout, clock, "no_survivors")
                if incident_open is not None:
                    repair_cycles.append(clock - incident_open)
                    incident_open = None
                i += 1
                attempts_this_set = 0
                implicated_history.clear()
                continue

            # Earliest start honouring checkpointed cross-set operands
            # (memory round trip) — partitioned_plan's stall rule.
            earliest = clock
            for nid in layout.members:
                offset = skew(layout.cell_of[nid]) + layout.slot_of[nid]
                for src, _port in dg.g.nodes[nid]["operands"].values():
                    prior = store.fire_cycle.get(src)
                    if prior is not None:
                        earliest = max(earliest, prior + 2 - offset)
            stalls += earliest - clock
            set_start = earliest

            sub, sub_inputs, parked_ports = _build_attempt_graph(
                dg, layout, store, inputs
            )
            fires = {
                nid: (
                    layout.cell_of[nid],
                    set_start + skew(layout.cell_of[nid]) + layout.slot_of[nid],
                )
                for nid in layout.members
            }
            ep = ExecutionPlan(
                topology=topo,
                fires=fires,
                description=f"gset {s.sid} attempt {attempts_this_set + 1}",
            )
            ep.validate_exclusive()

            injector = AttemptInjector(faults, semiring, cell_map)
            # When no armed fault can touch this attempt the injector is
            # provably a no-op: drop the seam so the attempt may run on
            # the vectorized backend (it falls back whenever ``inject``
            # is armed).  The injector object itself stays — the
            # watchdog reads its (empty) delivery log either way.
            armed = injector.may_trigger(fires, sub_inputs)
            res = simulate(
                ep, sub, sub_inputs, semiring,
                inject=injector if armed else None,
            )
            if res.violations:  # pragma: no cover - internal invariant
                raise ResilienceError(
                    f"attempt plan for G-set {s.sid} violated timing: "
                    f"{res.violations[0]}"
                )
            attempts_this_set += 1
            attempt_end = set_start + layout.comp_time
            for f in injector.triggered_specs:
                if id(f) not in logged_specs:
                    logged_specs.add(id(f))
                    runlog.record(
                        "fault_inject", metrics=record_metrics,
                        design=desc, kind=f.kind.value,
                        fault=f.describe(), sid=repr(s.sid),
                        attempt=attempts_this_set,
                    )

            try:
                check_watchdog(
                    injector, s.sid, attempts_this_set, set_start
                )
                computed = {
                    nid: res.outputs[("sig", nid)] for nid in layout.members
                }
                check_signatures(
                    sub, sub_inputs, semiring, layout.members, computed,
                    layout.cell_of, cell_map, s.sid, attempts_this_set,
                    set_start,
                    sample_rate=policy.signature_sample_rate, rng=rng,
                )
            except FaultDetected as fd:
                detections.append(fd.event)
                detected_spec_ids.update(
                    id(f) for f in injector.triggered_specs
                )
                runlog.record(
                    "fault_detect", design=desc, reason=fd.reason,
                    sid=repr(s.sid), attempt=attempts_this_set,
                    nodes=len(fd.nodes),
                    cells=sorted(map(repr, fd.cells)),
                )
                timeline.append(
                    TimelineEvent(
                        "retry", s.sid, set_start, attempt_end,
                        f"attempt {attempts_this_set}: {fd.reason}",
                    )
                )
                retries += 1
                if incident_open is None:
                    incident_open = attempt_end
                # Scoreboard: every implicated cell takes a strike
                # (dropped words implicate the channel, not silicon).
                for cell in fd.event.strike_cells:
                    h = scoreboard.setdefault(cell, CellHealth(cell=cell))
                    h.strikes += 1
                    h.implicated += 1
                    if h.first_implicated is None:
                        h.first_implicated = attempt_end
                    if h.state == "healthy":
                        h.state = "suspect"
                # Wasted attempt cycles + backoff, on the clock.
                backoff = _backoff_wait(policy, s.sid, attempts_this_set)
                clock = attempt_end + backoff
                if backoff:
                    timeline.append(
                        TimelineEvent(
                            "backoff", s.sid, attempt_end, clock,
                            f"{backoff} cycle(s)",
                        )
                    )
                if fd.reason == "signature_mismatch":
                    implicated_history.append(set(fd.cells))
                else:
                    implicated_history.clear()  # channel fault, no cell
                # Escalation ladder: a consecutive-implication diagnosis
                # wins; otherwise cumulative strikes quarantine a cell
                # as suspected-permanent, re-using the re-partition path
                # instead of burning the remaining retry budget.
                diagnosed = _diagnose(implicated_history, policy)
                provenance = "diagnosed"
                if not diagnosed and policy.quarantine_strikes > 0:
                    diagnosed = {
                        c for c, h in scoreboard.items()
                        if h.state == "suspect"
                        and h.strikes >= policy.quarantine_strikes
                    }
                    provenance = "escalated"
                if diagnosed:
                    retired |= diagnosed
                    for cell in diagnosed:
                        h = scoreboard.setdefault(
                            cell, CellHealth(cell=cell)
                        )
                        h.state = (
                            "retired" if provenance == "diagnosed"
                            else "quarantined"
                        )
                        h.retired_at = clock
                    if provenance == "escalated":
                        for cell in sorted(diagnosed, key=repr):
                            spec = FaultSpec(
                                kind=FaultKind.PERMANENT, cell=cell,
                                onset=clock, provenance="escalated",
                            )
                            escalations.append(spec)
                            runlog.record(
                                "quarantine", design=desc,
                                cell=repr(cell),
                                strikes=scoreboard[cell].strikes,
                                sid=repr(s.sid),
                            )
                    try:
                        (
                            queue, i, cur_m, cur_shape, cell_map, topo,
                        ) = _repartition(
                            dg, gg, geometry, plan.m, plan.shape, retired,
                            aligned, reschedule, store, slot_nodes, s.sid,
                            diagnosed,
                        )
                    except RecoveryExhausted:
                        if not policy.degrade:
                            raise
                        # No surviving cells: write the array off and
                        # complete the remainder on the host.
                        host_only = True
                        clock = _host_complete(
                            s, layout, clock, "no_survivors"
                        )
                        if incident_open is not None:
                            repair_cycles.append(clock - incident_open)
                            incident_open = None
                        i += 1
                        attempts_this_set = 0
                        implicated_history.clear()
                        continue
                    repartitions += 1
                    rep_end = clock + policy.repartition_cycles
                    timeline.append(
                        TimelineEvent(
                            "repartition", s.sid, clock, rep_end,
                            f"retired {sorted(map(repr, diagnosed))} "
                            f"({provenance}) -> m={cur_m}",
                        )
                    )
                    runlog.record(
                        "repartition", design=desc, sid=repr(s.sid),
                        retired=sorted(map(repr, diagnosed)),
                        new_m=cur_m, provenance=provenance,
                    )
                    runlog.record(
                        "checkpoint", action="restore", design=desc,
                        sid=repr(s.sid),
                        committed=len(store.committed_nodes),
                        words=store.words_written,
                    )
                    clock = rep_end
                    attempts_this_set = 0
                    implicated_history.clear()
                    continue
                if attempts_this_set > policy.max_retries:
                    if policy.degrade:
                        # Graceful degradation: this set completes on
                        # the host; the array keeps the remaining sets.
                        clock = _host_complete(
                            s, layout, clock, "retry_exhausted"
                        )
                        if incident_open is not None:
                            repair_cycles.append(clock - incident_open)
                            incident_open = None
                        i += 1
                        attempts_this_set = 0
                        implicated_history.clear()
                        continue
                    raise RecoveryExhausted(
                        s.sid, attempts_this_set, fd.event,
                        f"retry budget ({policy.max_retries}) exhausted; "
                        f"last detection: {fd}",
                    ) from fd
                continue

            # Committed: park the boundary words, advance the pile clock.
            parked = {
                (nid, p): (
                    res.outputs[("sig", nid)] if p == "out"
                    else res.outputs[("park", nid, p)]
                )
                for nid, p in parked_ports
            }
            store.commit(
                s.sid, layout.members, parked,
                {nid: fires[nid][1] for nid in layout.members},
            )
            runlog.record(
                "checkpoint", action="save", design=desc,
                sid=repr(s.sid), members=len(layout.members),
                words=len(parked),
            )
            timeline.append(
                TimelineEvent(
                    "gset", s.sid, set_start, attempt_end,
                    f"{len(layout.members)} node(s), "
                    f"{len(parked)} word(s) parked",
                )
            )
            clock = attempt_end
            if incident_open is not None:
                repair_cycles.append(clock - incident_open)
                incident_open = None
            i += 1
            attempts_this_set = 0
            implicated_history.clear()

        outputs: dict[NodeId, Any] = {}
        for out_nid in dg.outputs:
            ((src, port),) = dg.g.nodes[out_nid]["operands"].values()
            outputs[out_nid] = store.read(src, port)
        sp.tag("total_cycles", clock)
        sp.tag("retries", retries)
        sp.tag("repartitions", repartitions)

    injected = [f for f in faults if f.triggered]
    detected_count = sum(1 for f in injected if id(f) in detected_spec_ids)
    oracle_ok: "bool | None" = None
    if verify:
        oracle = evaluate(dg, inputs, semiring)
        oracle_ok = all(
            bool(outputs[nid] == oracle[nid]) for nid in dg.outputs
        )
    runlog.record(
        "fault_recover", metrics=record_metrics,
        design=desc, injected=len(injected),
        detected=detected_count, retries=retries,
        repartitions=repartitions, final_m=cur_m,
        total_cycles=clock, overhead_cycles=clock - healthy_cycles,
        quarantined=len(escalations), degraded_gsets=len(degraded_sids),
        degraded_nodes=degraded_nodes,
    )
    runlog.record(
        "oracle", design=desc, checked=bool(verify), ok=oracle_ok,
        outputs=len(dg.outputs),
    )

    result = RecoveryResult(
        description=desc,
        outputs=outputs,
        total_cycles=clock,
        healthy_cycles=healthy_cycles,
        stall_cycles=stalls,
        injected=injected,
        detections=detections,
        detected_fault_count=detected_count,
        retries=retries,
        repartitions=repartitions,
        retired_cells=frozenset(retired),
        final_m=cur_m,
        words_parked=store.words_written,
        fire_cycles=dict(store.fire_cycle),
        timeline=timeline,
        oracle_ok=oracle_ok,
        degraded_sids=degraded_sids,
        degraded_nodes=degraded_nodes,
        escalations=escalations,
        scoreboard=scoreboard,
        repair_cycles=repair_cycles,
    )
    if record_metrics:
        _record_metrics(result)
    return result


def _healthy_clock(gg: GGraph, order: Sequence[GSet]) -> int:
    """The fault-free pile clock: back-to-back set computation times.

    Matches both the resilient runtime's fault-free clock and (zero
    stalls, the paper's regime) the schedule evaluator's total time.
    """
    return sum(s.comp_time(gg) for s in order)


def _diagnose(
    history: Sequence[set[Hashable]], policy: RecoveryPolicy
) -> set[Hashable]:
    """Physical cells implicated by every one of the last N detections."""
    k = policy.permanent_threshold
    if len(history) < k:
        return set()
    suspect = set(history[-1])
    for cells in list(history)[-k:]:
        suspect &= cells
    return suspect


def _repartition(
    dg: DependenceGraph,
    gg: GGraph,
    geometry: str,
    m0: int,
    shape0: tuple[int, int],
    retired: set[Hashable],
    aligned: bool,
    reschedule: Callable[[GSetPlan], list[GSet]],
    store: CheckpointStore,
    slot_nodes: frozenset[NodeId],
    at_sid: tuple,
    newly_retired: set[Hashable],
) -> tuple:
    """Re-cut the G-graph for the surviving cells and lint the resume."""
    if geometry == "linear":
        surviving = [c for c in range(m0) if c not in retired]
        new_m = len(surviving)
        if new_m < 1:
            raise RecoveryExhausted(
                at_sid, 0, None, "no surviving cells after retirement"
            )
        new_plan = make_linear_gsets(gg, new_m, aligned=aligned)
        new_shape = (1, new_m)
        new_cell_map: dict[Hashable, Hashable] = {
            logical: phys for logical, phys in enumerate(surviving)
        }
        new_topo = linear_topology(new_m)
    else:
        dead_rows = {cell[0] for cell in retired}
        surviving_rows = [r for r in range(shape0[0]) if r not in dead_rows]
        rows, cols = len(surviving_rows), shape0[1]
        if rows < 1:
            raise RecoveryExhausted(
                at_sid, 0, None, "no surviving mesh rows after retirement"
            )
        new_plan = make_mesh_gsets(gg, rows * cols, shape=(rows, cols))
        new_m = rows * cols
        new_shape = (rows, cols)
        new_cell_map = {
            (lr, c): (surviving_rows[lr], c)
            for lr in range(rows)
            for c in range(cols)
        }
        new_topo = mesh_topology(rows, cols)

    new_order = reschedule(new_plan)
    # Lint the resume (RL401) before a single degraded cycle executes.
    committed = frozenset(store.committed_nodes)
    cell_of: dict[NodeId, Hashable] = {}
    for s in new_order:
        for gid, cell in zip(s.gids, s.cells):
            for nid in gg.gnodes[gid].members:
                if nid not in committed:
                    cell_of[nid] = cell
    rp = RecoveryPlan(
        description=(
            f"resume {geometry} m={new_m} after retiring "
            f"{sorted(map(repr, newly_retired))}"
        ),
        to_fire=frozenset(cell_of),
        committed=committed,
        slot_nodes=slot_nodes,
        cell_of=cell_of,
        cell_map=new_cell_map,
        retired=frozenset(retired),
    )
    _preflight_recovery(rp)
    return new_order, 0, new_m, new_shape, new_cell_map, new_topo


def _preflight_policy(policy: RecoveryPolicy) -> None:
    """RL402 gate: raise :class:`repro.lint.LintError` on an unsound policy."""
    from ..lint import LintError, LintTarget
    from ..lint.registry import run_lint

    report = run_lint(
        LintTarget(description="recovery policy", policy=policy),
        record_metrics=False,
    )
    if not report.ok:
        raise LintError(report)


def _preflight_recovery(rp: RecoveryPlan) -> None:
    """RL401 gate: raise :class:`repro.lint.LintError` on an unsound resume."""
    from ..lint import LintError, LintTarget
    from ..lint.registry import run_lint

    report = run_lint(
        LintTarget(description=rp.description, recovery=rp),
        record_metrics=False,
    )
    if not report.ok:
        raise LintError(report)


def _record_metrics(result: RecoveryResult) -> None:
    """The fault series no single event fixes: the recovered count
    (``fault_recover`` and ``oracle``) and the gauges.  The rest are
    ``runlog.EVENT_METRICS`` rows on ``fault_inject`` / ``fault_recover``.
    """
    reg = get_registry()
    labels = {"design": result.description}
    if result.recovered and (result.oracle_ok is not False):
        reg.counter(
            "repro_fault_recovered_total",
            "faults survived with oracle-correct output",
        ).inc(result.detected_fault_count, **labels)
    reg.gauge(
        "repro_fault_recovery_overhead_cycles",
        "cycles beyond the fault-free makespan",
    ).set(result.overhead_cycles, **labels)
    reg.gauge(
        "repro_fault_degraded_throughput",
        "measured throughput fraction of the healthy run (<= 1)",
    ).set(result.degraded_throughput, **labels)
    reg.gauge(
        "repro_fault_words_parked",
        "checkpoint words written to the cut-and-pile memories",
    ).set(result.words_parked, **labels)
    reg.gauge(
        "repro_fault_availability",
        "fraction of cell-cycles the array's cells were in service",
    ).set(result.availability, **labels)
    if result.mttr_cycles is not None:
        reg.gauge(
            "repro_fault_mttr_cycles",
            "mean cycles from first detection to commit/degrade per G-set",
        ).set(result.mttr_cycles, **labels)


def run_resilient_closure(
    impl: PartitionedImplementation,
    a: np.ndarray,
    faults: Sequence[FaultSpec] = (),
    policy: RecoveryPolicy = RecoveryPolicy(),
    aligned: bool = True,
    record_metrics: bool = True,
    description: "str | None" = None,
    backend: "str | None" = None,
) -> RecoveryResult:
    """Resilient execution of a partitioned transitive closure.

    Convenience wrapper binding :func:`run_resilient` to the
    transitive-closure I/O naming (``("in", i, j)`` / ``("out", i, j)``)
    of a :class:`~repro.core.partitioner.PartitionedImplementation`.
    """
    return run_resilient(
        impl.dg,
        impl.gg,
        impl.plan,
        impl.order,
        tc.make_inputs(a, impl.semiring),
        semiring=impl.semiring,
        faults=faults,
        policy=policy,
        aligned=aligned,
        record_metrics=record_metrics,
        description=description,
        backend=backend,
    )
