"""Compile an execution plan into a replayable vectorized program.

The reference interpreter in :mod:`repro.arrays.cycle_sim` walks the
dependence graph node by node on every run, re-deriving the same timing
checks, memory traffic and host deadlines each time.  For a fixed
``(plan, graph, semiring)`` triple all of that is *static*: only the
input values change between runs.  This module does the walk **once**,
recording

* every measure the reference simulator would report (busy/useful
  counts, memory words and reads, input deadlines and delivery cells,
  the violation list in reference discovery order), and
* a dense NumPy *value program*: one slot per produced value, constants
  and inputs scattered into the slot array, and the OP nodes grouped by
  dependence depth and opcode into batched semiring steps executed with
  fancy indexing.

A :class:`CompiledPlan` then replays the plan against fresh inputs in a
handful of vectorized steps while reproducing the reference
:class:`~repro.arrays.cycle_sim.SimResult` bit for bit — including the
order in which missing-input and strict-mode violation errors surface.

Compiled plans are cached process-wide, keyed by a stable fingerprint of
the graph structure, the plan's fires/regions/topology and the semiring
(see :func:`plan_fingerprint`), so ``repro bench``, ``repro faults`` and
``verify_implementation`` all share one compile per configuration.

Grid binding: when the plan's input ids are exactly the ``("in", i, j)``
grid, the compile records an ``i*n + j -> slot`` permutation
(:attr:`CompiledPlan.input_grid`), and a replay given an attached
:class:`~repro.algorithms.transitive_closure.InputGrid` of that size and
dtype (what ``make_inputs`` returns) scatters its matrix in one step and
skips the per-id missing-input scan.  Any other mapping — a plain dict,
a mutated (detached) grid, another size or dtype — takes the mapping
path: one lookup per input id, with the reference's missing-input
error.  Likewise an ``("out", i, j)`` output grid is gathered into one
array (:attr:`CompiledPlan.output_grid`) and ``SimResult.outputs`` is an
:class:`~repro.algorithms.transitive_closure.OutputGrid`, a mapping that
builds its dict only when read; ``output_matrix`` copies the array.

Scalar caveat: the reference interpreter computes on whatever scalar
objects the mapping yields (an ``InputGrid`` yields native Python
scalars), while the replay computes on ``semiring.dtype`` arrays.
Values are equal under ``==`` and :meth:`SimResult.output_matrix` is
bit-identical; only the Python object types of ``outputs`` values
differ (numpy scalars on the replay).
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Hashable, Mapping, Sequence

import numpy as np

from ..algorithms.transitive_closure import InputGrid, OutputGrid
from ..core.bitmatrix import bit_column, pack_rows, unpack_rows
from ..core.evaluate import OPCODE_SEMANTICS
from ..core.graph import DependenceGraph, GraphError, NodeId, NodeKind
from ..core.semiring import Semiring
from ..obs import runlog
from ..obs.metrics import Counter, get_registry
from ..obs.tracing import stage_span
from .cycle_sim import SimResult, SimulationError, Violation
from .plan import ExecutionPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.profile import KernelProfiler

__all__ = [
    "VECTOR_OPCODES",
    "BitpackProgram",
    "CompiledPlan",
    "UnvectorizableGraphError",
    "compile_plan",
    "plan_fingerprint",
    "get_compiled",
    "clear_compiled_cache",
    "compiled_cache_info",
]

#: Opcodes with numpy-broadcastable semantics.  ``rotg`` returns a tuple
#: and ``rota``/``rotb`` index into it, so Givens graphs stay on the
#: reference interpreter.
VECTOR_OPCODES: frozenset[str] = frozenset(
    {"mac", "add", "sub", "mul", "div", "msub", "neg", "recip"}
)

#: Non-``mac`` opcodes assume field arithmetic; replaying them on an
#: integer/bool dtype would diverge from Python-scalar semantics
#: (e.g. true division), so such graphs also fall back.
_FIELD_DTYPE_KINDS = "fc"


class UnvectorizableGraphError(GraphError):
    """The graph uses semantics the batched replay cannot reproduce."""


@dataclass(frozen=True)
class VectorStep:
    """One batched evaluation: all same-depth nodes of one opcode."""

    opcode: str
    out_idx: np.ndarray
    role_names: tuple[str, ...]
    role_idx: tuple[np.ndarray, ...]
    #: dependence depth of the batch (1 = reads only inputs/constants);
    #: the kernel profiler keys its timings by ``(depth, opcode)``.
    depth: int = 0

    @property
    def width(self) -> int:
        """Number of node firings this step evaluates at once."""
        return int(self.out_idx.size)


@dataclass(frozen=True)
class BitpackProgram:
    """Closure-shaped boolean replay: 64 matrix columns per ``uint64`` word.

    When :func:`_detect_bitpack` proves that a compiled boolean value
    program computes exactly Warshall's per-level recurrence on an
    ``n x n`` input grid, the replay can skip the batched slot steps
    entirely and run the packed kernel of
    :mod:`repro.core.bitmatrix` instead — the SSC2 bitarray trick,
    NumPy-native.  The input and output grids are the plan's
    :attr:`CompiledPlan.input_grid` / :attr:`CompiledPlan.output_grid`.
    """

    n: int


def _grid_slots(
    ids: tuple[NodeId, ...], slots: Sequence[int], head: str
) -> np.ndarray | None:
    """``i*n + j -> slot`` when ``ids`` are exactly the ``(head, i, j)`` grid.

    ``None`` for any other id set (wrong count, another head, an index
    out of range or not an ``int``).  Node ids are unique, so ``n*n``
    in-range ids cover the grid.
    """
    n = math.isqrt(len(ids))
    if n < 1 or n * n != len(ids):
        return None
    flat_slots = np.empty(n * n, dtype=np.int64)
    for nid, slot in zip(ids, slots):
        if not (isinstance(nid, tuple) and len(nid) == 3 and nid[0] == head):
            return None
        i, j = nid[1], nid[2]
        if not (
            isinstance(i, int)
            and isinstance(j, int)
            and 0 <= i < n
            and 0 <= j < n
        ):
            return None
        flat_slots[i * n + j] = slot
    return flat_slots


def _detect_bitpack(
    input_grid: np.ndarray,
    output_grid: np.ndarray,
    op_records: list[tuple[int, int, int, int]],
) -> BitpackProgram | None:
    """Prove (or refuse) that the value program is boolean Warshall.

    ``input_grid``/``output_grid`` map flat ``i*n + j`` positions to the
    slots of the plan's ``("in", i, j)`` / ``("out", i, j)`` nodes.  The
    proof is structural, not name-based: op operand slots are first
    collapsed into *value-equivalence classes* — a ``mac`` whose ``b``
    or ``c`` class equals its ``a`` class is absorbed over the boolean
    semiring (``a | (a & c) == a``), so its output joins ``a``'s class
    (this is how the regularized graph's transmit cells and forwarded
    pivot copies unify).  A level walk then checks that every op is
    consumed by exactly the update ``x[i,j] |= x[i,k] & x[k,j]`` of some
    pivot ``k`` (missing pivot-row/column updates are fine — they are
    absorbed — missing diagonal updates are not), and that every output
    reads the final class of its position.  Any mismatch returns
    ``None`` and the replay stays on the generic batched path.
    """
    n_inputs = input_grid.size
    n = math.isqrt(n_inputs)
    if output_grid.size != n_inputs or len(op_records) != n**3:
        return None
    grid = input_grid.tolist()

    # Pass 1 (ops arrive in topological out-slot order): assign value
    # classes and index each op by its canonical operand triple.
    canon: dict[int, int] = {}
    ops_by_key: dict[tuple[int, int, int], int] = {}
    for out, a, b, c in op_records:
        ra = canon.get(a, a)
        rb = canon.get(b, b)
        rc = canon.get(c, c)
        canon[out] = ra if (rb == ra or rc == ra) else out
        key = (ra, rb, rc)
        if key in ops_by_key:
            return None
        ops_by_key[key] = out
    # Pass 2: the level walk.
    cur = [canon.get(grid[f], grid[f]) for f in range(n_inputs)]
    for k in range(n):
        nxt = list(cur)
        for i in range(n):
            base = i * n
            a_row = cur[base + k]
            for j in range(n):
                out2 = ops_by_key.pop(
                    (cur[base + j], a_row, cur[k * n + j]), None
                )
                if out2 is None:
                    if i != k and j != k:
                        return None
                else:
                    nxt[base + j] = canon.get(out2, out2)
        cur = nxt
    if ops_by_key:
        return None
    for flat, slot in enumerate(output_grid.tolist()):
        if canon.get(slot, slot) != cur[flat]:
            return None
    return BitpackProgram(n=n)


@dataclass
class CompiledPlan:
    """A replayable program plus every static measure of the plan."""

    fingerprint: str
    graph_name: str
    semiring: Semiring
    dtype: np.dtype
    # -- static measures (identical to the reference walk) --
    makespan: int
    cells: int
    busy: int
    useful: int
    memory_words: int
    memory_reads: int
    input_deadlines: dict[NodeId, int]
    input_cells: frozenset[Hashable]
    input_cell_of: dict[NodeId, Hashable]
    violations: tuple[Violation, ...]
    #: topological position of the consumer of each violation, aligned
    #: with ``violations`` — used to order strict-mode errors against
    #: missing-input errors exactly as the reference walk would.
    violation_pos: tuple[int, ...]
    # -- value program --
    n_slots: int
    input_ids: tuple[NodeId, ...]
    input_pos: tuple[int, ...]
    input_slots: np.ndarray
    const_slots: np.ndarray
    const_values: np.ndarray
    steps: tuple[VectorStep, ...]
    output_ids: tuple[NodeId, ...]
    output_slots: tuple[int, ...]
    compile_seconds: float = 0.0
    #: non-None when the program is provably boolean Warshall; replay
    #: then runs the bit-packed kernel instead of the batched steps.
    bitpack: BitpackProgram | None = None
    #: ``i*n + j -> slot`` of input ``("in", i, j)`` when the input ids
    #: are exactly that grid: an attached :class:`InputGrid` binds with
    #: one scatter through it.
    input_grid: np.ndarray | None = None
    #: ``i*n + j -> slot`` of output ``("out", i, j)`` when the output
    #: ids are exactly that grid: the replay gathers its outputs into one
    #: array through it.
    output_grid: np.ndarray | None = None

    def _bound_matrix(self, inputs: Mapping[NodeId, Any]) -> np.ndarray | None:
        """The matrix of an attached, plan-sized :class:`InputGrid`.

        ``None`` sends the replay down the mapping path (any other
        mapping, a detached or wrong-sized grid, another dtype).
        """
        if not isinstance(inputs, InputGrid) or self.input_grid is None:
            return None
        m = inputs.matrix
        if m is None or m.size != self.input_grid.size or m.dtype != self.dtype:
            return None
        return m

    def _raise_entry_errors(
        self, inputs: Mapping[NodeId, Any], strict: bool, complete: bool
    ) -> None:
        """Reproduce the reference error order for a doomed replay.

        The interpreter raises a missing-input :class:`GraphError` when
        the walk *reaches* that input node, and (under ``strict``) a
        :class:`SimulationError` when it reaches the first violating
        consumer — whichever position comes first wins.  A ``complete``
        input grid supplies every input, so only the violation remains.
        """
        missing: tuple[int, NodeId] | None = None
        if not complete:
            for nid, pos in zip(self.input_ids, self.input_pos):
                if nid not in inputs:
                    missing = (pos, nid)
                    break
        if strict and self.violations:
            vpos = self.violation_pos[0]
            if missing is not None and missing[0] < vpos:
                raise GraphError(
                    f"no value supplied for input {missing[1]!r}"
                )
            raise SimulationError(self.violations[0])
        if missing is not None:
            raise GraphError(f"no value supplied for input {missing[1]!r}")

    def replay(
        self,
        inputs: Mapping[NodeId, Any],
        strict: bool = False,
        kprof: "KernelProfiler | None" = None,
    ) -> SimResult:
        """Run the compiled program against fresh input values.

        An attached :class:`InputGrid` of the plan's size is bound from
        its matrix in one scatter; any other mapping is read key by key.
        ``kprof`` (a :class:`~repro.obs.profile.KernelProfiler`) times
        each batch step; when ``None`` (the default) the hot loop is
        exactly the unprofiled one — zero overhead when off.
        """
        matrix = self._bound_matrix(inputs)
        self._raise_entry_errors(inputs, strict, complete=matrix is not None)
        if self.bitpack is not None:
            return self._replay_bitpack(inputs, matrix, kprof)
        vals = np.empty(self.n_slots, dtype=self.dtype)
        if self.const_slots.size:
            vals[self.const_slots] = self.const_values
        if matrix is not None:
            vals[self.input_grid] = matrix.reshape(-1)
        elif self.input_slots.size:
            vals[self.input_slots] = np.asarray(
                [inputs[nid] for nid in self.input_ids], dtype=self.dtype
            )
        sr = self.semiring
        if kprof is None:
            for step in self.steps:
                fn = OPCODE_SEMANTICS[step.opcode]
                roles = {
                    r: vals[ix]
                    for r, ix in zip(step.role_names, step.role_idx)
                }
                vals[step.out_idx] = fn(sr, **roles)
        else:
            for step in self.steps:
                fn = OPCODE_SEMANTICS[step.opcode]
                roles = {
                    r: vals[ix]
                    for r, ix in zip(step.role_names, step.role_idx)
                }
                t0 = time.perf_counter()
                vals[step.out_idx] = fn(sr, **roles)
                kprof.record(
                    step.opcode,
                    step.width,
                    time.perf_counter() - t0,
                    depth=step.depth,
                    backend="vector",
                )
        if self.output_grid is not None:
            n = math.isqrt(self.output_grid.size)
            grid = vals[self.output_grid].reshape(n, n)
            return self._result(OutputGrid(grid, self.output_ids))
        outputs: dict[NodeId, Any] = {
            nid: vals[slot]
            for nid, slot in zip(self.output_ids, self.output_slots)
        }
        return self._result(outputs)

    def _replay_bitpack(
        self,
        inputs: Mapping[NodeId, Any],
        matrix: np.ndarray | None,
        kprof: "KernelProfiler | None" = None,
    ) -> SimResult:
        """Replay via the packed Warshall kernel (64 columns per op).

        Bit-identical to the batched replay: the detector proved the
        value program *is* the per-level recurrence, and the packed
        kernel freezes pivot row/column per level exactly like the
        slot-program batches do.  The raw recurrence is used (no
        diagonal forcing) — whatever diagonal the caller supplied flows
        through, as it would through the graph.
        """
        bp = self.bitpack
        assert bp is not None
        n = bp.n
        if matrix is None:
            matrix = np.asarray(
                [inputs[("in", i, j)] for i in range(n) for j in range(n)],
                dtype=np.bool_,
            ).reshape(n, n)
        words = pack_rows(matrix)
        if kprof is None:
            for k in range(n):
                mask = bit_column(words, k)
                row = words[k].copy()
                words[mask] |= row
        else:
            for k in range(n):
                t0 = time.perf_counter()
                mask = bit_column(words, k)
                row = words[k].copy()
                words[mask] |= row
                # One packed pivot sweep per level; still the vector
                # backend for attribution purposes (hotspot tables and
                # the profiler's backend contract key on "vector").
                kprof.record(
                    "mac",
                    n * n,
                    time.perf_counter() - t0,
                    depth=k + 1,
                    backend="vector",
                )
        grid = unpack_rows(words, n)
        return self._result(OutputGrid(grid, self.output_ids))

    def _result(self, outputs: Mapping[NodeId, Any]) -> SimResult:
        return SimResult(
            outputs=outputs,
            makespan=self.makespan,
            cells=self.cells,
            busy=self.busy,
            useful=self.useful,
            memory_words=self.memory_words,
            memory_reads=self.memory_reads,
            input_deadlines=dict(self.input_deadlines),
            input_cells=set(self.input_cells),
            input_cell_of=dict(self.input_cell_of),
            violations=list(self.violations),
        )


class _StepGroup:
    """Mutable accumulator for one ``(depth, opcode)`` batch."""

    __slots__ = ("opcode", "out", "roles", "role_order")

    def __init__(self, opcode: str, role_order: tuple[str, ...]) -> None:
        self.opcode = opcode
        self.role_order = role_order
        self.out: list[int] = []
        self.roles: dict[str, list[int]] = {r: [] for r in role_order}


def compile_plan(
    plan: ExecutionPlan, dg: DependenceGraph, semiring: Semiring
) -> CompiledPlan:
    """One reference-equivalent walk, producing a replayable program.

    Raises :class:`UnvectorizableGraphError` when the graph uses opcodes
    (or opcode/dtype combinations) the batched replay cannot reproduce;
    callers fall back to the reference interpreter.  Raises the same
    ``plan does not cover slot node`` :class:`GraphError` the reference
    would for an incomplete plan.
    """
    t0 = time.perf_counter()
    fires = plan.fires
    topo = dg.topological_order()
    node_data = dg.g.nodes
    region_of = plan.region_of
    topology = plan.topology
    dtype = np.dtype(semiring.dtype)

    slot_of: dict[NodeId, int] = {}
    slot_depth: list[int] = []
    alias: dict[tuple[NodeId, str], int] = {}

    def resolve(ref: tuple[NodeId, str]) -> int:
        """Slot producing the value behind ``ref``, following forwards."""
        pending: list[tuple[NodeId, str]] = []
        cur = ref
        while True:
            hit = alias.get(cur)
            if hit is not None:
                break
            src, port = cur
            kind = node_data[src]["kind"]
            if kind is NodeKind.OP and port != "out":
                # A forwarded operand: the cell re-emits what it read.
                pending.append(cur)
                cur = node_data[src]["operands"][port]
            elif kind in (NodeKind.PASS, NodeKind.DELAY, NodeKind.OUTPUT):
                pending.append(cur)
                (cur,) = node_data[src]["operands"].values()
            else:
                hit = slot_of[src]
                break
        for p in pending:
            alias[p] = hit
        alias[ref] = hit
        return hit

    n_slots = 0
    input_ids: list[NodeId] = []
    input_pos: list[int] = []
    input_slot_list: list[int] = []
    const_slot_list: list[int] = []
    const_vals: list[Any] = []
    busy = 0
    useful = 0
    memory_refs: set[tuple[NodeId, str]] = set()
    memory_reads = 0
    input_deadlines: dict[NodeId, int] = {}
    input_cells: set[Hashable] = set()
    input_cell_of: dict[NodeId, Hashable] = {}
    violations: list[Violation] = []
    violation_pos: list[int] = []
    groups: dict[tuple[int, str], _StepGroup] = {}
    uses_field_ops = False
    #: (out, a, b, c) resolved slots of every ``mac``, in topo order —
    #: the raw material for the bit-packed closure detection.
    op_records: list[tuple[int, int, int, int]] = []
    mac_abc_only = True

    for pos, nid in enumerate(topo):
        d = node_data[nid]
        kind = d["kind"]
        if kind is NodeKind.INPUT:
            slot_of[nid] = n_slots
            input_ids.append(nid)
            input_pos.append(pos)
            input_slot_list.append(n_slots)
            slot_depth.append(0)
            n_slots += 1
            continue
        if kind is NodeKind.CONST:
            slot_of[nid] = n_slots
            const_slot_list.append(n_slots)
            const_vals.append(d["value"])
            slot_depth.append(0)
            n_slots += 1
            continue
        operands: dict[str, tuple[NodeId, str]] = d["operands"]
        if kind is NodeKind.OUTPUT:
            continue
        if nid not in fires:
            raise GraphError(f"plan does not cover slot node {nid!r}")
        cell, t = fires[nid]
        busy += 1
        if d.get("tag") == "compute":
            useful += 1
        for role, ref in operands.items():
            src = ref[0]
            src_kind = node_data[src]["kind"]
            if src_kind is NodeKind.CONST:
                continue
            if src_kind is NodeKind.INPUT:
                deadline = t - 1
                prev = input_deadlines.get(src)
                if prev is None or deadline < prev:
                    input_deadlines[src] = deadline
                    input_cell_of[src] = cell
                input_cells.add(cell)
                continue
            pcell, pt = fires[src]
            same_region = (
                not region_of or region_of.get(src) == region_of.get(nid)
            )
            local = cell == pcell or topology.is_neighbor(pcell, cell)
            if same_region and local:
                slack = t - (pt + 1)
                vkind = "timing"
            else:
                memory_refs.add(ref)
                memory_reads += 1
                slack = t - (pt + 2)
                vkind = "memory-timing"
            if slack < 0:
                violations.append(
                    Violation(
                        node=nid, role=role, producer=src,
                        kind=vkind, slack=slack,
                    )
                )
                violation_pos.append(pos)
        if kind is NodeKind.OP:
            opcode = d["opcode"]
            if opcode not in VECTOR_OPCODES:
                raise UnvectorizableGraphError(
                    f"opcode {opcode!r} has no batched semantics"
                )
            if opcode != "mac":
                uses_field_ops = True
            op_slots = {role: resolve(ref) for role, ref in operands.items()}
            if opcode == "mac" and op_slots.keys() == {"a", "b", "c"}:
                op_records.append(
                    (n_slots, op_slots["a"], op_slots["b"], op_slots["c"])
                )
            else:
                mac_abc_only = False
            depth = 1 + max(slot_depth[s] for s in op_slots.values())
            key = (depth, opcode)
            group = groups.get(key)
            if group is None:
                group = _StepGroup(opcode, tuple(op_slots))
                groups[key] = group
            group.out.append(n_slots)
            for role, slot in op_slots.items():
                group.roles[role].append(slot)
            slot_of[nid] = n_slots
            slot_depth.append(depth)
            n_slots += 1
        # PASS / DELAY produce aliases; consumers resolve through them.

    if uses_field_ops and dtype.kind not in _FIELD_DTYPE_KINDS:
        raise UnvectorizableGraphError(
            f"field opcodes on non-field dtype {dtype!r}"
        )

    steps = tuple(
        VectorStep(
            opcode=g.opcode,
            out_idx=np.asarray(g.out, dtype=np.int64),
            role_names=g.role_order,
            role_idx=tuple(
                np.asarray(g.roles[r], dtype=np.int64) for r in g.role_order
            ),
            depth=key[0],
        )
        for key, g in sorted(groups.items(), key=lambda kv: kv[0][0])
    )
    output_ids = tuple(dg.outputs)
    output_slots = tuple(resolve((nid, "out")) for nid in output_ids)
    input_grid = _grid_slots(tuple(input_ids), input_slot_list, "in")
    output_grid = _grid_slots(output_ids, output_slots, "out")
    bitpack: BitpackProgram | None = None
    if (
        semiring.name == "boolean"
        and dtype == np.bool_
        and not uses_field_ops
        and mac_abc_only
        and op_records
    ):
        if input_grid is not None and output_grid is not None:
            bitpack = _detect_bitpack(input_grid, output_grid, op_records)
        if bitpack is not None:
            get_registry().counter(
                "repro_vector_bitpack_plans_total",
                "Compiled plans proven closure-shaped (bit-packed replay)",
            ).inc()
        else:
            # Boolean all-mac graph that is *not* provably Warshall:
            # the fast path falls back to the batched replay and leaves
            # the audited breadcrumb (RL505 checks the reason set).
            runlog.record("fallback", backend="vector", reason="bitpack")
    return CompiledPlan(
        fingerprint="",
        graph_name=dg.name,
        semiring=semiring,
        dtype=dtype,
        makespan=plan.makespan,
        cells=topology.m,
        busy=busy,
        useful=useful,
        memory_words=len(memory_refs),
        memory_reads=memory_reads,
        input_deadlines=input_deadlines,
        input_cells=frozenset(input_cells),
        input_cell_of=input_cell_of,
        violations=tuple(violations),
        violation_pos=tuple(violation_pos),
        n_slots=n_slots,
        input_ids=tuple(input_ids),
        input_pos=tuple(input_pos),
        input_slots=np.asarray(input_slot_list, dtype=np.int64),
        const_slots=np.asarray(const_slot_list, dtype=np.int64),
        const_values=np.asarray(const_vals, dtype=dtype)
        if const_vals
        else np.zeros(0, dtype=dtype),
        steps=steps,
        output_ids=output_ids,
        output_slots=output_slots,
        compile_seconds=time.perf_counter() - t0,
        bitpack=bitpack,
        input_grid=input_grid,
        output_grid=output_grid,
    )


# --------------------------------------------------------------------------
# Fingerprinting and the process-wide compiled-plan cache
# --------------------------------------------------------------------------


def _graph_digest(dg: DependenceGraph) -> str:
    """Stable digest of the graph structure, memoized on the graph.

    The cache assumes graphs are not mutated after their first vector
    simulation (true of every pipeline in this repo — graphs are built
    once by the frontend and then only read).
    """
    cached = getattr(dg, "_vector_digest", None)
    if cached is not None:
        return str(cached)
    h = hashlib.sha256()
    node_data = dg.g.nodes
    for nid in dg.topological_order():
        d = node_data[nid]
        h.update(
            repr(
                (
                    nid,
                    d["kind"].name,
                    d.get("opcode"),
                    d.get("value"),
                    d.get("tag"),
                    tuple(d.get("operands", {}).items()),
                )
            ).encode()
        )
    h.update(repr((tuple(dg.inputs), tuple(dg.outputs))).encode())
    digest = h.hexdigest()
    dg._vector_digest = digest  # type: ignore[attr-defined]
    return digest


def _plan_digest(plan: ExecutionPlan) -> str:
    """Stable digest of the plan, memoized on the plan object."""
    cached = getattr(plan, "_vector_digest", None)
    if cached is not None:
        return str(cached)
    topo = plan.topology
    h = hashlib.sha256()
    h.update(
        repr(
            (
                topo.name,
                topo.geometry,
                topo.cells,
                sorted(topo.links) if topo.links is not None else None,
                topo.memory_ports,
                plan.stall_cycles,
            )
        ).encode()
    )
    for item in sorted(plan.fires.items(), key=repr):
        h.update(repr(item).encode())
    for ritem in sorted(plan.region_of.items(), key=repr):
        h.update(repr(ritem).encode())
    digest = h.hexdigest()
    plan._vector_digest = digest  # type: ignore[attr-defined]
    return digest


def plan_fingerprint(
    plan: ExecutionPlan, dg: DependenceGraph, semiring: Semiring
) -> str:
    """The compiled-plan cache key: graph + plan + algebra.

    Semirings are identified by name and dtype (the shipped registry
    guarantees uniqueness); custom semirings must use distinct names.
    """
    payload = ":".join(
        (
            _graph_digest(dg),
            _plan_digest(plan),
            semiring.name,
            np.dtype(semiring.dtype).str,
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


_CACHE: dict[str, CompiledPlan] = {}
_CACHE_MAX = 64


def get_compiled(
    plan: ExecutionPlan, dg: DependenceGraph, semiring: Semiring
) -> CompiledPlan:
    """Fetch (or compile and cache) the program for this configuration;
    each lookup records one ``plan_cache`` event, ``hit`` or ``compile``."""
    fp = plan_fingerprint(plan, dg, semiring)
    hit = _CACHE.get(fp)
    if hit is not None:
        runlog.record(
            "plan_cache", outcome="hit", plan_fingerprint=fp,
            graph=dg.name,
        )
        return hit
    with stage_span("sim.compile", graph=dg.name):
        compiled = compile_plan(plan, dg, semiring)
    compiled.fingerprint = fp
    if len(_CACHE) >= _CACHE_MAX:
        _CACHE.pop(next(iter(_CACHE)))
    _CACHE[fp] = compiled
    runlog.record(
        "plan_cache", outcome="compile", plan_fingerprint=fp,
        graph=dg.name, compile_s=round(compiled.compile_seconds, 6),
    )
    if os.environ.get("REPRO_LINT_PLANNER", "") not in ("", "0"):
        # Env-gated post-compile preflight: statically verify the value
        # program (RL5xx) and its cost record (RL6xx) before anything
        # replays it.  Raises repro.lint.LintError on error findings.
        from ..lint.planner import planner_preflight

        planner_preflight(compiled, plan, dg, semiring)
    return compiled


def clear_compiled_cache() -> None:
    """Drop every cached program (tests; or after mutating a plan)."""
    _CACHE.clear()


def compiled_cache_info() -> dict[str, int]:
    """Hits and misses (the plan-cache counters over all experiments,
    which :func:`clear_compiled_cache` does not reset) and the size."""
    info = {"hits": 0, "misses": 0, "size": len(_CACHE)}
    for key, name in (
        ("hits", "repro_plan_cache_hits_total"),
        ("misses", "repro_plan_cache_misses_total"),
    ):
        metric = get_registry().get(name)
        if isinstance(metric, Counter):
            info[key] = int(sum(s["value"] for s in metric.to_json()["series"]))
    return info
