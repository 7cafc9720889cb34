"""RL5xx — plan-verification passes over the compiled value program.

The vector backend (:mod:`repro.arrays.vector_compile`) compiles an
execution plan into a dense NumPy value program: slots for every
produced value and OP firings batched by ``(depth, opcode)``.  These
passes abstractly interpret that program against the schedule/graph IR
without replaying a single value:

* ``plan.coverage`` (RL501) — every scheduled OP firing lands in
  exactly one depth-batch, every slot has exactly one producer, and the
  program's inputs/outputs are the graph's.
* ``plan.causality`` (RL502) — replaying the batches in order never
  reads a slot that has not been produced yet (depth-batch causality).
* ``plan.typing`` (RL503) — every batch opcode has batched semantics,
  carries the roles its semantics function expects, is legal on the
  semiring dtype, and the opcode census matches the graph.
* ``plan.bounds`` (RL504) — every scatter/gather index is integral and
  in ``[0, n_slots)``; index arrays are mutually consistent.
* ``plan.fallbacks`` (RL505) — every ``repro_vector_fallback_total``
  reason recorded this process is a documented one.

Together with the RL6xx cost passes this is the static half of the
backend-equivalence guarantee: the dynamic half (CI's ``backend`` job)
replays values, this half proves the program *shape* faithful.
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, Iterable

import numpy as np

from ..arrays.vector_compile import VECTOR_OPCODES, _FIELD_DTYPE_KINDS
from ..arrays.vector_sim import ALLOWED_FALLBACK_REASONS
from ..core.evaluate import OPCODE_SEMANTICS
from ..core.graph import NodeKind
from ..obs import runlog
from .diagnostics import Diagnostic, Severity
from .passes_graph import _capped
from .registry import LintTarget, lint_pass

__all__: list[str] = []

#: The fix every structural RL5xx finding suggests: the program is
#: derived state, so the remedy is always to re-derive it.
_RECOMPILE = (
    "recompile with compile_plan(plan, dg, semiring); do not edit the "
    "compiled program"
)

#: Operand roles each batched opcode's semantics function expects
#: (mirrors the lambdas in :data:`repro.core.evaluate.OPCODE_SEMANTICS`).
OPCODE_ROLES: dict[str, frozenset[str]] = {
    "mac": frozenset({"a", "b", "c"}),
    "add": frozenset({"a", "b"}),
    "sub": frozenset({"a", "b"}),
    "mul": frozenset({"a", "b"}),
    "div": frozenset({"a", "b"}),
    "msub": frozenset({"a", "b", "c"}),
    "neg": frozenset({"a"}),
    "recip": frozenset({"a"}),
}


def _op_nodes(target: LintTarget) -> list[Hashable]:
    """The graph's OP node ids (the firings the program must batch)."""
    assert target.dg is not None
    node_data = target.dg.g.nodes
    return [
        nid
        for nid in target.dg.g.nodes
        if node_data[nid]["kind"] is NodeKind.OP
    ]


@lint_pass(
    "plan.coverage", codes=("RL501",), requires=("dg", "exec_plan", "compiled")
)
def check_slot_coverage(target: LintTarget) -> Iterable[Diagnostic]:
    """RL501: slot coverage of the compiled value program.

    The slot array must partition exactly into input slots, constant
    slots and one batch output per OP node; a dropped or doubled slot
    means a firing the schedule ordered would never (or twice) be
    evaluated.
    """
    dg, cp = target.dg, target.compiled
    assert dg is not None and cp is not None
    diags: list[Diagnostic] = []

    def err(message: str, nodes: tuple[Hashable, ...] = ()) -> None:
        diags.append(
            Diagnostic(
                code="RL501",
                severity=Severity.ERROR,
                message=message,
                suggestion=_RECOMPILE,
                nodes=nodes,
            )
        )

    op_count = len(_op_nodes(target))
    step_out = [int(i) for step in cp.steps for i in step.out_idx]
    if len(step_out) != op_count:
        err(
            f"{op_count} scheduled OP firing(s) but the program batches "
            f"{len(step_out)} output(s)"
        )
    dup = [slot for slot, c in Counter(step_out).items() if c > 1]
    if dup:
        err(
            f"{len(dup)} slot(s) produced by more than one batch entry "
            f"(first: {sorted(dup)[:4]})"
        )
    produced = (
        set(step_out)
        | {int(i) for i in cp.input_slots}
        | {int(i) for i in cp.const_slots}
    )
    expected = set(range(cp.n_slots))
    missing = expected - produced
    if missing:
        err(
            f"{len(missing)} slot(s) have no producer "
            f"(first: {sorted(missing)[:4]})"
        )
    extra = produced - expected
    if extra:
        err(
            f"{len(extra)} producer slot(s) outside [0, {cp.n_slots}) "
            f"(first: {sorted(extra)[:4]})"
        )
    if set(cp.input_ids) != set(dg.inputs):
        err(
            "program input ids disagree with the graph's INPUT nodes",
            nodes=tuple(
                sorted(
                    set(cp.input_ids) ^ set(dg.inputs), key=repr
                )[:4]
            ),
        )
    if tuple(cp.output_ids) != tuple(dg.outputs):
        err("program output ids disagree with the graph's OUTPUT nodes")
    return _capped(diags, "RL501", len(diags))


@lint_pass(
    "plan.causality",
    codes=("RL502",),
    requires=("dg", "exec_plan", "compiled"),
)
def check_batch_causality(target: LintTarget) -> Iterable[Diagnostic]:
    """RL502: no batch reads a slot produced in the same or a later batch.

    An abstract replay: inputs and constants are defined up front, then
    each batch must gather only defined slots before its outputs become
    defined.  Also checks that batch depths are non-decreasing in
    replay order (the compile sorts by depth).
    """
    cp = target.compiled
    assert cp is not None
    diags: list[Diagnostic] = []
    defined = np.zeros(max(cp.n_slots, 1), dtype=bool)
    for arr in (cp.input_slots, cp.const_slots):
        ok = arr[(arr >= 0) & (arr < cp.n_slots)]
        defined[ok] = True
    prev_depth = 0
    for pos, step in enumerate(cp.steps):
        if step.depth < prev_depth:
            diags.append(
                Diagnostic(
                    code="RL502",
                    severity=Severity.ERROR,
                    message=(
                        f"batch {pos} ({step.opcode}, depth {step.depth}) "
                        f"replays after depth {prev_depth}; batches must "
                        "be depth-sorted"
                    ),
                    suggestion=_RECOMPILE,
                )
            )
        prev_depth = max(prev_depth, step.depth)
        for role, idx in zip(step.role_names, step.role_idx):
            sound = idx[(idx >= 0) & (idx < cp.n_slots)]
            undef = sound[~defined[sound]]
            if undef.size:
                diags.append(
                    Diagnostic(
                        code="RL502",
                        severity=Severity.ERROR,
                        message=(
                            f"batch {pos} ({step.opcode}, depth "
                            f"{step.depth}) reads {undef.size} slot(s) "
                            f"for role {role!r} that no earlier batch, "
                            "input or constant produced (first: "
                            f"{sorted(int(i) for i in undef[:4])})"
                        ),
                        suggestion=_RECOMPILE,
                    )
                )
        ok_out = step.out_idx[
            (step.out_idx >= 0) & (step.out_idx < cp.n_slots)
        ]
        defined[ok_out] = True
    return _capped(diags, "RL502", len(diags))


@lint_pass(
    "plan.typing", codes=("RL503",), requires=("dg", "exec_plan", "compiled")
)
def check_semiring_typing(target: LintTarget) -> Iterable[Diagnostic]:
    """RL503: opcode <-> semiring-step compatibility.

    Every batch opcode must have batched semantics, be called with the
    roles its semantics lambda binds, and be legal on the compiled
    dtype; the multiset of batched opcodes (weighted by width) must be
    the graph's OP-node opcode census — a swapped semiring step changes
    the census even when shapes stay consistent.
    """
    dg, cp = target.dg, target.compiled
    assert dg is not None and cp is not None
    diags: list[Diagnostic] = []
    node_data = dg.g.nodes
    for pos, step in enumerate(cp.steps):
        if step.opcode not in VECTOR_OPCODES or (
            step.opcode not in OPCODE_SEMANTICS
        ):
            diags.append(
                Diagnostic(
                    code="RL503",
                    severity=Severity.ERROR,
                    message=(
                        f"batch {pos} uses opcode {step.opcode!r}, which "
                        "has no batched semantics"
                    ),
                    suggestion=_RECOMPILE,
                )
            )
            continue
        want = OPCODE_ROLES[step.opcode]
        got = frozenset(step.role_names)
        if got != want:
            diags.append(
                Diagnostic(
                    code="RL503",
                    severity=Severity.ERROR,
                    message=(
                        f"batch {pos} ({step.opcode}) binds roles "
                        f"{sorted(got)} but its semantics expect "
                        f"{sorted(want)}"
                    ),
                    suggestion=_RECOMPILE,
                )
            )
        if step.opcode != "mac" and cp.dtype.kind not in _FIELD_DTYPE_KINDS:
            diags.append(
                Diagnostic(
                    code="RL503",
                    severity=Severity.ERROR,
                    message=(
                        f"batch {pos} applies field opcode "
                        f"{step.opcode!r} on non-field dtype {cp.dtype!r}"
                    ),
                    suggestion=(
                        "compile against a float/complex semiring, or "
                        "keep this graph on the reference interpreter"
                    ),
                )
            )
    want_census = Counter(
        node_data[nid]["opcode"] for nid in _op_nodes(target)
    )
    got_census: Counter[str] = Counter()
    for step in cp.steps:
        got_census[step.opcode] += step.width
    if want_census != got_census:
        drift = {
            op: (want_census.get(op, 0), got_census.get(op, 0))
            for op in set(want_census) | set(got_census)
            if want_census.get(op, 0) != got_census.get(op, 0)
        }
        diags.append(
            Diagnostic(
                code="RL503",
                severity=Severity.ERROR,
                message=(
                    "batched opcode census disagrees with the graph "
                    f"(opcode: graph-count vs program-count): {drift}"
                ),
                suggestion=_RECOMPILE,
            )
        )
    return _capped(diags, "RL503", len(diags))


@lint_pass(
    "plan.bounds", codes=("RL504",), requires=("dg", "exec_plan", "compiled")
)
def check_index_bounds(target: LintTarget) -> Iterable[Diagnostic]:
    """RL504: scatter/gather index-bounds soundness.

    The replay writes ``vals[out_idx]`` and reads ``vals[role_idx]``
    with fancy indexing; one out-of-range (or negative) index silently
    wraps or raises mid-replay.  This pass proves every index array
    sound before any replay runs.
    """
    cp = target.compiled
    assert cp is not None
    diags: list[Diagnostic] = []

    def err(message: str, suggestion: str = _RECOMPILE) -> None:
        diags.append(
            Diagnostic(
                code="RL504",
                severity=Severity.ERROR,
                message=message,
                suggestion=suggestion,
            )
        )

    def check_idx(name: str, arr: np.ndarray) -> None:
        if arr.size == 0:
            return
        if arr.dtype.kind not in "iu":
            err(f"{name} has non-integral dtype {arr.dtype!r}")
            return
        lo, hi = int(arr.min()), int(arr.max())
        if lo < 0 or hi >= cp.n_slots:
            err(
                f"{name} indexes outside [0, {cp.n_slots}): "
                f"min={lo} max={hi}"
            )

    check_idx("input_slots", cp.input_slots)
    check_idx("const_slots", cp.const_slots)
    for pos, step in enumerate(cp.steps):
        check_idx(f"batch {pos} ({step.opcode}) out_idx", step.out_idx)
        if len(step.role_idx) != len(step.role_names):
            err(
                f"batch {pos} ({step.opcode}) has {len(step.role_idx)} "
                f"index array(s) for {len(step.role_names)} role(s)"
            )
        for role, idx in zip(step.role_names, step.role_idx):
            check_idx(f"batch {pos} ({step.opcode}) role {role!r}", idx)
            if idx.shape != step.out_idx.shape:
                err(
                    f"batch {pos} ({step.opcode}) role {role!r} gathers "
                    f"{idx.size} operand(s) for {step.out_idx.size} "
                    "output(s)"
                )
    for pos, slot in enumerate(cp.output_slots):
        if not 0 <= int(slot) < cp.n_slots:
            err(
                f"output {cp.output_ids[pos]!r} reads slot {slot}, "
                f"outside [0, {cp.n_slots})"
            )
    if cp.const_values.shape != cp.const_slots.shape:
        err(
            f"{cp.const_values.size} constant value(s) scattered into "
            f"{cp.const_slots.size} slot(s)"
        )
    if not (
        len(cp.input_ids) == len(cp.input_pos) == cp.input_slots.size
    ):
        err(
            "input ids/positions/slots disagree in length: "
            f"{len(cp.input_ids)}/{len(cp.input_pos)}/"
            f"{cp.input_slots.size}"
        )
    return _capped(diags, "RL504", len(diags))


@lint_pass("plan.fallbacks", codes=("RL505",), requires=("compiled",))
def check_fallback_audit(target: LintTarget) -> Iterable[Diagnostic]:
    """RL505: every vector-backend fallback reason is a documented one.

    Reads the process-wide ``repro_vector_fallback_total`` counter; a
    reason outside :data:`~repro.arrays.vector_sim.ALLOWED_FALLBACK_REASONS`
    means a new reference-interpreter escape hatch shipped without being
    audited for result equivalence.
    """
    series = runlog.event_counter(
        "repro_vector_fallback_total"
    ).to_json()["series"]
    diags: list[Diagnostic] = []
    for entry in series:
        reason = entry["labels"].get("reason", "")
        if reason not in ALLOWED_FALLBACK_REASONS:
            diags.append(
                Diagnostic(
                    code="RL505",
                    severity=Severity.ERROR,
                    message=(
                        f"vector backend fell back {entry['value']} "
                        f"time(s) for undocumented reason {reason!r} "
                        f"(allowed: {sorted(ALLOWED_FALLBACK_REASONS)})"
                    ),
                    suggestion=(
                        "audit the new fallback path for reference "
                        "equivalence, then add the reason to "
                        "ALLOWED_FALLBACK_REASONS"
                    ),
                )
            )
    return _capped(diags, "RL505", len(diags))
