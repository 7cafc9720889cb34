"""Vectorized simulator backend: compile once, replay many times.

:func:`simulate_vector` is a drop-in replacement for
:func:`repro.arrays.cycle_sim.simulate` that compiles the
``(plan, graph, semiring)`` triple into a batched NumPy program (see
:mod:`repro.arrays.vector_compile`) and replays it against the inputs.
The :class:`~repro.arrays.cycle_sim.SimResult` it returns is
bit-identical to the reference interpreter's — measures, deadlines,
violations, strict-mode error ordering and all.  An ``InputGrid`` from
``make_inputs`` is bound as one matrix and grid-shaped outputs come back
as one array (see :mod:`repro.arrays.vector_compile`).

The reference interpreter is *forced* (with a metrics breadcrumb)
whenever the replay could not reproduce its observable behaviour:

* ``probe is not None`` — probes receive per-cycle events in interpreter
  order; batching would change the stream.  Falling back also preserves
  the reference's zero-overhead ``probe is None`` contract.
* ``inject is not None`` — fault injectors rewrite individual firings
  mid-run; same contract.
* the graph uses opcodes without batched semantics (``rotg``/``rota``/
  ``rotb``), or field opcodes over a non-float dtype.

Backend selection is threaded through the stack as a string:
``get_backend("vector")`` returns the callable, and the process-wide
default (used when callers pass ``backend=None``) can be set with
:func:`set_default_backend` or the ``REPRO_SIM_BACKEND`` environment
variable.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Callable, Mapping

from ..core.graph import DependenceGraph, NodeId
from ..core.semiring import BOOLEAN, Semiring
from ..obs import runlog
from ..obs.profile import kernel_profiler
from ..obs.tracing import stage_span
from .cycle_sim import SimResult, simulate
from .plan import ExecutionPlan
from .vector_compile import UnvectorizableGraphError, get_compiled

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.probe import Probe
    from ..resilience.faults import Injector

__all__ = [
    "simulate_vector",
    "ALLOWED_FALLBACK_REASONS",
    "BACKENDS",
    "get_backend",
    "default_backend",
    "set_default_backend",
    "resolve_backend",
    "dispatch_simulate",
]

SimulateFn = Callable[..., SimResult]

#: The documented reasons the vector backend's fast paths may fall
#: back.  ``probe``/``inject``/``unvectorizable`` hand the run to the
#: reference interpreter; ``bitpack`` (emitted at compile time) means a
#: boolean graph was not provably closure-shaped and replays on the
#: generic batched path instead of the bit-packed kernel.  The RL505
#: fallback-audit lint pass fails on any ``repro_vector_fallback_total``
#: reason outside this set — a new fallback path must be added here
#: (i.e. audited) before it ships.
ALLOWED_FALLBACK_REASONS: frozenset[str] = frozenset(
    {"probe", "inject", "unvectorizable", "bitpack"}
)


def simulate_vector(
    plan: ExecutionPlan,
    dg: DependenceGraph,
    inputs: Mapping[NodeId, Any],
    semiring: Semiring = BOOLEAN,
    strict: bool = False,
    probe: "Probe | None" = None,
    inject: "Injector | None" = None,
) -> SimResult:
    """Execute ``dg`` under ``plan`` via the compiled batched program.

    Signature and result match
    :func:`repro.arrays.cycle_sim.simulate` exactly; see the module
    docstring for when the reference interpreter is forced instead.
    """
    if probe is not None:
        runlog.record("fallback", backend="vector", reason="probe")
        return simulate(plan, dg, inputs, semiring, strict, probe, inject)
    if inject is not None:
        runlog.record("fallback", backend="vector", reason="inject")
        return simulate(plan, dg, inputs, semiring, strict, probe, inject)
    try:
        compiled = get_compiled(plan, dg, semiring)
    except UnvectorizableGraphError:
        runlog.record("fallback", backend="vector", reason="unvectorizable")
        return simulate(plan, dg, inputs, semiring, strict, probe, inject)
    with stage_span(
        "sim.vector", graph=dg.name, slots=compiled.n_slots,
        steps=len(compiled.steps), cells=compiled.cells,
    ) as sp:
        result = compiled.replay(
            inputs, strict=strict, kprof=kernel_profiler()
        )
        sp.tag("makespan", result.makespan)
        sp.tag("violations", len(result.violations))
        sp.tag("memory_words", result.memory_words)
    return result


#: name -> simulate-compatible callable.  ``reference`` is the
#: interpreter of :mod:`repro.arrays.cycle_sim`.
BACKENDS: dict[str, SimulateFn] = {
    "reference": simulate,
    "vector": simulate_vector,
}

_DEFAULT_BACKEND = os.environ.get("REPRO_SIM_BACKEND", "reference")


def get_backend(name: str) -> SimulateFn:
    """The simulate-compatible callable registered under ``name``."""
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown simulator backend {name!r}; "
            f"choose from {sorted(BACKENDS)}"
        ) from None


def default_backend() -> str:
    """The process-wide backend used when callers pass ``backend=None``."""
    return _DEFAULT_BACKEND


def set_default_backend(name: str) -> str:
    """Set the process-wide default backend; returns the previous one."""
    global _DEFAULT_BACKEND
    get_backend(name)  # validate
    previous = _DEFAULT_BACKEND
    _DEFAULT_BACKEND = name
    return previous


def resolve_backend(name: str | None) -> str:
    """Map an optional backend argument to a concrete backend name."""
    resolved = _DEFAULT_BACKEND if name is None else name
    get_backend(resolved)  # validate
    return resolved


def dispatch_simulate(
    plan: ExecutionPlan,
    dg: DependenceGraph,
    inputs: Mapping[NodeId, Any],
    semiring: Semiring = BOOLEAN,
    strict: bool = False,
    probe: "Probe | None" = None,
    inject: "Injector | None" = None,
    backend: str | None = None,
) -> SimResult:
    """``simulate`` with an extra ``backend=`` knob (None -> default)."""
    fn = get_backend(resolve_backend(backend))
    return fn(plan, dg, inputs, semiring, strict, probe, inject)
