"""Per-layer tracing from outside the program: wrap public functions.

Nothing under ``src/`` knows it is being traced.  :class:`Tracer`
replaces each layer's public functions with timing wrappers at every
place the program can reach them from: the defining module, every
``repro`` module that imported the name with ``from ... import``, and
every module-level dict (registry) that holds it, such as
``repro.arrays.vector_sim.BACKENDS``.  Methods and properties are
wrapped on their class, so every alias of the class sees the wrapper.

Each wrapper records ``calls`` and *self time*: its wall time minus the
time covered by wrapped callees, so the self times of nested layers
never double count.  A few layers also carry a hook that reads counts
off the layer's return value (simulated cycles, edges parsed, resilient
attempts), which is where the benchmark measures those counts.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

def _count_sim(counters: Counter, res: Any) -> None:
    counters["makespan_cycles"] += res.makespan


def _count_fires(counters: Counter, res: Any) -> None:
    counters["makespan_cycles"] += res.makespan
    counters["fires"] += res.busy


def _count_edges(counters: Counter, res: Any) -> None:
    counters["edges"] += res.m


def _count_attempts(counters: Counter, res: Any) -> None:
    # Every attempt ends in exactly one "gset" (committed) or "retry"
    # (fault detected) timeline event.
    kinds = [ev.kind for ev in res.timeline]
    counters["attempts"] += kinds.count("gset") + kinds.count("retry")
    counters["committed"] += kinds.count("gset")
    counters["retries"] += res.retries
    counters["repartitions"] += res.repartitions


@dataclass(frozen=True)
class Layer:
    """One traced layer: a metric name and the functions it covers."""

    name: str
    #: ``array``, ``resilience`` or ``dataset``; a workload traces the
    #: groups its ops reach
    group: str
    module: str
    #: attribute paths inside ``module``: ``"f"`` or ``"Class.method"``
    targets: tuple[str, ...]
    hook: Callable[[Counter, Any], None] | None = None


#: Pipeline order: FPDG -> G-graph -> G-sets -> plan -> compile ->
#: replay for the arrays; parse -> SCC/packed closure -> check for the
#: datasets; attempts and signature checks for the resilient runtime.
LAYERS: tuple[Layer, ...] = (
    Layer("algorithms.tc_regular", "array",
          "repro.algorithms.transitive_closure", ("tc_regular",)),
    Layer("core.ggraph.GGraph", "array", "repro.core.ggraph",
          ("GGraph.__init__",)),
    Layer("core.gsets", "array", "repro.core.gsets",
          ("make_linear_gsets", "make_mesh_gsets", "schedule_gsets",
           "verify_schedule")),
    Layer("core.metrics.evaluate_schedule", "array", "repro.core.metrics",
          ("evaluate_schedule",)),
    Layer("arrays.plan.partitioned_plan", "array", "repro.arrays.plan",
          ("partitioned_plan",)),
    Layer("arrays.vector_compile.plan_fingerprint", "array",
          "repro.arrays.vector_compile", ("plan_fingerprint",)),
    Layer("arrays.vector_compile.get_compiled", "array",
          "repro.arrays.vector_compile", ("get_compiled",)),
    Layer("arrays.vector_compile.compile_plan", "array",
          "repro.arrays.vector_compile", ("compile_plan",)),
    Layer("algorithms.make_inputs", "array",
          "repro.algorithms.transitive_closure", ("make_inputs",)),
    Layer("arrays.vector_compile.CompiledPlan.replay", "array",
          "repro.arrays.vector_compile", ("CompiledPlan.replay",), _count_sim),
    Layer("arrays.cycle_sim.simulate", "array", "repro.arrays.cycle_sim",
          ("simulate",), _count_fires),
    Layer("arrays.SimResult.output_matrix", "array", "repro.arrays.cycle_sim",
          ("SimResult.output_matrix",)),
    Layer("core.evaluate", "array", "repro.core.evaluate",
          ("evaluate", "evaluate_full")),
    Layer("resilience.campaign.build_design", "resilience",
          "repro.resilience.campaign", ("build_design",)),
    Layer("resilience.runtime.run_resilient", "resilience",
          "repro.resilience.runtime", ("run_resilient",), _count_attempts),
    Layer("resilience.detect.check_signatures", "resilience",
          "repro.resilience.detect", ("check_signatures",)),
    Layer("datasets.edgelist.load_edgelist", "dataset",
          "repro.datasets.edgelist", ("load_edgelist",), _count_edges),
    Layer("datasets.core.from_edges", "dataset", "repro.datasets.core",
          ("from_edges",)),
    Layer("datasets.closure.compute_closure", "dataset",
          "repro.datasets.closure", ("compute_closure",)),
    Layer("datasets.closure.ClosureResult.reach_counts", "dataset",
          "repro.datasets.closure", ("ClosureResult.reach_counts",)),
    Layer("baselines.ssc.ssc12", "dataset", "repro.baselines.ssc",
          ("ssc12",)),
)


def import_modules(groups: tuple[str, ...]) -> None:
    """Import ``repro.cli`` and every module the chosen layers live in."""
    importlib.import_module("repro.cli")
    for layer in LAYERS:
        if layer.group in groups:
            importlib.import_module(layer.module)


@dataclass
class Tracer:
    """Wraps layer functions and accumulates calls and self time."""

    calls: dict[str, int] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    counters: Counter = field(default_factory=Counter)
    _stack: list[list[float]] = field(default_factory=list)
    _undo: list[Callable[[], None]] = field(default_factory=list)

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        name, hook, stack = layer.name, layer.hook, self._stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            covered = [0.0]
            stack.append(covered)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + dt - covered[0]
            if hook is not None:
                hook(self.counters, res)
            return res

        return wrapper

    def _set(self, owner: Any, key: str, value: Any) -> None:
        if isinstance(owner, dict):
            old = owner[key]
            owner[key] = value
            self._undo.append(lambda: owner.__setitem__(key, old))
        else:
            old = owner.__dict__[key]
            setattr(owner, key, value)
            self._undo.append(lambda: setattr(owner, key, old))

    def install(self, groups: tuple[str, ...]) -> None:
        """Wrap every layer of ``groups`` (its modules must be imported)."""
        for layer in LAYERS:
            if layer.group not in groups:
                continue
            mod = sys.modules[layer.module]
            for target in layer.targets:
                if "." in target:
                    cls_name, attr = target.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[attr]
                    if isinstance(orig, property):
                        wrapped = property(self._wrap(layer, orig.fget))
                    else:
                        wrapped = self._wrap(layer, orig)
                    self._set(cls, attr, wrapped)
                    continue
                orig = getattr(mod, target)
                wrapped = self._wrap(layer, orig)
                self._replace_everywhere(orig, wrapped)

    def _replace_everywhere(self, orig: Callable, wrapped: Callable) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, wrapped)
                elif isinstance(value, dict):
                    for rkey, rvalue in list(value.items()):
                        if rvalue is orig:
                            self._set(value, rkey, wrapped)

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._undo:
            self._undo.pop()()

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready copy of what has been recorded so far."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
        }


def fallback_total() -> int:
    """Vector-backend fallbacks recorded in this process's registry."""
    from repro.obs.metrics import get_registry

    metric = get_registry().get("repro_vector_fallback_total")
    if metric is None:
        return 0
    return int(sum(s["value"] for s in metric.to_json()["series"]))
