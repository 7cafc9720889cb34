"""Program side of the end-to-end benchmark: runs inside child processes.

Roles (first argument):

``warm GROUP...``
    Import ``repro.cli`` and the modules of the given layer groups
    (design-cold set-up; the first run also fills the bytecode cache).
``graphs DIR SEED``
    Write the closure-sparse Kronecker edge lists; print their paths,
    vertex and edge counts as JSON.
``cli TRACE_OUT GROUPS -- ARGS...``
    One traced CLI op: ``repro.cli.main(ARGS)`` with the layers of
    ``GROUPS`` (comma separated) wrapped; the trace goes to TRACE_OUT.
``worker WORKLOAD SEED``
    Set up ``fault-campaign`` or ``replay-warm``, print ``{"ready": true}``,
    then read one JSON request ``{"seconds", "trace"}`` from stdin, run
    the closed loop and print the result as one JSON line.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import layers
from harness import GRAPHS, KRON_EDGES, KRON_SCALE, WORKLOADS, closed_loop

#: replay-warm: input matrices per design, cycled through by the ops.
REPLAY_INPUTS = 8
#: replay-warm: reference simulations timed per boolean design for the
#: break-even estimate (traced runs only).
REF_SAMPLES = 3


def _warm(groups: list[str]) -> int:
    layers.import_modules(tuple(groups))
    return 0


def _graphs(out_dir: str, seed: int) -> int:
    from repro.datasets import kronecker, save_edgelist

    graphs = []
    for i in range(GRAPHS):
        ds = kronecker(KRON_SCALE, KRON_EDGES, seed=GRAPHS * seed + i)
        path = save_edgelist(ds, Path(out_dir) / f"kron{i}.txt")
        # A loaded edge list has ids up to its largest endpoint only.
        n_loaded = int(ds.edges.max()) + 1 if ds.m else 0
        graphs.append({"path": str(path), "n": n_loaded, "m": ds.m})
    print(json.dumps(graphs))
    return 0


def _cli(trace_out: str, groups: str, argv: list[str]) -> int:
    chosen = tuple(groups.split(","))
    t0 = perf_counter()
    layers.import_modules(chosen)
    import_s = perf_counter() - t0
    tracer = layers.Tracer()
    tracer.install(chosen)
    from repro.cli import main

    try:
        return main(argv)
    finally:
        Path(trace_out).write_text(json.dumps({
            **tracer.snapshot(),
            "import_s": [import_s],
            "fallbacks": layers.fallback_total(),
        }))


# ----------------------------------------------------------------------
# Worker workloads: each op is a (run, check) pair; only run is timed.
# ----------------------------------------------------------------------

Op = tuple[Callable[[], Any], Callable[[Any], bool]]


def _campaign_ops(seed: int) -> list[Op]:
    from repro.resilience import CAMPAIGN_CONFIGS, run_campaign
    from repro.resilience.faults import FaultKind
    from repro.resilience.regimes import REGIME_NAMES

    cells = [{"kinds": [k]} for k in FaultKind]
    cells += [{"regime": g} for g in REGIME_NAMES]

    def check(result: Any) -> bool:
        return len(result.runs) == 1 and result.ok

    # Configs vary fastest, so every round of 7 ops covers each design.
    return [
        (functools.partial(run_campaign, seed=3 * seed + j, configs=[c],
                           backend="reference", **cell), check)
        for j in range(3)
        for cell in cells
        for c in CAMPAIGN_CONFIGS
    ]


class _Replay:
    """replay-warm set-up: 4 compiled designs with inputs and answers."""

    def __init__(self, seed: int) -> None:
        import numpy as np

        from repro.arrays.vector_compile import get_compiled
        from repro.core.partitioner import partition_transitive_closure
        from repro.core.semiring import BOOLEAN, MIN_PLUS, closure_reference

        self.designs = []
        for sr in (BOOLEAN, MIN_PLUS):
            for geometry, m in (("linear", 4), ("mesh", 16)):
                impl = partition_transitive_closure(
                    n=24, m=m, geometry=geometry, semiring=sr
                )
                rng = np.random.default_rng([seed, len(self.designs)])
                inputs = [sr.random_matrix(24, rng)
                          for _ in range(REPLAY_INPUTS)]
                answers = [closure_reference(a, sr) for a in inputs]
                # Pays the compile; later replays hit the plan cache.
                makespan = impl.simulate(inputs[0], backend="vector").makespan
                compiled = get_compiled(impl.exec_plan, impl.dg, sr)
                self.designs.append({
                    "name": f"{sr.name}-{geometry}", "impl": impl, "sr": sr,
                    "inputs": inputs, "answers": answers,
                    "makespan": makespan,
                    "compile_s": compiled.compile_seconds,
                })

    def ops(self) -> list[Op]:
        # Designs vary fastest, so every round of 4 ops covers each one.
        out = []
        for i in range(REPLAY_INPUTS):
            for d in self.designs:
                a, answer = d["inputs"][i], d["answers"][i]
                out.append((
                    functools.partial(self._op, d["impl"], a, d["sr"]),
                    functools.partial(self._check, answer, d["makespan"]),
                ))
        return out

    @staticmethod
    def _op(impl: Any, a: Any, sr: Any) -> tuple[int, Any]:
        res = impl.simulate(a, backend="vector")
        return res.makespan, res.output_matrix(24, sr)

    @staticmethod
    def _check(answer: Any, makespan: int, out: tuple[int, Any]) -> bool:
        import numpy as np

        return out[0] == makespan and bool(np.array_equal(out[1], answer))

    def break_even(self, samples: list[tuple[int, float]]) -> dict[str, float]:
        """Replays after which compiling beats the reference interpreter,
        for the two boolean designs (the design-cold points)."""
        out = {}
        for idx, d in enumerate(self.designs[:2]):
            ref = []
            for _ in range(REF_SAMPLES):
                t0 = perf_counter()
                d["impl"].simulate(
                    d["inputs"][0], backend="reference"
                ).output_matrix(24, d["sr"])
                ref.append(perf_counter() - t0)
            replay = statistics.median(
                t for k, t in samples if k % len(self.designs) == idx
            )
            geometry = d["name"].split("-")[1]
            out[f"arrays.vector_compile.break_even_replays.{geometry}"] = (
                d["compile_s"] / (statistics.median(ref) - replay)
            )
        return out


def _worker(name: str, seed: int) -> int:
    proto = sys.stdout
    sys.stdout = sys.stderr  # keep the protocol channel clean
    w = WORKLOADS[name]
    t0 = perf_counter()
    layers.import_modules(w.groups)
    import_s = perf_counter() - t0
    replay = _Replay(seed) if name == "replay-warm" else None
    ops = replay.ops() if replay else _campaign_ops(seed)

    def send(msg: dict[str, Any]) -> None:
        proto.write(json.dumps(msg) + "\n")
        proto.flush()

    send({"ready": True})
    line = sys.stdin.readline()
    if not line:
        return 0
    req = json.loads(line)
    tracer = layers.Tracer()
    installed = False
    fallbacks = 0

    def op(k: int, traced: bool) -> tuple[float, bool]:
        nonlocal installed, fallbacks
        if traced != installed:
            # Pass boundary: fallbacks are counted over traced passes.
            if traced:
                fallbacks -= layers.fallback_total()
                tracer.install(w.groups)
            else:
                tracer.uninstall()
                fallbacks += layers.fallback_total()
            installed = traced
        run, check = ops[k % len(ops)]
        t = perf_counter()
        try:
            out = run()
        except Exception:
            traceback.print_exc()
            return perf_counter() - t, False
        latency = perf_counter() - t
        return latency, check(out)

    loop = closed_loop(
        op, req["seconds"], w.round_len, w.trace_pass if req["trace"] else 0
    )
    if installed:
        tracer.uninstall()
        fallbacks += layers.fallback_total()
    reply: dict[str, Any] = {
        "samples": loop.samples, "traced": loop.traced,
        "attempted": loop.attempted, "failed": loop.failed,
        "rounds": loop.rounds, "passes": loop.passes,
    }
    if req["trace"]:
        reply["trace"] = {
            **tracer.snapshot(),
            "import_s": [import_s],
            "fallbacks": fallbacks,
            "extra": replay.break_even(loop.samples) if replay else {},
        }
    send(reply)
    return 0


def main(argv: list[str]) -> int:
    role, rest = argv[0], argv[1:]
    if role == "warm":
        return _warm(rest)
    if role == "graphs":
        return _graphs(rest[0], int(rest[1]))
    if role == "cli":
        sep = rest.index("--")
        return _cli(rest[0], rest[1], rest[sep + 1:])
    if role == "worker":
        return _worker(rest[0], int(rest[1]))
    raise SystemExit(f"child.py: unknown role {role!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
