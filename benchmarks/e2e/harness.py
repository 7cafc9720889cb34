"""Driver side of the end-to-end benchmark: workloads, children, the loop.

The driver imports nothing from ``repro``.  Every unit of work runs in a
child process, at most one at a time: either a fresh ``python -m repro``
per op (the single-shot CLI path a user waits on), or one long-lived
worker (``child.py worker``) that runs the closed loop in-process and
reports its latencies.  Peak memory is read per child from
``os.wait4``, never from the cumulative ``RUSAGE_CHILDREN``.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD = HERE / "child.py"

#: Set-up runs this many times per run; ``setup_s`` is the median.
SETUP_REPS = 3
#: A child still running after this long is killed and its op fails.
CHILD_TIMEOUT_S = 150.0

#: The two design-cold points: the paper's linear array and a 4x4 mesh.
DESIGN_POINTS = (
    ["--n", "24", "--m", "4"],
    ["--n", "24", "--m", "16", "--geometry", "mesh"],
)
#: closure-sparse: this many Kronecker graphs of this scale per run.
GRAPHS, KRON_SCALE, KRON_EDGES = 4, 14, 8


@dataclass(frozen=True)
class Workload:
    """How one workload runs; its ``why`` lives in ``BENCHMARK.json``."""

    name: str
    #: ``cli``: one ``python -m repro`` child per op; ``worker``: one
    #: child runs every op in-process.
    mode: str
    #: layer groups (see ``layers.Layer.group``) the traced pass wraps
    groups: tuple[str, ...]
    #: a run stops at a multiple of this many ops, so each run sees the
    #: same mix of inputs
    round_len: int
    #: ops in one traced pass; per-layer counts are per pass
    trace_pass: int


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("design-cold", "cli", ("array",), 2, 2),
        Workload("closure-sparse", "cli", ("dataset",), GRAPHS, GRAPHS),
        Workload("fault-campaign", "worker", ("array", "resilience"), 7, 42),
        Workload("replay-warm", "worker", ("array",), 4, 4),
    )
}


# ----------------------------------------------------------------------
# The closed loop (shared with the worker)
# ----------------------------------------------------------------------

@dataclass
class LoopResult:
    """Latencies of one closed-loop run, untraced and traced."""

    #: ``(op index, latency_s)`` of every untraced op
    samples: list[tuple[int, float]] = field(default_factory=list)
    traced: list[tuple[int, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    round_len: int = 1
    #: wall time of each untraced round of ``round_len`` ops
    rounds: list[float] = field(default_factory=list)
    #: traced passes completed (0 when not tracing)
    passes: int = 0


def closed_loop(
    op: Callable[[int, bool], tuple[float, bool]],
    seconds: float,
    round_len: int,
    trace_pass: int = 0,
) -> LoopResult:
    """Run ``op(k, traced) -> (latency_s, ok)`` back to back.

    One client, so the next op starts only when the previous one ends.
    Untraced, op indices count up and the run stops at the first round
    boundary after ``seconds``.  With ``trace_pass`` set, the run
    alternates an untraced and a traced pass over ops ``0..trace_pass-1``
    until ``seconds`` have passed, so both sides time the same inputs
    and their ratio is the tracing overhead.
    """
    res = LoopResult(round_len=round_len)

    def run(k: int, traced: bool) -> None:
        latency, ok = op(k, traced)
        (res.traced if traced else res.samples).append((k, latency))
        res.attempted += 1
        res.failed += not ok

    t0 = perf_counter()
    k = 0
    while True:
        if trace_pass:
            for traced in (False, True):
                for i in range(trace_pass):
                    run(i, traced)
            res.passes += 1
        else:
            t_round = perf_counter()
            for _ in range(round_len):
                run(k, False)
                k += 1
            res.rounds.append(perf_counter() - t_round)
        if perf_counter() - t0 >= seconds:
            break
    return res


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------

class ChildError(RuntimeError):
    """A set-up child failed; the workload cannot be measured."""


def child_env(work: Path) -> dict[str, str]:
    """The program's environment: no ``REPRO_*`` knobs leak in, and run
    ledgers (still written, as users pay for them) land in ``work``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    env["REPRO_RUNLOG_DIR"] = str(work / "runs")
    return env


def _reap(p: subprocess.Popen) -> int:
    """Wait for ``p``; return its peak RSS in kB (Linux ``ru_maxrss``)."""
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss


@dataclass
class ChildRun:
    rc: int
    out: str
    wall_s: float
    rss_kb: int
    err: str


def run_child(argv: list[str], work: Path) -> ChildRun:
    """Run one child to completion; wall time spans spawn to reap."""
    with tempfile.TemporaryFile(dir=work) as err:
        t0 = perf_counter()
        p = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=err, env=child_env(work), cwd=ROOT,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
        timer.start()
        try:
            out = p.stdout.read()
        finally:
            p.stdout.close()
            rss = _reap(p)
            timer.cancel()
        wall = perf_counter() - t0
        err.seek(0)
        tail = err.read()[-2000:].decode(errors="replace")
    return ChildRun(p.returncode, out.decode(errors="replace"), wall, rss, tail)


class Worker:
    """One ``child.py worker`` process speaking JSON lines."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self._err = tempfile.TemporaryFile(dir=work)
        self.p = subprocess.Popen(
            [sys.executable, str(CHILD), "worker", workload, str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._err,
            env=child_env(work), cwd=ROOT,
        )

    def recv(self) -> dict[str, Any]:
        timer = threading.Timer(CHILD_TIMEOUT_S, self.p.kill)
        timer.start()
        try:
            line = self.p.stdout.readline()
        finally:
            timer.cancel()
        if not line:
            self._err.seek(0)
            tail = self._err.read()[-2000:].decode(errors="replace")
            self.close()
            raise ChildError(f"worker exited early:\n{tail}")
        return json.loads(line)

    def send(self, msg: dict[str, Any]) -> None:
        self.p.stdin.write((json.dumps(msg) + "\n").encode())
        self.p.stdin.flush()

    def close(self) -> int:
        """End the worker (EOF on stdin) and return its peak RSS in kB."""
        if self.p.returncode is not None:
            return 0
        self.p.stdin.close()
        self.p.stdout.read()
        self.p.stdout.close()
        rss = _reap(self.p)
        self._err.close()
        return rss


# ----------------------------------------------------------------------
# Running one workload
# ----------------------------------------------------------------------

@dataclass
class Measured:
    """Everything one run of one workload measured."""

    setup_s: list[float]
    loop: LoopResult
    rss_kb: int
    #: summed per-layer trace of the traced ops (see ``layers.Tracer``)
    trace: dict[str, Any]


def _add_trace(total: dict[str, Any], part: dict[str, Any]) -> None:
    for key in ("calls", "self_s", "counters", "extra"):
        bucket = total.setdefault(key, {})
        for name, value in part.get(key, {}).items():
            bucket[name] = bucket.get(name, 0) + value
    total.setdefault("import_s", []).extend(part.get("import_s", []))
    total["fallbacks"] = total.get("fallbacks", 0) + part.get("fallbacks", 0)


def _setup_cli(w: Workload, seed: int, work: Path) -> tuple[list[float], Any]:
    times, state = [], None
    for rep in range(SETUP_REPS):
        if w.name == "design-cold":
            argv = [sys.executable, str(CHILD), "warm", *w.groups]
        else:
            gdir = work / f"graphs{rep}"
            argv = [sys.executable, str(CHILD), "graphs", str(gdir), str(seed)]
        r = run_child(argv, work)
        if r.rc != 0:
            raise ChildError(f"{w.name} set-up failed (rc={r.rc}):\n{r.err}")
        times.append(r.wall_s)
        state = json.loads(r.out) if r.out.strip() else None
    return times, state


def _cli_args(w: Workload, seed: int, state: Any, k: int) -> list[str]:
    if w.name == "design-cold":
        return [
            "partition", *DESIGN_POINTS[k % 2], "--simulate",
            "--backend", "vector", "--seed", str(seed * 1000 + k),
        ]
    graph = state[k % GRAPHS]
    return [
        "closure", "--dataset", graph["path"], "--check", "ssc12",
        "--format", "json",
    ]


def _cli_ok(w: Workload, state: Any, k: int, r: ChildRun) -> bool:
    if r.rc != 0:
        return False
    if w.name == "design-cold":
        return "correct=True" in r.out
    try:
        summary = json.loads(r.out)
    except ValueError:
        return False
    graph = state[k % GRAPHS]
    return (
        summary.get("check", {}).get("agree") is True
        and summary["dataset"]["n"] == graph["n"]
        and summary["dataset"]["m"] == graph["m"]
    )


def _measure_cli(
    w: Workload, seed: int, seconds: float, trace: bool, work: Path
) -> Measured:
    setup_s, state = _setup_cli(w, seed, work)
    total: dict[str, Any] = {}
    peak_kb = 0
    trace_file = work / "trace.json"

    def op(k: int, traced: bool) -> tuple[float, bool]:
        nonlocal peak_kb
        args = _cli_args(w, seed, state, k)
        if traced:
            argv = [sys.executable, str(CHILD), "cli", str(trace_file),
                    ",".join(w.groups), "--", *args]
        else:
            argv = [sys.executable, "-m", "repro", *args]
        r = run_child(argv, work)
        ok = _cli_ok(w, state, k, r)
        if not ok:
            print(f"{w.name} op {k} failed (rc={r.rc}):\n{r.err}",
                  file=sys.stderr)
        if traced and trace_file.exists():
            _add_trace(total, json.loads(trace_file.read_text()))
            trace_file.unlink()
        if not traced:
            peak_kb = max(peak_kb, r.rss_kb)
        return r.wall_s, ok

    loop = closed_loop(
        op, seconds, w.round_len, w.trace_pass if trace else 0
    )
    return Measured(setup_s, loop, peak_kb, total)


def _measure_worker(
    w: Workload, seed: int, seconds: float, trace: bool, work: Path
) -> Measured:
    setup_s = []
    for rep in range(SETUP_REPS):
        t0 = perf_counter()
        worker = Worker(w.name, seed, work)
        try:
            worker.recv()  # "ready": set-up is done
            setup_s.append(perf_counter() - t0)
            if rep < SETUP_REPS - 1:
                worker.close()
                continue
            worker.send({"seconds": seconds, "trace": trace})
            reply = worker.recv()
        finally:
            rss = worker.close()
    loop = LoopResult(
        samples=reply["samples"],
        traced=reply["traced"],
        attempted=reply["attempted"],
        failed=reply["failed"],
        round_len=w.round_len,
        rounds=reply["rounds"],
        passes=reply["passes"],
    )
    return Measured(setup_s, loop, rss, reply.get("trace", {}))


def measure(name: str, seed: int, seconds: float, trace: bool) -> Measured:
    """One run of workload ``name``: set-up, then the closed loop.

    All scratch files live under ``.bench_work/`` in the checkout and
    are removed before returning.
    """
    w = WORKLOADS[name]
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))
    try:
        if w.mode == "cli":
            return _measure_cli(w, seed, seconds, trace, work)
        return _measure_worker(w, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still uses it


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
