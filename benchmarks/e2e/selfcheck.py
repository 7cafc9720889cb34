"""Check the benchmark's own logic in about a second, without the program.

    python benchmarks/e2e/selfcheck.py

Drives the closed loop with a fake op, then checks that every metric
``BENCHMARK.json`` names is emitted with its unit, that failed ops are
counted, and that ``compare`` passes two identical results files but
flags an ``op_p50_s`` beyond its bound, a differing deterministic count
and a differing environment stamp.  Exits 1 if any check fails.
"""

from __future__ import annotations

import copy
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import harness
import layers
import run


def _fake(trace: bool, fail_every: int = 0) -> harness.Measured:
    def op(k: int, traced: bool) -> tuple[float, bool]:
        latency = 0.01 * (1 + k % 2) * (1.25 if traced else 1.0)
        return latency, not (fail_every and k % fail_every == fail_every - 1)

    loop = harness.closed_loop(op, 0.0, 2, 2 if trace else 0)
    first = layers.LAYERS[0].name
    tr = {
        "calls": {first: 4},
        "self_s": {first: 0.01},
        "counters": {"makespan_cycles": 2 * 4035},
        "import_s": [0.3],
        "fallbacks": 0,
    }
    return harness.Measured([0.5, 0.4, 0.6], loop, 100 * 1024, tr)


def _compare(a: dict, b: dict, bench: dict) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        pa, pb = Path(tmp) / "a.json", Path(tmp) / "b.json"
        pa.write_text(json.dumps(a))
        pb.write_text(json.dumps(b))
        with redirect_stdout(io.StringIO()):
            return run.compare([str(pa)], [str(pb)], bench)


def main() -> int:
    bench = json.loads(run.BENCHMARK.read_text())
    untraced = run.record(_fake(False), 0.0, False, bench)
    traced = run.record(_fake(True), 0.0, True, bench)
    failing = run.record(_fake(False, fail_every=2), 0.0, False, bench)
    rec = {**untraced, **{k: traced[k] for k in ("layers", "passes")}}
    base = {"seed": 0, "env": run.env_stamp(), "workloads": {"w": rec}}

    # 1.5x the bound must be flagged; half the bound must not.
    bound = next(s["bound"] for s in bench["end_to_end"] if s["name"] == "op_p50_s")
    slower = copy.deepcopy(base)
    slower["workloads"]["w"]["metrics"]["op_p50_s"]["value"] *= 1 + 1.5 * bound
    within = copy.deepcopy(base)
    within["workloads"]["w"]["metrics"]["op_p50_s"]["value"] *= 1 + 0.5 * bound
    recount = copy.deepcopy(base)
    recount["workloads"]["w"]["layers"]["arrays.sim.makespan_cycles"]["value"] += 1
    moved = copy.deepcopy(base)
    moved["env"]["cpu_count"] = -1
    checks = {
        "end-to-end metrics emitted with units": untraced["metrics"]
        == {s["name"]: {"value": untraced["metrics"][s["name"]]["value"],
                        "unit": s["unit"]} for s in bench["end_to_end"]},
        "per-layer metrics emitted with units": traced["layers"]
        == {s["name"]: {"value": traced["layers"][s["name"]]["value"],
                        "unit": s["unit"]} for s in bench["per_layer"]},
        "no end-to-end metric is 0": all(
            v["value"] for v in untraced["metrics"].values()
        ),
        "fail ratio 0 when every op passes": untraced["failed"] == 0
        and untraced["correct"],
        "failed ops counted": failing["failed"] == 1 and not failing["correct"],
        "per-pass counts": traced["layers"]["arrays.sim.makespan_cycles"]["value"]
        == 2 * 4035,
        "tracing overhead": abs(
            traced["layers"]["trace.overhead_ratio"]["value"] - 1.25
        ) < 1e-9,
        "compare passes identical results": _compare(base, base, bench) == 0,
        "compare passes op_p50_s within its bound": _compare(base, within, bench) == 0,
        "compare flags op_p50_s beyond its bound": _compare(base, slower, bench) == 1,
        "compare flags a differing count": _compare(base, recount, bench) == 1,
        "compare flags differing env stamps": _compare(base, moved, bench) == 1,
    }
    for name, ok in checks.items():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
