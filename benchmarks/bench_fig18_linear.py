"""F18 (Fig. 18 / Sec. 4.2): the partitioned linear array, cycle-measured.

T = m/(n^2(n+1)) and U = (n-1)(n-2)/(n(n+1)) exactly when m | n+1; zero
stalls; m+1 memory ports; the computed matrix equals the software
closure.  Builder: :func:`repro.experiments.arrays.linear_sweep`.

The companion ``F18-VEC`` table times the same design at n=24 on both
simulator backends.  The warm gate: a cached vector replay must be at
least 5x faster than the reference interpreter while staying
bit-identical.  The table also shows the cold speedup (one run that
pays the compile) and the replays the compile needs to break even.
"""

from repro.experiments.arrays import backend_timing, linear_sweep
from repro.viz import format_table

from _common import save_table


def test_fig18_linear_partitioned(benchmark):
    rows = benchmark(linear_sweep)
    for r in rows:
        assert r["closure_ok"] and r["violations"] == 0
        assert r["stalls"] == 0
        assert r["mem_ports"] == r["m"] + 1
        if (r["n"] + 1) % r["m"] == 0:  # paper's divisibility assumption
            assert r["T_measured"] == r["T_paper"]
            assert abs(r["U_measured"] - r["U_paper"]) < 1e-12
    largest = rows[-1]
    save_table(
        "F18", "linear partitioned array: measured vs Sec. 4.2 formulas",
        format_table(rows), rows=rows, n=largest["n"], m=largest["m"],
        perf_metrics={
            "stall_cycles_total": sum(r["stalls"] for r in rows),
            "violations_total": sum(r["violations"] for r in rows),
        },
    )


def test_fig18_vector_backend_warm_speedup():
    rows = backend_timing(configs=((24, 4, "linear"),))
    r = rows[0]
    assert r["identical"], "vector replay diverged from the reference"
    assert r["warm_speedup"] >= 5.0, rows
    save_table(
        "F18-VEC",
        "linear array at n=24: reference interpreter vs vector replay",
        format_table(rows), rows=rows, n=24, m=4,
    )
