"""F19 (Fig. 19 / Sec. 4.2): the partitioned two-dimensional array.

Same throughput class as the linear array (the triangular boundary sets
of Fig. 19a cost 7-13%), 2*sqrt(m) memory connections, zero stalls,
correct closures.  Builder: :func:`repro.experiments.arrays.mesh_sweep`.

The companion ``F19-VEC`` table times a 4x4 mesh at n=24 on both
simulator backends.  The warm gate: a cached vector replay must be at
least 5x faster than the reference interpreter while staying
bit-identical.  The table also shows the cold speedup (one run that
pays the compile) and the replays the compile needs to break even.
"""

from repro.experiments.arrays import backend_timing, mesh_sweep
from repro.viz import format_table

from _common import save_table


def test_fig19_mesh_partitioned(benchmark):
    rows = benchmark(mesh_sweep)
    for r in rows:
        assert r["closure_ok"]
        assert r["stalls"] == 0
        side = int(r["m"] ** 0.5)
        assert r["mem_ports"] == 2 * side
        assert 0.6 < r["T_ratio"] <= 1.0
        assert r["boundary_sets"] > 0  # Fig. 19a's triangular sets exist
    save_table("F19", "2-D partitioned array: measured vs Sec. 4.2", format_table(rows))


def test_fig19_vector_backend_warm_speedup():
    rows = backend_timing(configs=((24, 16, "mesh"),))
    r = rows[0]
    assert r["identical"], "vector replay diverged from the reference"
    assert r["warm_speedup"] >= 5.0, rows
    save_table(
        "F19-VEC",
        "4x4 mesh at n=24: reference interpreter vs vector replay",
        format_table(rows), rows=rows, n=24, m=16,
    )
