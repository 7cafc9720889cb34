"""F20-BIT: bit-packed boolean closure vs the unpacked Warshall oracle.

The uint64 bit-packing trick (64 columns per word-op, the SSC2
``bitarray`` idea) turns the rank-1 boolean update into ``n`` masked
row-unions.  This benchmark sweeps seeded Kronecker graphs, checks
bit-for-bit agreement per row, and gates on the headline claim: at
``n >= 1024`` the packed kernel wins by at least 5x.  DS-AGREE rides
along: every closure engine against the dense reference.
"""

from __future__ import annotations

from repro.core.bitmatrix import closure_words, pack_rows
from repro.experiments.datasets import bitpack_speedup, engine_agreement
from repro.datasets import kronecker
from repro.viz import format_table

from _common import save_table

#: The CI gate: minimum packed-over-unpacked speedup at n >= 1024.
GATE_N = 1024
GATE_SPEEDUP = 5.0


def test_bitpack_speedup(benchmark):
    rows = bitpack_speedup()
    assert all(r["agree"] for r in rows), rows
    gated = [r for r in rows if r["n"] >= GATE_N]
    assert gated, "sweep must include at least one gated size"
    for r in gated:
        assert r["speedup"] >= GATE_SPEEDUP, r

    # Regression-time the packed kernel itself at the largest size.
    ds = kronecker(max(r["n"] for r in rows).bit_length() - 1, 8, seed=0)
    words = pack_rows(ds.adjacency(diagonal=True))
    benchmark(closure_words, words, ds.n)

    save_table(
        "F20-BIT", "bit-packed boolean closure vs unpacked Warshall",
        format_table(rows), rows=rows,
    )


def test_engine_agreement(benchmark):
    rows = benchmark.pedantic(engine_agreement, rounds=1, iterations=1)
    assert all(r["agree"] for r in rows), rows
    engines = {r["engine"] for r in rows}
    assert engines == {"bitpack", "ssc1", "ssc2", "ssc12"}
    save_table(
        "DS-AGREE", "closure-engine agreement on Kronecker graphs",
        format_table(rows), rows=rows,
    )
