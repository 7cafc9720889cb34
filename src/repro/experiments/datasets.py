"""Sparse-dataset experiments: bit-packing speedup and engine agreement.

The paper's experiments stop at dense matrices an FPDG can be built for;
these tables measure the host-level closure engines of
:mod:`repro.datasets` on generated sparse workloads.

``F20-BIT`` is the headline scaling table: reflexive boolean closure of
seeded Kronecker graphs via the unpacked Warshall oracle
(:func:`repro.core.semiring.closure_reference` over ``BOOLEAN``) versus
the bit-packed kernel (:func:`repro.core.bitmatrix.closure_words`), with
bit-for-bit agreement checked per row.  Its check gates on
``speedup >= 5`` for every ``n >= 1024`` row (the CI ``backend`` job
runs ``repro reproduce F20-BIT``).
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..core.bitmatrix import closure_words, pack_rows
from ..core.semiring import BOOLEAN, closure_reference
from ..datasets import compute_closure, kronecker
from .runner import require

__all__ = [
    "bitpack_speedup", "check_bitpack", "engine_agreement", "check_agreement",
]

#: Kronecker scales for the default F20-BIT sweep: n = 256, 1024, 2048.
DEFAULT_SCALES: tuple[int, ...] = (8, 10, 11)

#: F20-BIT's gate: minimum packed-over-unpacked speedup at n >= GATE_N.
GATE_N = 1024
GATE_SPEEDUP = 5.0


def _best_of(fn, repeats: int) -> tuple[float, object]:
    """Minimum wall time over ``repeats`` calls (and the last result)."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def bitpack_speedup(
    scales: Sequence[int] = DEFAULT_SCALES,
    edge_factor: int = 8,
    seed: int = 0,
    repeats: int = 2,
) -> list[dict]:
    """F20-BIT rows: unpacked vs bit-packed reflexive closure per size.

    The timed bit-packed path includes the pack step (its real cost when
    starting from a dense matrix); agreement is checked on the packed
    words, so a row with ``agree=False`` would flag a kernel bug, not a
    tolerance issue.
    """
    rows = []
    for scale in scales:
        ds = kronecker(scale, edge_factor, seed=seed)
        a = ds.adjacency(diagonal=True)
        t_ref, ref = _best_of(lambda: closure_reference(a, BOOLEAN), repeats)
        t_bit, packed = _best_of(
            lambda: closure_words(pack_rows(a), ds.n), repeats
        )
        rows.append(
            {
                "dataset": ds.name,
                "n": ds.n,
                "m": ds.m,
                "t_unpacked_s": round(t_ref, 6),
                "t_bitpack_s": round(t_bit, 6),
                "speedup": round(t_ref / t_bit, 2) if t_bit else float("inf"),
                "agree": bool(np.array_equal(pack_rows(ref), packed)),
            }
        )
    return rows


def check_bitpack(rows: list[dict]) -> None:
    """F20-BIT: packed rows agree with Warshall; >= 5x at n >= 1024."""
    require(all(r["agree"] for r in rows), "packed closure agrees with Warshall")
    gated = [r for r in rows if r["n"] >= GATE_N]
    require(gated, f"the sweep includes a size n >= {GATE_N}")
    for r in gated:
        require(r["speedup"] >= GATE_SPEEDUP,
                f"speedup >= {GATE_SPEEDUP:g} at n >= {GATE_N}")


def engine_agreement(
    scale: int = 7, edge_factor: int = 8, seeds: Sequence[int] = (0, 1)
) -> list[dict]:
    """Every closure engine against the dense reference, per seed.

    Small graphs (default n=128) so the dense oracle stays cheap; the
    scale-size agreement story is carried by ``repro bench --dataset``
    and the CI dataset smoke.
    """
    rows = []
    for seed in seeds:
        ds = kronecker(scale, edge_factor, seed=seed)
        oracle = compute_closure(ds, "reference")
        for engine in ("bitpack", "ssc1", "ssc2", "ssc12"):
            t0 = time.perf_counter()
            res = compute_closure(ds, engine)
            rows.append(
                {
                    "dataset": ds.name,
                    "n": ds.n,
                    "m": ds.m,
                    "engine": engine,
                    "kernel": res.kernel,
                    "wall_s": round(time.perf_counter() - t0, 6),
                    "closure_edges": res.closure_edges,
                    "agree": res.agrees_with(oracle),
                }
            )
    return rows


def check_agreement(rows: list[dict]) -> None:
    """DS-AGREE: bitpack, SSC1, SSC2 and SSC12 all agree with the oracle."""
    require(all(r["agree"] for r in rows), "every engine agrees with the reference")
    require({r["engine"] for r in rows} == {"bitpack", "ssc1", "ssc2", "ssc12"},
            "engines == {bitpack, ssc1, ssc2, ssc12}")
