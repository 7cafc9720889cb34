"""Experiments F17-F21: the derived arrays, measured by simulation.

Simulations go through :func:`repro.arrays.vector_sim.dispatch_simulate`,
so the process-wide backend default applies — ``repro reproduce
--backend vector`` (or ``REPRO_SIM_BACKEND=vector``) runs these sweeps
on the compiled batched backend with bit-identical rows.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

from ..algorithms.transitive_closure import make_inputs, tc_regular
from ..algorithms.warshall import random_adjacency, warshall
from ..baselines.kung_fixed import run_kung_fixed
from ..core.ggraph import GGraph, group_by_columns
from ..core.gsets import (
    SCHEDULE_POLICIES,
    make_linear_gsets,
    make_mesh_gsets,
    schedule_gsets,
    verify_schedule,
)
from ..core.metrics import (
    evaluate_schedule,
    tc_linear_throughput,
    tc_mesh_throughput,
    tc_utilization,
)
from ..arrays.host import simulate_rblock_chain
from ..arrays.plan import (
    fixed_array_plan,
    fixed_linear_plan,
    min_initiation_interval,
    partitioned_plan,
)
from ..arrays.vector_sim import dispatch_simulate as simulate
from ..viz import format_table, render_schedule
from .runner import require

__all__ = [
    "F18_CONFIGS",
    "F19_CONFIGS",
    "fixed_array_census",
    "check_fixed_arrays",
    "linear_sweep",
    "check_linear",
    "linear_measures",
    "mesh_sweep",
    "check_mesh",
    "schedule_census",
    "check_schedules",
    "render_schedules",
    "io_census",
    "check_io",
    "io_measures",
    "backend_timing",
    "check_warm_speedup",
]

#: The shipped ``(n, m)`` sweep points of F18 (linear) and F19 (mesh);
#: hoisted so ``repro profile`` can rebuild the same plans for
#: critical-path attribution.
F18_CONFIGS: tuple[tuple[int, int], ...] = (
    (9, 5), (11, 4), (11, 6), (14, 3), (14, 5), (15, 4),
)
F19_CONFIGS: tuple[tuple[int, int], ...] = (
    (10, 4), (12, 4), (12, 9), (15, 9),
)


def fixed_array_census(ns=(5, 8, 11)) -> list[dict]:
    """F17: the fixed-size arrays versus Kung's load/reuse array."""
    rows = []
    for n in ns:
        dg = tc_regular(n)
        gg = GGraph(dg, group_by_columns)
        a = random_adjacency(n, 0.35, seed=n)
        ref = warshall(a)

        ep = fixed_array_plan(gg)
        res = simulate(ep, dg, make_inputs(a))
        ii = min_initiation_interval(ep)

        epl = fixed_linear_plan(gg)
        resl = simulate(epl, dg, make_inputs(a))
        iil = min_initiation_interval(epl)

        kung = run_kung_fixed(a)
        rows.append(
            {
                "n": n,
                "gnodes": len(gg),
                "ours_II": ii,
                "ours_mem_words": res.memory_words,
                "ours_ok": bool(np.array_equal(res.output_matrix(n), ref)),
                "kung_II": int(1 / kung.throughput),
                "kung_load_ovh": kung.overhead,
                "kung_ok": bool(np.array_equal(kung.result, ref)),
                "linear_II": iil,
                "n(n+1)": n * (n + 1),
                "linear_ok": bool(np.array_equal(resl.output_matrix(n), ref)),
            }
        )
    return rows


def check_fixed_arrays(rows: list[dict]) -> None:
    """F17: ours at throughput 1/n with no parking; Kung's at half speed;
    the linear collapse at 1/(n(n+1)); all three correct."""
    for r in rows:
        require(r["ours_ok"] and r["kung_ok"] and r["linear_ok"],
                "every fixed array computes the closure")
        require(r["ours_II"] == r["n"], "ours_II == n")
        require(r["kung_II"] == 2 * r["n"], "kung_II == 2n")
        require(r["ours_mem_words"] == 0, "ours_mem_words == 0")
        require(r["linear_II"] == r["n(n+1)"], "linear_II == n(n+1)")


def linear_sweep(configs=F18_CONFIGS) -> list[dict]:
    """F18: the linear partitioned array, cycle-measured vs Sec. 4.2."""
    rows = []
    for n, m in configs:
        dg = tc_regular(n)
        gg = GGraph(dg, group_by_columns)
        plan = make_linear_gsets(gg, m, aligned=False)
        order = schedule_gsets(plan, "vertical")
        rep = evaluate_schedule(plan, order)
        ep = partitioned_plan(plan, order)
        a = random_adjacency(n, 0.35, seed=n + m)
        res = simulate(ep, dg, make_inputs(a))
        rows.append(
            {
                "n": n,
                "m": m,
                "T_measured": float(rep.throughput),
                "T_paper": float(tc_linear_throughput(n, m)),
                "U_measured": float(rep.utilization),
                "U_paper": float(tc_utilization(n)),
                "stalls": ep.stall_cycles,
                "mem_ports": rep.memory_connections,
                "closure_ok": bool(np.array_equal(res.output_matrix(n), warshall(a))),
                "violations": len(res.violations),
            }
        )
    return rows


def check_linear(rows: list[dict]) -> None:
    """F18: exact Sec. 4.2 T and U when m | n+1; zero stalls; m+1 ports."""
    for r in rows:
        require(r["closure_ok"] and r["violations"] == 0,
                "closure_ok and violations == 0")
        require(r["stalls"] == 0, "stalls == 0")
        require(r["mem_ports"] == r["m"] + 1, "mem_ports == m + 1")
        if (r["n"] + 1) % r["m"] == 0:  # paper's divisibility assumption
            require(r["T_measured"] == r["T_paper"], "T_measured == T_paper when m | n+1")
            require(abs(r["U_measured"] - r["U_paper"]) < 1e-12,
                    "U_measured == U_paper when m | n+1")


def linear_measures(rows: list[dict]) -> dict[str, float]:
    """F18's gated measures."""
    return {
        "stall_cycles_total": sum(r["stalls"] for r in rows),
        "violations_total": sum(r["violations"] for r in rows),
    }


def mesh_sweep(configs=F19_CONFIGS) -> list[dict]:
    """F19: the two-dimensional partitioned array vs Sec. 4.2."""
    rows = []
    for n, m in configs:
        dg = tc_regular(n)
        gg = GGraph(dg, group_by_columns)
        plan = make_mesh_gsets(gg, m)
        order = schedule_gsets(plan, "vertical")
        rep = evaluate_schedule(plan, order)
        ep = partitioned_plan(plan, order)
        a = random_adjacency(n, 0.35, seed=n * m)
        res = simulate(ep, dg, make_inputs(a))
        side = int(m**0.5)
        rows.append(
            {
                "n": n,
                "m": m,
                "shape": f"{side}x{side}",
                "T_measured": float(rep.throughput),
                "T_paper": float(tc_mesh_throughput(n, m)),
                "T_ratio": float(rep.throughput / tc_mesh_throughput(n, m)),
                "boundary_sets": rep.boundary_gsets,
                "stalls": ep.stall_cycles,
                "mem_ports": rep.memory_connections,
                "closure_ok": bool(np.array_equal(res.output_matrix(n), warshall(a))),
            }
        )
    return rows


def check_mesh(rows: list[dict]) -> None:
    """F19: 2 sqrt(m) memory ports, zero stalls, correct closures, and the
    linear throughput class up to Fig. 19a's boundary sets."""
    for r in rows:
        require(r["closure_ok"], "closure_ok")
        require(r["stalls"] == 0, "stalls == 0")
        require(r["mem_ports"] == 2 * int(r["m"] ** 0.5), "mem_ports == 2 sqrt(m)")
        require(0.6 < r["T_ratio"] <= 1.0, "0.6 < T_ratio <= 1")
        require(r["boundary_sets"] > 0, "boundary_sets > 0")


def schedule_census(n: int = 12, m: int = 4) -> list[dict]:
    """F20: every policy is legal, pipelined and stall-free."""
    dg = tc_regular(n)
    gg = GGraph(dg, group_by_columns)
    plan = make_linear_gsets(gg, m)
    rows = []
    for policy in sorted(SCHEDULE_POLICIES):
        order = schedule_gsets(plan, policy)
        verify_schedule(plan, order)
        ep = partitioned_plan(plan, order)
        res = simulate(ep, dg, make_inputs(random_adjacency(n, seed=1)))
        rows.append(
            {
                "policy": policy,
                "gsets": len(order),
                "makespan": ep.makespan,
                "stalls": ep.stall_cycles,
                "violations": len(res.violations),
                "first_sets": " ".join(str(s.sid) for s in order[:4]),
            }
        )
    return rows


def check_schedules(rows: list[dict], n: int = 12) -> None:
    """F20: every policy legal and stall-free; ASAP times rise along
    G-rows and G-columns as Fig. 20 draws them."""
    for r in rows:
        require(r["violations"] == 0 and r["stalls"] == 0,
                "violations == 0 and stalls == 0")
    asap = GGraph(tc_regular(n), group_by_columns).asap_times()
    for (k, c), t in asap.items():
        if (k, c + 1) in asap:
            require(asap[(k, c + 1)] > t, "ASAP rises along a G-row")
        if (k + 1, c - 1) in asap:
            require(asap[(k + 1, c - 1)] > t, "ASAP rises along a G-column")


def render_schedules(rows: list[dict], n: int = 12, m: int = 4) -> str:
    """F20's table plus the first 24 G-sets of the vertical-path order."""
    plan = make_linear_gsets(GGraph(tc_regular(n), group_by_columns), m)
    vertical = schedule_gsets(plan, "vertical")
    return (format_table(rows) + "\n\nvertical-path order:\n"
            + render_schedule(vertical[:24]))


def backend_timing(
    configs=((24, 4, "linear"), (24, 16, "mesh")), replays: int = 3
) -> list[dict]:
    """Reference-vs-vector wall time at paper-exceeding sizes.

    Builds each partitioned plan once, runs ``replays`` simulations on
    the reference interpreter and on the vector backend (one untimed
    warm-up replay pays the compile, after which every run is a cached
    replay — the deployment profile of ``verify_implementation`` and
    the campaigns), and reports the per-run wall times, the one-off
    compile cost, and a bit-identity check of the closure.

    Three ratios come from the same times: ``warm_speedup`` (cached
    replay vs. interpreter), ``cold_speedup`` (one run that pays the
    compile, ``ref / (compile + vector)``) and ``break_even_replays``
    (``compile / (ref - vector)``, how many runs the compile takes to
    pay for itself; ``inf`` when a replay is no faster).
    """
    from ..arrays.cycle_sim import simulate as reference_simulate
    from ..arrays.vector_sim import simulate_vector
    from ..arrays.vector_compile import get_compiled
    from ..core.semiring import BOOLEAN

    rows = []
    for n, m, geometry in configs:
        dg = tc_regular(n)
        gg = GGraph(dg, group_by_columns)
        if geometry == "linear":
            plan = make_linear_gsets(gg, m, aligned=True)
        else:
            plan = make_mesh_gsets(gg, m)
        order = schedule_gsets(plan, "vertical")
        ep = partitioned_plan(plan, order)
        a = random_adjacency(n, 0.35, seed=n + m)
        inputs = make_inputs(a)

        t0 = time.perf_counter()
        compiled = get_compiled(ep, dg, BOOLEAN)
        wall_compile = time.perf_counter() - t0

        t0 = time.perf_counter()
        for _ in range(replays):
            ref = reference_simulate(ep, dg, inputs)
        wall_ref = (time.perf_counter() - t0) / replays

        simulate_vector(ep, dg, inputs)  # warm-up: cache is hot after this
        t0 = time.perf_counter()
        for _ in range(replays):
            vec = simulate_vector(ep, dg, inputs)
        wall_vec = (time.perf_counter() - t0) / replays

        rows.append(
            {
                "n": n,
                "m": m,
                "geometry": geometry,
                "fires": len(ep.fires),
                "steps": len(compiled.steps),
                "wall_reference_s": round(wall_ref, 6),
                "wall_vector_s": round(wall_vec, 6),
                "wall_compile_s": round(wall_compile, 6),
                "warm_speedup": (
                    round(wall_ref / wall_vec, 2) if wall_vec else 0.0
                ),
                "cold_speedup": round(wall_ref / (wall_compile + wall_vec), 2),
                "break_even_replays": (
                    round(wall_compile / (wall_ref - wall_vec), 2)
                    if wall_ref > wall_vec else float("inf")
                ),
                "identical": bool(
                    np.array_equal(ref.output_matrix(n), vec.output_matrix(n))
                    and ref.makespan == vec.makespan
                    and ref.memory_words == vec.memory_words
                    and ref.violations == vec.violations
                ),
            }
        )
    return rows


def check_warm_speedup(rows: list[dict]) -> None:
    """F18-VEC / F19-VEC: a cached vector replay is bit-identical to the
    reference interpreter and at least 5x faster."""
    for r in rows:
        require(r["identical"], "vector replay identical to the reference")
        require(r["warm_speedup"] >= 5.0, "warm_speedup >= 5")


def io_census(configs=((12, 3), (12, 4), (16, 4), (20, 4))) -> list[dict]:
    """F21: host bandwidth and R-block chain feasibility at m/n."""
    rows = []
    for n, m in configs:
        dg = tc_regular(n)
        gg = GGraph(dg, group_by_columns)
        plan = make_linear_gsets(gg, m, aligned=True)
        order = schedule_gsets(plan, "vertical")
        ep = partitioned_plan(plan, order)
        res = simulate(ep, dg, make_inputs(random_adjacency(n, seed=n)))
        slow = simulate_rblock_chain(res, Fraction(m, n))
        full = simulate_rblock_chain(res, 1)
        rows.append(
            {
                "n": n,
                "m": m,
                "words": len(res.input_deadlines),
                "avg_D_IO": float(res.average_host_bandwidth()),
                "paper_m/n": m / n,
                "chain@m/n_ok": slow.feasible,
                "preload_words": slow.preload_words,
                "max_R_memory": slow.max_r_memory,
                "chain@1_Rmem": full.max_r_memory,
            }
        )
    return rows


def check_io(rows: list[dict]) -> None:
    """F21: a host at m/n words/cycle feeds the R-block chain; demand is
    at most m/n and more than half of it."""
    for r in rows:
        require(r["chain@m/n_ok"], "the chain meets every deadline at m/n")
        require(r["avg_D_IO"] <= r["paper_m/n"], "avg_D_IO <= m/n")
        require(r["avg_D_IO"] > 0.5 * r["paper_m/n"], "avg_D_IO > m/(2n)")
        require(r["words"] == r["n"] ** 2, "words == n^2")


def io_measures(rows: list[dict]) -> dict[str, float]:
    """F21's gated measures."""
    return {
        "input_words_total": sum(r["words"] for r in rows),
        "max_avg_d_io": max(r["avg_D_IO"] for r in rows),
        "max_r_memory_words": max(r["max_R_memory"] for r in rows),
    }
