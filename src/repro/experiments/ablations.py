"""Experiments A-*: ablations and extensions beyond the paper."""

from __future__ import annotations

import time

import numpy as np

from ..algorithms.transitive_closure import make_inputs, tc_regular
from ..algorithms.warshall import (
    floyd_warshall_reference,
    random_adjacency,
    warshall,
    warshall_vectorized,
)
from ..core.ggraph import GGraph, group_by_blocks, group_by_columns
from ..core.gsets import (
    SCHEDULE_POLICIES,
    make_linear_gsets,
    make_mesh_gsets,
    schedule_gsets,
    verify_schedule,
)
from ..core.metrics import evaluate_schedule, schedule_memory_traffic
from ..core.schedopt import memory_highwater, schedule_gsets_memory_aware
from ..core.semiring import BOOLEAN, COUNTING, MAX_MIN, MIN_PLUS, closure_reference
from ..arrays.cost import fixed_array_cost, partitioned_array_cost
from ..arrays.cycle_sim import simulate
from ..arrays.pipeline import run_chained_instances
from ..arrays.plan import fixed_array_plan, min_initiation_interval, partitioned_plan
from .runner import require

__all__ = [
    "policy_ablation",
    "check_policies",
    "grouping_ablation",
    "check_granularity",
    "alignment_ablation",
    "check_alignment",
    "chained_census",
    "check_chained",
    "chained_measures",
    "semiring_sweep",
    "check_semirings",
    "cost_census",
    "check_costs",
    "hybrid_census",
    "check_hybrid",
    "compare_references",
    "check_references",
]


def policy_ablation(n: int = 16, m: int = 4) -> list[dict]:
    """A-POL: host bandwidth vs memory high-water across issue orders."""
    dg = tc_regular(n)
    gg = GGraph(dg, group_by_columns)
    plan = make_linear_gsets(gg, m, aligned=True)
    env = make_inputs(random_adjacency(n, seed=0))
    orders = {
        policy: schedule_gsets(plan, policy) for policy in sorted(SCHEDULE_POLICIES)
    }
    orders["memory-aware"] = schedule_gsets_memory_aware(plan)
    rows = []
    for policy, order in orders.items():
        verify_schedule(plan, order)
        ep = partitioned_plan(plan, order)
        res = simulate(ep, dg, env)
        rows.append(
            {
                "policy": policy,
                "makespan": res.makespan,
                "stalls": ep.stall_cycles,
                "req_hostBW(preload=nm)": float(
                    res.required_host_bandwidth(preload=n * m)
                ),
                "mem_highwater": memory_highwater(plan, order),
                "violations": len(res.violations),
            }
        )
    return rows


def check_policies(rows: list[dict], m: int = 4) -> None:
    """A-POL: equal makespans (within m), legal stall-free orders;
    vertical wins host bandwidth by > 2x over horizontal but pays > 2x
    the wavefront memory high-water; memory-aware stays near it."""
    by = {r["policy"]: r for r in rows}
    bw = "req_hostBW(preload=nm)"
    require(max(r["makespan"] for r in rows) - min(r["makespan"] for r in rows) <= m,
            "makespans within m of each other")
    require(all(r["violations"] == 0 and r["stalls"] == 0 for r in rows),
            "violations == 0 and stalls == 0")
    require(by["vertical"][bw] <= by["wavefront"][bw] <= by["horizontal"][bw],
            "host bandwidth: vertical <= wavefront <= horizontal")
    require(by["horizontal"][bw] > 2 * by["vertical"][bw],
            "horizontal host bandwidth > 2x vertical")
    require(by["vertical"]["mem_highwater"] > 2 * by["wavefront"]["mem_highwater"],
            "vertical mem_highwater > 2x wavefront")
    require(by["memory-aware"]["mem_highwater"]
            <= 1.2 * by["wavefront"]["mem_highwater"],
            "memory-aware mem_highwater <= 1.2x wavefront")


def grouping_ablation(n: int = 12, m: int = 4) -> list[dict]:
    """A-GRP: granularity trade (Fig. 9), fine -> coarse ordering."""
    dg = tc_regular(n)
    variants = [(f"blocks {br}x{br}", group_by_blocks(br, br, n)) for br in (2, 3, 6)]
    variants.insert(2, ("columns (paper)", group_by_columns))
    rows = []
    for name, assign in variants:
        gg = GGraph(dg, assign)
        plan = make_linear_gsets(gg, m)
        order = schedule_gsets(plan)
        rep = evaluate_schedule(plan, order)
        rows.append(
            {
                "grouping": name,
                "gnodes": len(gg),
                "gnodes/cell": round(len(gg) / m, 1),
                "max_gnode_time": max(gn.comp_time for gn in gg.gnodes.values()),
                "mem_words": schedule_memory_traffic(plan, order),
                "total_time": rep.total_time,
                "occupancy": float(rep.occupancy),
            }
        )
    return rows


def check_granularity(rows: list[dict]) -> None:
    """A-GRP: coarser G-nodes cut G-node count and memory traffic; the
    paper's column grouping has the least total time."""
    gnodes = [r["gnodes"] for r in rows]
    mems = [r["mem_words"] for r in rows]
    require(gnodes == sorted(gnodes, reverse=True), "gnodes fall fine -> coarse")
    require(mems == sorted(mems, reverse=True), "mem_words fall fine -> coarse")
    require(rows[-1]["gnodes/cell"] < rows[0]["gnodes/cell"],
            "coarsest gnodes/cell < finest")
    columns = next(r for r in rows if "paper" in r["grouping"])
    require(columns["total_time"] == min(r["total_time"] for r in rows),
            "the column grouping has the least total_time")


def alignment_ablation(configs=((11, 4), (15, 4), (19, 4))) -> list[dict]:
    """A-ALN: the paper's skew-aligned blocks vs packed blocks."""
    rows = []
    for n, m in configs:
        dg = tc_regular(n)
        gg = GGraph(dg, group_by_columns)
        env = make_inputs(random_adjacency(n, seed=1))
        for aligned in (True, False):
            plan = make_linear_gsets(gg, m, aligned=aligned)
            order = schedule_gsets(plan, "vertical")
            rep = evaluate_schedule(plan, order)
            ep = partitioned_plan(plan, order)
            res = simulate(ep, dg, env)
            rows.append(
                {
                    "n": n,
                    "m": m,
                    "blocks": "aligned" if aligned else "packed",
                    "total_time": rep.total_time,
                    "U": float(rep.utilization),
                    "boundary_sets": rep.boundary_gsets,
                    "req_hostBW": float(res.required_host_bandwidth(preload=n * m)),
                    "paper_m/n": round(m / n, 3),
                }
            )
    return rows


def check_alignment(rows: list[dict]) -> None:
    """A-ALN: packed blocks hit n^2(n+1)/m and win time; aligned blocks
    win host bandwidth; the utilization gap closes with growing n."""
    pairs: dict[tuple[int, int], dict[str, dict]] = {}
    for r in rows:
        pairs.setdefault((r["n"], r["m"]), {})[r["blocks"]] = r
    for (n, m), pair in pairs.items():
        aligned, packed = pair["aligned"], pair["packed"]
        require(packed["total_time"] == n * n * (n + 1) // m,
                "packed total_time == n^2(n+1)/m")
        require(packed["total_time"] <= aligned["total_time"],
                "packed total_time <= aligned")
        require(aligned["req_hostBW"] < packed["req_hostBW"],
                "aligned req_hostBW < packed")
    gaps = [pairs[key]["aligned"]["U"] / pairs[key]["packed"]["U"]
            for key in sorted(pairs)]
    require(gaps == sorted(gaps), "aligned/packed U rises with n")


def chained_census(n: int = 8, ks=(1, 2, 4, 6)) -> list[dict]:
    """A-CHAIN: k overlapped instances on the fixed array."""
    dg = tc_regular(n)
    gg = GGraph(dg, group_by_columns)
    ep = fixed_array_plan(gg)
    delta = min_initiation_interval(ep)
    base_makespan = ep.makespan
    rows = []
    for k in ks:
        mats = [random_adjacency(n, 0.3, seed=s) for s in range(k)]
        run = run_chained_instances(dg, ep, [make_inputs(a) for a in mats], delta)
        correct = all(
            np.array_equal(run.output_matrix(i, n), warshall(mats[i]))
            for i in range(k)
        )
        rows.append(
            {
                "n": n,
                "instances": k,
                "delta": delta,
                "makespan": run.result.makespan,
                "expected": base_makespan + (k - 1) * delta,
                "violations": len(run.result.violations),
                "all_correct": correct,
                "occupancy": float(run.result.occupancy),
            }
        )
    return rows


def check_chained(rows: list[dict]) -> None:
    """A-CHAIN: every instance correct, no double-booking, makespan slope
    exactly n; occupancy rises with the instance count."""
    for r in rows:
        require(r["all_correct"] and r["violations"] == 0,
                "all_correct and violations == 0")
        require(r["makespan"] == r["expected"], "makespan == expected (slope n)")
    occs = [r["occupancy"] for r in rows]
    require(occs == sorted(occs), "occupancy rises with instances")


def chained_measures(rows: list[dict]) -> dict[str, float]:
    """A-CHAIN's gated measures, at the most instances."""
    return {
        "chained_makespan_cycles": rows[-1]["makespan"],
        "initiation_interval_cycles": rows[-1]["delta"],
    }


def semiring_sweep(n: int = 10, m: int = 4) -> list[dict]:
    """A-EXT: one array design, a family of path problems."""
    rng = np.random.default_rng(17)
    dg = tc_regular(n)
    gg = GGraph(dg, group_by_columns)
    plan = make_linear_gsets(gg, m)
    ep = partitioned_plan(plan, schedule_gsets(plan))
    rows = []
    cases = [
        ("reachability", BOOLEAN, random_adjacency(n, 0.3, seed=1), warshall),
        (
            "shortest paths",
            MIN_PLUS,
            np.where(rng.random((n, n)) < 0.4,
                     rng.integers(1, 9, (n, n)).astype(float), np.inf),
            floyd_warshall_reference,
        ),
        (
            "bottleneck paths",
            MAX_MIN,
            MAX_MIN.random_matrix(n, rng),
            lambda a: closure_reference(a, MAX_MIN),
        ),
    ]
    for name, sr, a, ref in cases:
        res = simulate(ep, dg, make_inputs(a, sr), sr)
        ok = bool(np.array_equal(res.output_matrix(n, sr), ref(a)))
        rows.append(
            {
                "problem": name,
                "semiring": sr.name,
                "pruning_sound": sr.supports_superfluous_pruning(),
                "correct": ok,
                "violations": len(res.violations),
            }
        )
    rows.append(
        {
            "problem": "path counting",
            "semiring": COUNTING.name,
            "pruning_sound": COUNTING.supports_superfluous_pruning(),
            "correct": "n/a (pruned graph invalid by design)",
            "violations": 0,
        }
    )
    return rows


def check_semirings(rows: list[dict]) -> None:
    """A-EXT: three semirings correct on one array; counting rejected."""
    for r in rows[:3]:
        require(r["correct"] is True, f"{r['problem']} correct")
        require(r["pruning_sound"], f"{r['problem']} pruning_sound")
        require(r["violations"] == 0, f"{r['problem']} violations == 0")
    require(rows[3]["pruning_sound"] is False, "counting is not pruning_sound")


def cost_census(n: int = 16, m: int = 4) -> list[dict]:
    """A-COST: structural resource counts per array design."""
    gg = GGraph(tc_regular(n), group_by_columns)
    lin_plan = make_linear_gsets(gg, m)
    mesh_plan = make_mesh_gsets(gg, m)
    designs = [
        partitioned_array_cost(lin_plan, schedule_gsets(lin_plan)),
        partitioned_array_cost(mesh_plan, schedule_gsets(mesh_plan)),
        fixed_array_cost(n, n + 1),
    ]
    return [c.row() for c in designs]


def check_costs(rows: list[dict], n: int = 16, m: int = 4) -> None:
    """A-COST: the fixed array needs n(n+1)/m times the cells; linear
    wiring is the sparsest; memory ports m+1 vs 2 sqrt(m) vs none."""
    lin, mesh, fixed = rows
    require(fixed["cells"] == n * (n + 1), "fixed cells == n(n+1)")
    require(fixed["cells"] / lin["cells"] == n * (n + 1) / m,
            "fixed / linear cells == n(n+1)/m")
    require(lin["links"] < mesh["links"] < fixed["links"],
            "links: linear < mesh < fixed")
    require(fixed["mem_ports"] == 0, "fixed mem_ports == 0")
    require(lin["mem_ports"] == m + 1 and mesh["mem_ports"] == 2 * int(m**0.5),
            "mem_ports: linear m+1, mesh 2 sqrt(m)")


def hybrid_census(n: int = 16, m: int = 4, piles_list=(1, 2, 4, 8)) -> list[dict]:
    """A-HYB: the LSGP <-> LPGS spectrum via hybrid partitioning.

    The paper's own conjecture measured: cut-and-pile first (piles), then
    coalescing within each pile — local storage falls with the pile count
    while external traffic rises toward pure cut-and-pile.
    """
    from ..partitioning.coalescing import coalesce_by_strips
    from ..partitioning.hybrid import hybrid_partition

    gg = GGraph(tc_regular(n), group_by_columns)
    rows = []
    pure = coalesce_by_strips(gg, m)
    rows.append(
        {
            "scheme": "pure coalescing (LSGP)",
            "piles": 1,
            "local_storage": pure.max_local_storage,
            "external_words": 0,
            "total_time": pure.total_time,
        }
    )
    for piles in piles_list:
        if piles == 1:
            continue
        h = hybrid_partition(gg, m, piles)
        rows.append(
            {
                "scheme": f"hybrid ({piles} piles)",
                "piles": piles,
                "local_storage": h.max_local_storage,
                "external_words": h.external_words,
                "total_time": h.total_time,
            }
        )
    plan = make_linear_gsets(gg, m)
    order = schedule_gsets(plan)
    rows.append(
        {
            "scheme": "pure cut-and-pile (LPGS)",
            "piles": len(gg.cols),
            "local_storage": 0,
            "external_words": schedule_memory_traffic(plan, order),
            "total_time": evaluate_schedule(plan, order).total_time,
        }
    )
    return rows


def check_hybrid(rows: list[dict]) -> None:
    """A-HYB: per-cell storage falls with the pile count down to pure
    LPGS while external traffic climbs from zero."""
    storages = [r["local_storage"] for r in rows]
    externals = [r["external_words"] for r in rows]
    require(storages == sorted(storages, reverse=True), "local_storage falls")
    require(storages[0] > 2 * storages[-2] > 0,
            "hybrid cuts LSGP storage by > 2x, not to 0")
    require(storages[-1] == 0, "pure LPGS local_storage == 0")
    require(externals == sorted(externals), "external_words rise")
    require(externals[0] == 0, "pure LSGP external_words == 0")


def compare_references(ns=(32, 64, 128)) -> list[dict]:
    """A-PERF: the scalar Warshall loop vs its rank-1-update vectorization.

    The software oracles check every array run, so their speed bounds
    the sizes the reproduction can sweep; ``warshall_vectorized``
    replaces the O(n^3) Python iterations with n numpy outer products.
    """
    rows = []
    for n in ns:
        a = random_adjacency(n, 0.3, seed=0)
        t0 = time.perf_counter()
        plain = warshall(a)
        t_plain = time.perf_counter() - t0
        t0 = time.perf_counter()
        vec = warshall_vectorized(a)
        t_vec = time.perf_counter() - t0
        require(np.array_equal(plain, vec), f"warshall == warshall_vectorized at n={n}")
        rows.append(
            {
                "n": n,
                "scalar_ms": round(t_plain * 1e3, 2),
                "vectorized_ms": round(t_vec * 1e3, 3),
                "speedup": round(t_plain / max(t_vec, 1e-9), 1),
            }
        )
    return rows


def check_references(rows: list[dict]) -> None:
    """A-PERF: the vectorized oracle wins by a wide, growing margin."""
    speedups = [r["speedup"] for r in rows]
    require(speedups[-1] > 10, "speedup > 10 at the largest n")
    require(speedups == sorted(speedups), "speedup grows with n")
