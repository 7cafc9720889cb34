"""The experiment registry: every figure/table as an importable entry.

Each experiment builds the rows of one reproduction table (see DESIGN.md's
index and EXPERIMENTS.md for paper-vs-measured), checks the paper's
claims on them, renders them, and names the deterministic measures
``perfcheck`` gates.  ``python -m repro reproduce`` is the one runner:
it builds, checks, prints and (with ``--record``) records every table.

    >>> from repro.experiments import EXPERIMENTS
    >>> exp = EXPERIMENTS["F18"]
    >>> rows = exp.build()                       # doctest: +SKIP
    >>> exp.check(rows)                          # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from ..viz import format_table
from . import ablations, arrays, datasets, pipeline, schemes, tradeoffs

__all__ = ["Experiment", "EXPERIMENTS"]


def _no_measures(rows: list[dict]) -> dict[str, float]:
    return {}


@dataclass(frozen=True)
class Experiment:
    """One reproducible experiment.

    ``build()`` makes the table rows; ``check(rows)`` raises
    :class:`~repro.experiments.runner.ExperimentCheckFailed` when a claim
    does not hold; ``measures(rows)`` are the gated perf metrics of its
    history record; ``render(rows)`` is the table body.
    """

    exp_id: str
    title: str
    build: Callable[[], list[dict]]
    check: Callable[[list[dict]], None]
    measures: Callable[[list[dict]], dict[str, float]] = _no_measures
    render: Callable[[list[dict]], str] = format_table


def _registry() -> dict[str, Experiment]:
    vec = arrays.backend_timing
    entries = [
        Experiment("F01", "coalescing (LSGP) per-cell storage vs cut-and-pile (LPGS)",
                   schemes.coalescing_storage, schemes.check_coalescing),
        Experiment("F02", "cut-and-pile (LPGS) execution census",
                   schemes.cut_and_pile_census, schemes.check_cut_and_pile),
        Experiment("F03", "band decomposition of dense matmul",
                   schemes.band_decomposition, schemes.check_bands),
        Experiment("F04", "broadcast removal: max fan-out O(n) -> 1",
                   pipeline.transform_census, pipeline.check_transforms),
        Experiment("F05", "grouping alternatives (Fig. 6)",
                   pipeline.grouping_census, pipeline.check_groupings),
        Experiment("F07", "G-set selection: per-set uniformity suffices",
                   pipeline.gset_census, pipeline.check_gsets),
        Experiment("F10-F11", "FPDG size and superfluous-node pruning",
                   pipeline.count_census, pipeline.check_counts),
        Experiment("F12-F16", "transformation pipeline property census",
                   pipeline.stage_census, pipeline.check_stages),
        Experiment("F17", "fixed-size arrays: ours vs Kung [23]; linear collapse",
                   arrays.fixed_array_census, arrays.check_fixed_arrays),
        Experiment("F18", "linear partitioned array: measured vs Sec. 4.2 formulas",
                   arrays.linear_sweep, arrays.check_linear,
                   measures=arrays.linear_measures),
        Experiment("F18-VEC",
                   "linear array at n=24: reference interpreter vs vector replay",
                   partial(vec, configs=((24, 4, "linear"),)),
                   arrays.check_warm_speedup),
        Experiment("F19", "2-D partitioned array: measured vs Sec. 4.2",
                   arrays.mesh_sweep, arrays.check_mesh),
        Experiment("F19-VEC",
                   "4x4 mesh at n=24: reference interpreter vs vector replay",
                   partial(vec, configs=((24, 16, "mesh"),)),
                   arrays.check_warm_speedup),
        Experiment("F20", "G-set scheduling policies (all legal, zero stalls)",
                   arrays.schedule_census, arrays.check_schedules,
                   render=arrays.render_schedules),
        Experiment("F20-BIT", "bit-packed boolean closure vs unpacked Warshall",
                   datasets.bitpack_speedup, datasets.check_bitpack),
        Experiment("DS-AGREE", "closure-engine agreement on Kronecker graphs",
                   datasets.engine_agreement, datasets.check_agreement),
        Experiment("F21", "host bandwidth m/n with the R-block chain",
                   arrays.io_census, arrays.check_io,
                   measures=arrays.io_measures),
        Experiment("F22", "varying G-node times: mixing loss (linear 0 vs mesh > 0)",
                   tradeoffs.varying_time_census, tradeoffs.check_varying_time),
        Experiment("T-EVAL", "Sec. 4.2 trade-off table, linear vs mesh",
                   tradeoffs.tradeoff_sweep, tradeoffs.check_tradeoffs),
        Experiment("T-BASE", "vs Núñez-Torralba block partitioning (same cell count)",
                   tradeoffs.baseline_sweep, tradeoffs.check_baseline),
        Experiment("T-FT", "throughput retention under cell failures",
                   tradeoffs.fault_sweep, tradeoffs.check_faults),
        Experiment("A-POL",
                   "schedule-policy ablation: host bandwidth vs memory capacity",
                   ablations.policy_ablation, ablations.check_policies),
        Experiment("A-GRP", "G-node granularity ablation (Fig. 9 trade-off)",
                   ablations.grouping_ablation, ablations.check_granularity),
        Experiment("A-ALN", "aligned vs packed linear blocks",
                   ablations.alignment_ablation, ablations.check_alignment),
        Experiment("A-CHAIN", "fixed array: k chained instances, makespan slope = n",
                   ablations.chained_census, ablations.check_chained,
                   measures=ablations.chained_measures),
        Experiment("A-EXT", "one array, three path problems (semiring swap)",
                   ablations.semiring_sweep, ablations.check_semirings),
        Experiment("A-COST", "structural cost per design",
                   ablations.cost_census, ablations.check_costs),
        Experiment("A-HYB", "hybrid cut-and-pile + coalescing spectrum",
                   ablations.hybrid_census, ablations.check_hybrid),
        Experiment("A-PERF", "software-oracle vectorization (guide-driven)",
                   ablations.compare_references, ablations.check_references),
    ]
    return {e.exp_id: e for e in entries}


EXPERIMENTS: dict[str, Experiment] = _registry()
