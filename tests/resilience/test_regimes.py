"""Failure regimes: deterministic plans, the escalation ladder, and the
graceful-degradation tier.

Covers the tentpole contracts:

* same seed => byte-identical :class:`FaultPlan` renderings and
  campaign run dicts, sequential vs ``--jobs 2``, reference vs vector;
* the issue's edge cases — a transient burst straddling a G-set
  boundary, a correlated cluster containing an entire mesh row, and a
  quarantine triggered on the final G-set;
* zero ``RecoveryExhausted`` escapes from seed-0 regime campaigns: every
  cell recovers on-array or completes via the host-side degradation
  tier with oracle-verified output.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.partitioner import partition_transitive_closure
from repro.resilience import (
    ADAPTIVE_POLICY,
    FaultKind,
    FaultSpec,
    RecoveryPolicy,
    REGIME_NAMES,
    BurstyRegime,
    CorrelatedRegime,
    HammerRegime,
    make_regime,
    run_campaign,
    run_resilient_closure,
)
from repro.resilience.campaign import build_design, campaign_config


@pytest.fixture(scope="module")
def linear_design():
    return build_design(campaign_config("linear-n9-m3"))


@pytest.fixture(scope="module")
def mesh_design():
    return build_design(campaign_config("mesh-n12-m9"))


# ----------------------------------------------------------------------
# Plan determinism and structure
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", REGIME_NAMES)
def test_plans_are_seed_deterministic(linear_design, name) -> None:
    regime = make_regime(name)
    one = regime.plan(linear_design, random.Random(f"0:linear-n9-m3:{name}"))
    two = regime.plan(linear_design, random.Random(f"0:linear-n9-m3:{name}"))
    assert one.to_dict() == two.to_dict()
    other = regime.plan(linear_design, random.Random(f"1:linear-n9-m3:{name}"))
    assert one.to_dict() != other.to_dict() or one.faults == other.faults


@pytest.mark.parametrize("name", REGIME_NAMES)
def test_plans_are_never_empty(linear_design, mesh_design, name) -> None:
    for design in (linear_design, mesh_design):
        plan = make_regime(name).plan(design, random.Random(f"7:{name}"))
        assert plan.faults
        assert plan.regime == name


def test_correlated_cluster_is_within_radius(mesh_design) -> None:
    regime = CorrelatedRegime(radius=1)
    plan = regime.plan(mesh_design, random.Random("0:corr"))
    cells = [f.cell for f in plan.faults]
    assert all(f.kind is FaultKind.PERMANENT for f in plan.faults)
    epicenter = next(
        c for c in cells
        if repr(c) == dict(plan.params)["epicenter"]
    )
    for (r, c) in cells:
        assert abs(r - epicenter[0]) + abs(c - epicenter[1]) <= 1


def test_correlated_cluster_covers_a_whole_mesh_row(mesh_design) -> None:
    """Edge case: with a big enough radius the cluster contains at least
    one entire 3-cell mesh row — the retirement unit of the mesh
    recovery path."""
    regime = CorrelatedRegime(radius=2)
    plan = regime.plan(mesh_design, random.Random("0:corr-row"))
    cells = {f.cell for f in plan.faults}
    rows = {r for (r, _c) in cells}
    full_rows = [
        r for r in rows if all((r, c) in cells for c in range(3))
    ]
    assert full_rows, f"no complete row in cluster {sorted(cells)}"


def test_bursty_walks_the_gilbert_elliott_chain(linear_design) -> None:
    regime = BurstyRegime(p_enter=1.0, p_exit=0.0, p_corrupt=1.0, max_faults=4)
    plan = regime.plan(linear_design, random.Random("0:burst"))
    assert len(plan.faults) == 4
    assert all(f.kind is FaultKind.TRANSIENT for f in plan.faults)


def test_hammer_targets_one_cell_across_distinct_gsets(linear_design) -> None:
    regime = HammerRegime(strikes=3)
    plan = regime.plan(linear_design, random.Random("0:hammer"))
    assert len(plan.faults) == 3
    fires = {
        nid: cell
        for nid, (cell, _t) in __import__(
            "repro.arrays.plan", fromlist=["partitioned_plan"]
        ).partitioned_plan(linear_design.plan, linear_design.order).fires.items()
    }
    struck = {fires[f.node] for f in plan.faults}
    assert len(struck) == 1, "hammer must stay on one physical cell"


def test_make_regime_rejects_unknown_names() -> None:
    with pytest.raises(KeyError, match="unknown failure regime"):
        make_regime("meteor")


def test_make_regime_filters_irrelevant_knobs() -> None:
    regime = make_regime("hammer", strikes=6, radius=3, p_enter=None)
    assert isinstance(regime, HammerRegime)
    assert regime.strikes == 6


def test_plan_specs_are_fresh_copies(linear_design) -> None:
    plan = make_regime("bursty").plan(linear_design, random.Random("s"))
    first = plan.specs()
    first[0].triggered = True
    assert not plan.faults[0].triggered
    assert not plan.specs()[0].triggered


# ----------------------------------------------------------------------
# Escalation ladder, degradation tier, provenance
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def impl():
    return partition_transitive_closure(n=9, m=3)


@pytest.fixture(scope="module")
def matrix():
    rng = np.random.default_rng(23)
    return (rng.random((9, 9)) < 0.4).astype(np.int64)


def _members_by_cell(impl, s) -> dict:
    by_cell: dict = {}
    for gid, cell in zip(s.gids, s.cells):
        by_cell.setdefault(cell, []).extend(impl.gg.gnodes[gid].members)
    return by_cell


def test_quarantine_escalates_before_budget_burns(impl, matrix) -> None:
    """Repeated transients on one cell: no single detection looks
    permanent, but the cumulative strike count trips the ladder — the
    cell is quarantined and re-partitioned around, not retried forever."""
    policy = RecoveryPolicy(
        max_retries=4, permanent_threshold=99, quarantine_strikes=2,
    )
    cell = 1
    specs = []
    for s in impl.order:
        by_cell = _members_by_cell(impl, s)
        if cell in by_cell and len(specs) < 2:
            specs.append(
                FaultSpec(kind=FaultKind.TRANSIENT, node=by_cell[cell][0])
            )
    assert len(specs) == 2
    result = run_resilient_closure(
        impl, matrix, faults=specs, policy=policy, record_metrics=False
    )
    assert result.recovered and result.oracle_ok
    assert len(result.escalations) == 1
    esc = result.escalations[0]
    assert esc.provenance == "escalated"
    assert esc.cell == cell
    assert ", escalated" in esc.describe()
    assert result.retired_cells == frozenset({cell})
    assert result.scoreboard[cell].state == "quarantined"
    assert result.scoreboard[cell].strikes == 2


def test_quarantine_on_final_gset(impl, matrix) -> None:
    """Edge case: the ladder trips on the very last G-set — the
    re-partition still lands before the outputs are read."""
    policy = RecoveryPolicy(permanent_threshold=99, quarantine_strikes=1)
    last = impl.order[-1]
    by_cell = _members_by_cell(impl, last)
    cell = sorted(by_cell, key=repr)[0]
    spec = FaultSpec(kind=FaultKind.TRANSIENT, node=by_cell[cell][0])
    result = run_resilient_closure(
        impl, matrix, faults=[spec], policy=policy, record_metrics=False
    )
    assert result.recovered and result.oracle_ok
    assert [d.sid for d in result.detections] == [last.sid]
    assert len(result.escalations) == 1
    assert result.escalations[0].cell == cell
    assert result.repartitions == 1


def test_burst_spanning_gset_boundary(impl, matrix) -> None:
    """Edge case: one burst corrupts firings in two consecutive G-sets —
    each set detects and retries independently, and both recover."""
    first, second = impl.order[0], impl.order[1]
    specs = [
        FaultSpec(
            kind=FaultKind.TRANSIENT,
            node=next(iter(_members_by_cell(impl, first).values()))[0],
        ),
        FaultSpec(
            kind=FaultKind.TRANSIENT,
            node=next(iter(_members_by_cell(impl, second).values()))[0],
        ),
    ]
    result = run_resilient_closure(
        impl, matrix, faults=specs, record_metrics=False
    )
    assert result.recovered and result.oracle_ok
    assert [d.sid for d in result.detections] == [first.sid, second.sid]
    assert result.retries == 2


def test_degradation_on_retry_exhaustion(impl, matrix) -> None:
    """With diagnosis disabled and the budget gone, ``degrade=True``
    retires the set to the host instead of raising RecoveryExhausted."""
    policy = RecoveryPolicy(
        max_retries=1, permanent_threshold=99, degrade=True,
    )
    spec = FaultSpec(kind=FaultKind.PERMANENT, cell=0, onset=0)
    result = run_resilient_closure(
        impl, matrix, faults=[spec], policy=policy, record_metrics=False
    )
    assert result.oracle_ok
    assert result.degraded
    assert result.degraded_nodes > 0
    assert any(ev.kind == "degrade" for ev in result.timeline)
    assert result.mttr_cycles is not None and result.mttr_cycles > 0


def test_host_only_mode_when_no_cells_survive(matrix) -> None:
    """A cluster killing every cell: the re-partition is impossible, the
    array is written off, and every remaining set completes host-side."""
    impl2 = partition_transitive_closure(n=6, m=2)
    a = (np.random.default_rng(5).random((6, 6)) < 0.4).astype(np.int64)
    specs = [
        FaultSpec(kind=FaultKind.PERMANENT, cell=0, onset=0),
        FaultSpec(kind=FaultKind.PERMANENT, cell=1, onset=0),
    ]
    policy = RecoveryPolicy(permanent_threshold=2, degrade=True)
    result = run_resilient_closure(
        impl2, a, faults=specs, policy=policy, record_metrics=False
    )
    assert result.oracle_ok
    assert result.degraded
    assert result.retired_cells == frozenset({0, 1})
    reasons = {
        ev.detail.split(":")[0]
        for ev in result.timeline if ev.kind == "degrade"
    }
    assert "no_survivors" in reasons
    assert float(result.availability) < 1.0


def test_degrade_false_still_raises(impl, matrix) -> None:
    """The legacy contract is untouched: without the tier the budget
    exhaustion is still a structured RecoveryExhausted."""
    from repro.resilience import RecoveryExhausted

    policy = RecoveryPolicy(max_retries=1, permanent_threshold=99)
    spec = FaultSpec(kind=FaultKind.PERMANENT, cell=0, onset=0)
    with pytest.raises(RecoveryExhausted):
        run_resilient_closure(
            impl, matrix, faults=[spec], policy=policy, record_metrics=False
        )


def test_injected_provenance_is_quiet_in_describe() -> None:
    spec = FaultSpec(kind=FaultKind.TRANSIENT, node="x")
    assert spec.provenance == "injected"
    assert "injected" not in spec.describe()


def test_fault_free_run_has_clean_scoreboard(impl, matrix) -> None:
    result = run_resilient_closure(impl, matrix, record_metrics=False)
    assert not result.degraded
    assert result.mttr_cycles is None
    assert float(result.availability) == 1.0
    assert all(h.state == "healthy" for h in result.scoreboard.values())


# ----------------------------------------------------------------------
# Regime campaigns: the CI gate's contract
# ----------------------------------------------------------------------

CONFIGS = ["linear-n9-m3", "mesh-n8-m4"]


@pytest.mark.parametrize("name", REGIME_NAMES)
def test_seed0_regime_campaign_recovers_or_degrades(name) -> None:
    result = run_campaign(
        seed=0, configs=CONFIGS, regime=name, record_metrics=False
    )
    assert result.ok, [r.to_dict() for r in result.runs if not r.ok]
    for r in result.runs:
        assert r.error is None, "zero RecoveryExhausted escapes"
        assert r.injected and r.detected and r.oracle_ok
        assert r.recovered or r.degraded
        assert r.regime == name


def test_regime_campaign_deterministic_across_jobs_and_backends() -> None:
    kw = dict(seed=0, configs=CONFIGS, regime="hammer", record_metrics=False)
    seq = run_campaign(**kw)
    par = run_campaign(jobs=2, **kw)
    vec = run_campaign(backend="vector", **kw)
    as_dicts = lambda res: [r.to_dict() for r in res.runs]  # noqa: E731
    assert as_dicts(seq) == as_dicts(par)
    assert as_dicts(seq) == as_dicts(vec)


def test_regime_campaign_uses_adaptive_policy_by_default() -> None:
    """Hammer under the default (non-adaptive) policy would just retry;
    under ADAPTIVE_POLICY the ladder quarantines."""
    result = run_campaign(
        seed=0, configs=["linear-n9-m3"], regime="hammer",
        record_metrics=False,
    )
    (run,) = result.runs
    assert run.quarantined >= 1
    assert ADAPTIVE_POLICY.quarantine_strikes > 0


def test_regime_summary_aggregates(monkeypatch) -> None:
    result = run_campaign(
        seed=0, configs=CONFIGS, regime=list(REGIME_NAMES),
        record_metrics=False,
    )
    summary = result.regime_summary()
    assert set(summary["regimes"]) == set(REGIME_NAMES)
    for name, g in summary["regimes"].items():
        assert g["runs"] == len(CONFIGS)
        assert g["ok"] == g["runs"]
        assert g["recovered"] + g["degraded"] >= 1
    assert summary["ok"] is True


def test_classic_campaign_runs_have_no_regime_fields() -> None:
    result = run_campaign(
        seed=0, configs=["linear-n9-m3"], kinds=["transient"],
        record_metrics=False,
    )
    (run,) = result.runs
    assert run.regime is None
    assert "regime" not in run.to_dict()
