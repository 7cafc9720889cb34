"""Tests for G-set selection and scheduling (Figs. 18-20)."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.transitive_closure import tc_regular
from repro.core.ggraph import GGraph, group_by_columns
from repro.core.gsets import (
    SCHEDULE_POLICIES,
    GSetPlan,
    ScheduleError,
    check_schedule,
    gset_dependences,
    infer_skew,
    make_linear_gsets,
    make_mesh_gsets,
    schedule_gsets,
    verify_schedule,
)


def tc_gg(n: int) -> GGraph:
    return GGraph(tc_regular(n), group_by_columns)


class TestLinearGSets:
    def test_aligned_set_count_and_raggedness(self) -> None:
        n, m = 9, 3
        plan = make_linear_gsets(tc_gg(n), m)
        # Aligned: rows with k % m != 0 gain one ragged boundary set.
        ideal = n * (n + 1) // m
        assert len(plan.gsets) > ideal
        assert plan.boundary_sets() > 0
        assert plan.full_sets() + plan.boundary_sets() == len(plan.gsets)

    def test_packed_full_sets_when_divisible(self) -> None:
        n, m = 9, 5  # m | n+1
        plan = make_linear_gsets(tc_gg(n), m, aligned=False)
        assert len(plan.gsets) == n * (n + 1) // m
        assert plan.boundary_sets() == 0

    def test_every_gnode_covered_once(self) -> None:
        gg = tc_gg(7)
        for aligned in (True, False):
            plan = make_linear_gsets(gg, 3, aligned=aligned)
            seen = [g for s in plan.gsets for g in s.gids]
            assert sorted(seen) == sorted(gg.gnodes)

    def test_cells_are_consistent_lanes(self) -> None:
        """Aligned sets map G-column gamma to cell gamma mod m."""
        gg = tc_gg(7)
        m = 4
        plan = make_linear_gsets(gg, m)
        for s in plan.gsets:
            for gid, cell in zip(s.gids, s.cells):
                k, c = gid
                assert cell == (c + k) % m

    def test_aligned_dependences_drop_diagonal(self) -> None:
        """Skew-aligned blocks depend only on (k, B-1) and (k-1, B)."""
        plan = make_linear_gsets(tc_gg(8), 4, aligned=True)
        dag = gset_dependences(plan)
        for (k1, b1), (k2, b2) in dag.edges:
            assert (k2 - k1, b2 - b1) in {(0, 1), (1, 0)}

    def test_packed_dependences_include_diagonal(self) -> None:
        plan = make_linear_gsets(tc_gg(8), 3, aligned=False)
        dag = gset_dependences(plan)
        deltas = {(k2 - k1, b2 - b1) for (k1, b1), (k2, b2) in dag.edges}
        assert (1, 1) in deltas or (1, 0) in deltas

    def test_rejects_zero_cells(self) -> None:
        with pytest.raises(ScheduleError, match="at least one cell"):
            make_linear_gsets(tc_gg(5), 0)


class TestMeshGSets:
    def test_block_count_and_triangular_boundaries(self) -> None:
        n, m = 8, 4
        plan = make_mesh_gsets(tc_gg(n), m)
        assert plan.geometry == "mesh"
        assert plan.shape == (2, 2)
        # The skewed parallelogram leaves ragged (triangular) blocks.
        assert plan.boundary_sets() > 0
        seen = [g for s in plan.gsets for g in s.gids]
        assert len(seen) == n * (n + 1)

    def test_cells_within_shape(self) -> None:
        plan = make_mesh_gsets(tc_gg(8), 4)
        for s in plan.gsets:
            for pr, pc in s.cells:
                assert 0 <= pr < 2 and 0 <= pc < 2
            assert len(set(s.cells)) == len(s.cells)

    def test_explicit_rectangular_shape(self) -> None:
        plan = make_mesh_gsets(tc_gg(7), 6, shape=(2, 3))
        assert plan.shape == (2, 3)
        order = schedule_gsets(plan)
        verify_schedule(plan, order)

    def test_rejects_non_square_without_shape(self) -> None:
        with pytest.raises(ScheduleError, match="perfect square"):
            make_mesh_gsets(tc_gg(6), 5)

    def test_rejects_inconsistent_shape(self) -> None:
        with pytest.raises(ScheduleError, match="does not have"):
            make_mesh_gsets(tc_gg(6), 4, shape=(3, 3))

    def test_infer_skew_tc(self) -> None:
        assert infer_skew(tc_gg(6)) == 1

    def test_infer_skew_lu(self) -> None:
        from repro.algorithms.lu import lu_ggraph

        assert infer_skew(lu_ggraph(6)) == 0


class TestScheduling:
    @pytest.mark.parametrize("policy", sorted(SCHEDULE_POLICIES))
    def test_policies_produce_legal_orders(self, policy: str) -> None:
        for geometry, make in (
            ("linear", lambda gg: make_linear_gsets(gg, 3)),
            ("mesh", lambda gg: make_mesh_gsets(gg, 4)),
        ):
            plan = make(tc_gg(7))
            order = schedule_gsets(plan, policy)
            verify_schedule(plan, order)
            assert len(order) == len(plan.gsets)

    def test_vertical_policy_is_column_major_when_aligned(self) -> None:
        n, m = 8, 4
        plan = make_linear_gsets(tc_gg(n), m, aligned=True)
        order = schedule_gsets(plan, "vertical")
        cols = [s.sid[1] for s in order]
        assert cols == sorted(cols)  # never returns to an earlier column

    def test_custom_policy_callable(self) -> None:
        plan = make_linear_gsets(tc_gg(6), 3)
        order = schedule_gsets(plan, policy=lambda sid: (-sid[0], sid[1]))
        verify_schedule(plan, order)

    def test_verify_rejects_reordered_schedule(self) -> None:
        plan = make_linear_gsets(tc_gg(6), 3)
        order = schedule_gsets(plan)
        bad = list(reversed(order))
        with pytest.raises(ScheduleError, match="before its dependence"):
            verify_schedule(plan, bad)
        # Reversed, every G-set dependence runs backward, once per G-edge.
        check = check_schedule(plan, bad)
        assert check.covers
        assert set(check.backward) == set(gset_dependences(plan).edges)
        set_of = plan.set_of
        assert sum(check.backward.values()) == sum(
            1 for gu, gv in plan.gg.g.edges if set_of[gu] != set_of[gv]
        )
        assert not check_schedule(plan, order).backward

    def test_verify_rejects_incomplete_schedule(self) -> None:
        plan = make_linear_gsets(tc_gg(6), 3)
        order = schedule_gsets(plan)
        with pytest.raises(ScheduleError, match="every G-set"):
            verify_schedule(plan, order[:-1])
        # An unplanned set standing in for the last one: coverage, not a
        # KeyError on the missing set's pile slot.
        stray = dataclasses.replace(order[-1], sid=("x", 99))
        with pytest.raises(ScheduleError, match="every G-set"):
            verify_schedule(plan, order[:-1] + [stray])
        check = check_schedule(plan, order[:-1] + [stray])
        assert check.unplanned == ((len(order) - 1, ("x", 99)),)
        assert check.missing == (order[-1].sid,)
        assert not check.backward and not check.duplicated

    @given(n=st.integers(4, 9), m=st.integers(1, 6))
    @settings(max_examples=15, deadline=None)
    def test_schedule_always_legal(self, n: int, m: int) -> None:
        plan = make_linear_gsets(tc_gg(n), m)
        order = schedule_gsets(plan, "vertical")
        verify_schedule(plan, order)

    def test_set_comp_time_and_uniformity(self, tc_gg8) -> None:
        plan = make_linear_gsets(tc_gg8, 3)
        for s in plan.gsets:
            assert s.comp_time(tc_gg8) == 8
            assert s.is_uniform(tc_gg8)
