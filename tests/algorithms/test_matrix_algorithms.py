"""Tests for the Sec. 4.3 algorithm front-ends (LU, Faddeev, Givens)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.faddeev import faddeev_ggraph, faddeev_graph, run_faddeev
from repro.algorithms.givens import givens_ggraph, run_givens
from repro.algorithms.lu import lu_ggraph, lu_reference, run_lu
from repro.core.analysis import max_fanout


def well_conditioned(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random matrix safe for pivot-free elimination."""
    return rng.random((n, n)) + n * np.eye(n)


class TestLU:
    @given(n=st.integers(2, 7), seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_factors_reconstruct(self, n, seed) -> None:
        a = well_conditioned(np.random.default_rng(seed), n)
        lo, up = run_lu(a)
        assert np.allclose(lo @ up, a)
        assert np.allclose(lo, np.tril(lo))
        assert np.allclose(up, np.triu(up))
        assert np.allclose(np.diag(lo), 1.0)

    def test_matches_reference(self) -> None:
        a = well_conditioned(np.random.default_rng(0), 6)
        lo, up = run_lu(a)
        lr, ur = lu_reference(a)
        assert np.allclose(lo, lr) and np.allclose(up, ur)

    def test_reference_rejects_zero_pivot(self) -> None:
        with pytest.raises(ZeroDivisionError, match="pivot"):
            lu_reference(np.zeros((3, 3)))

    def test_fig22_time_pattern(self) -> None:
        gg = lu_ggraph(8)
        assert not gg.is_uniform_time()
        for k in gg.rows:
            row = gg.row_times(k)
            assert len(set(row)) == 1
            assert row[0] == 8 - 1 - k

    def test_nearest_neighbour_ggraph(self) -> None:
        gg = lu_ggraph(6)
        assert set(gg.edge_deltas()) <= {(0, 1), (1, 0), (1, 1)}

    def test_n_too_small(self) -> None:
        from repro.algorithms.lu import lu_graph

        with pytest.raises(ValueError, match="n >= 2"):
            lu_graph(1)


class TestFaddeev:
    @given(n=st.integers(1, 5), seed=st.integers(0, 100))
    @settings(max_examples=12, deadline=None)
    def test_schur_result(self, n, seed) -> None:
        rng = np.random.default_rng(seed)
        A = well_conditioned(rng, n)
        B, C, D = rng.random((n, n)), rng.random((n, n)), rng.random((n, n))
        got = run_faddeev(A, B, C, D)
        assert np.allclose(got, D + C @ np.linalg.inv(A) @ B)

    def test_inverse_special_case(self) -> None:
        """B = I, D = 0, C = I gives the matrix inverse."""
        rng = np.random.default_rng(4)
        A = well_conditioned(rng, 4)
        eye, zero = np.eye(4), np.zeros((4, 4))
        assert np.allclose(run_faddeev(A, eye, eye, zero), np.linalg.inv(A))

    def test_decreasing_times(self) -> None:
        gg = faddeev_ggraph(5)
        firsts = [gg.row_times(k)[0] for k in gg.rows]
        assert firsts == sorted(firsts, reverse=True)

    def test_block_shape_check(self) -> None:
        from repro.algorithms.faddeev import faddeev_inputs

        with pytest.raises(ValueError, match="block B"):
            faddeev_inputs(np.eye(3), np.eye(2), np.eye(3), np.eye(3))

    def test_no_broadcast(self) -> None:
        assert max_fanout(faddeev_graph(4)) <= 3


class TestGivens:
    @given(n=st.integers(2, 6), seed=st.integers(0, 100))
    @settings(max_examples=12, deadline=None)
    def test_r_factor_properties(self, n, seed) -> None:
        a = np.random.default_rng(seed).random((n, n)) + np.eye(n)
        r = run_givens(a)
        assert np.allclose(r, np.triu(r))
        assert np.allclose(r.T @ r, a.T @ a)

    def test_matches_numpy_qr_up_to_signs(self) -> None:
        a = np.random.default_rng(1).random((5, 5))
        r_ours = run_givens(a)
        r_np = np.linalg.qr(a).R if hasattr(np.linalg.qr(a), "R") else np.linalg.qr(a)[1]
        assert np.allclose(np.abs(r_ours), np.abs(r_np))

    def test_strongly_decreasing_times(self) -> None:
        gg = givens_ggraph(7)
        firsts = [gg.row_times(k)[0] for k in gg.rows]
        assert firsts == sorted(firsts, reverse=True)
        assert firsts[0] > 2 * firsts[-1]

    def test_n_too_small(self) -> None:
        from repro.algorithms.givens import givens_graph

        with pytest.raises(ValueError, match="n >= 2"):
            givens_graph(1)
