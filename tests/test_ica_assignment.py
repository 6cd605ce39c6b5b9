"""The ICA attack's private assignment solver against scipy's reference."""

import numpy as np
import pytest

from repro.attacks.ica import _linear_sum_assignment

scipy_optimize = pytest.importorskip("scipy.optimize")


def _optimum_is_unique(cost, cols):
    """True when no other permutation reaches the optimal cost.

    Any other permutation leaves at least one chosen cell, so the optimum is
    unique exactly when forbidding any one chosen cell raises the cost.
    """
    n = len(cols)
    best = cost[np.arange(n), cols].sum()
    forbidden = 2.0 * np.abs(cost).sum() + 1.0
    for row in range(n):
        blocked = cost.copy()
        blocked[row, cols[row]] = forbidden
        r, c = scipy_optimize.linear_sum_assignment(blocked)
        if np.isclose(blocked[r, c].sum(), best, rtol=0.0, atol=1e-9):
            return False
    return True


@pytest.mark.parametrize("seed", range(200))
def test_matches_scipy_on_random_matrices(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 21))
    if seed % 4 == 0:  # small integer costs: plenty of tied optima
        cost = rng.integers(0, 5, size=(n, n)).astype(float)
    else:
        cost = rng.normal(scale=10.0, size=(n, n))
    rows, cols = _linear_sum_assignment(cost)
    ref_rows, ref_cols = scipy_optimize.linear_sum_assignment(cost)
    np.testing.assert_array_equal(rows, np.arange(n))
    assert sorted(cols.tolist()) == list(range(n))
    assert cost[rows, cols].sum() == pytest.approx(
        cost[ref_rows, ref_cols].sum(), abs=1e-9
    )
    if _optimum_is_unique(cost, ref_cols):
        np.testing.assert_array_equal(cols, ref_cols)


def test_one_by_one():
    rows, cols = _linear_sum_assignment(np.array([[3.5]]))
    assert rows.tolist() == [0] and cols.tolist() == [0]


def test_all_ties_gives_a_permutation():
    cost = np.full((6, 6), 2.0)
    rows, cols = _linear_sum_assignment(cost)
    assert sorted(cols.tolist()) == list(range(6))
    assert cost[rows, cols].sum() == pytest.approx(12.0)


def test_empty_matrix():
    rows, cols = _linear_sum_assignment(np.zeros((0, 0)))
    assert rows.size == 0 and cols.size == 0


@pytest.mark.parametrize(
    "cost", [np.zeros((2, 3)), np.zeros(4), np.array([[0.0, np.inf], [1.0, 0.0]])]
)
def test_rejects_non_square_or_non_finite(cost):
    with pytest.raises(ValueError):
        _linear_sum_assignment(cost)
