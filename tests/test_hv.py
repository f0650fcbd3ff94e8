"""Exact hypervolume kernel and the minimization API on it, against hand
values and Monte Carlo box unions."""

import numpy as np
import pytest

from trumpbench.hv import union_box_volume
from trumpbench.indicators import hv_contributions, hypervolume


def mc_union_volume(points: np.ndarray, rng: np.random.Generator, samples: int = 1_000_000) -> float:
    """Monte Carlo oracle: fraction of the bounding box covered by the union."""
    points = np.asarray(points, dtype=float)
    upper = points.max(axis=0)
    draws = rng.uniform(0.0, upper, size=(samples, points.shape[1]))
    covered = np.zeros(samples, dtype=bool)
    for p in points:
        covered |= np.all(draws <= p, axis=1)
    return covered.mean() * float(np.prod(upper))


def test_single_box():
    assert union_box_volume(np.array([[10.0, 10.0]])) == 100.0


def test_two_overlapping_boxes():
    assert union_box_volume(np.array([[10.0, 1.0], [1.0, 10.0]])) == 19.0


def test_contained_box_adds_nothing():
    assert union_box_volume(np.array([[10.0, 10.0], [2.0, 2.0]])) == 100.0


def test_three_dim_hand_value():
    # 2x2x2 and 1x1x3 boxes overlap in a 1x1x2 block: 8 + 3 - 2 = 9.
    pts = np.array([[2.0, 2.0, 2.0], [1.0, 1.0, 3.0]])
    assert union_box_volume(pts) == pytest.approx(9.0)


def test_permutation_invariant():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.5, 4.0, size=(8, 3))
    base = union_box_volume(pts)
    for _ in range(5):
        assert union_box_volume(rng.permutation(pts)) == pytest.approx(base, rel=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_matches_monte_carlo(dim):
    rng = np.random.default_rng(100 + dim)
    for _ in range(3):
        pts = rng.uniform(0.5, 5.0, size=(10, dim))
        exact = union_box_volume(pts)
        approx = mc_union_volume(pts, rng, samples=400_000)
        assert exact == pytest.approx(approx, rel=0.01)


def test_min_orientation_hand_values():
    assert hypervolume(np.array([[2.0, 2.0]]), np.array([4.0, 4.0])) == 4.0
    front = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
    assert hypervolume(front, np.array([4.0, 4.0])) == 6.0
    assert hypervolume(np.array([[1.0, 1.0, 1.0]]), np.array([2.0, 2.0, 2.0])) == 1.0


def test_contributions_hand_values():
    front = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
    contrib = hv_contributions(front, np.array([4.0, 4.0]))
    assert contrib == pytest.approx([1.0, 1.0, 1.0])


def test_contribution_of_singleton_is_full_volume():
    contrib = hv_contributions(np.array([[1.0, 2.0]]), np.array([3.0, 4.0]))
    assert contrib == pytest.approx([4.0])


def test_duplicate_points_contribute_zero():
    front = np.array([[1.0, 3.0], [1.0, 3.0], [3.0, 1.0]])
    contrib = hv_contributions(front, np.array([4.0, 4.0]))
    assert contrib[0] == 0.0
    assert contrib[1] == 0.0


@pytest.mark.parametrize("measure", [hypervolume, hv_contributions], ids=lambda f: f.__name__)
def test_contributions_reject_point_outside_ref(measure):
    front = np.array([[1.0, 1.0], [5.0, 1.0], [4.0, 0.0]])
    with pytest.raises(ValueError, match="2 point"):
        measure(front, np.array([4.0, 4.0]))
