"""Quality indicators, normalization and front-file round trips."""

import re
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trumpbench import indicators
from trumpbench.indicators import (
    FrontSet,
    FrontStack,
    eps_indicator,
    hv_indicator,
    fit_normalize_transform,
    hypervolume,
    prune_to_front,
    r2_indicator,
    read_front_csv,
    simplex_lattice_weights,
    sorted_rows,
    write_front_csv,
)

from tests.test_hv import mc_union_volume


def eps_dominance_check(front: FrontSet, refset: FrontSet) -> bool:
    """Reference: every reference point is weakly dominated by some front point."""
    le = np.all(front.points[:, None, :] <= refset.points[None, :, :], axis=2)
    return bool(le.any(axis=0).all())


def prune_loop(points: np.ndarray) -> np.ndarray:
    """Reference: the per-point loop that the blocked comparison replaced."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 0:
        return pts.copy()
    uniq = np.unique(pts, axis=0)
    n = uniq.shape[0]
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        if not keep[i]:
            continue
        le = np.all(uniq <= uniq[i], axis=1)
        lt = np.any(uniq < uniq[i], axis=1)
        dominated_by = le & lt
        dominated_by[i] = False
        if np.any(dominated_by & keep):
            keep[i] = False
    return uniq[keep]


def lattice_weights_loop(m: int, subdivisions: int) -> np.ndarray:
    """Reference: one ``np.bincount`` per combination, the loop that the
    stars-and-bars lattice replaced."""
    rows = []
    for combo in combinations_with_replacement(range(m), subdivisions):
        counts = np.bincount(np.array(combo), minlength=m)
        rows.append(counts / subdivisions)
    return np.unique(np.array(rows), axis=0)


# The (n, W, m) and (n, n, m) broadcasts that the column-by-column kernels
# replaced, kept as oracles: each reduces a length-m axis in one call.


def eps_broadcast(stack: FrontStack, refset: np.ndarray) -> np.ndarray:
    worst = (stack.points[:, None, :] - refset[None, :, :]).max(axis=2)
    return np.minimum.reduceat(worst, stack.starts, axis=0).max(axis=1)


def r2_broadcast(stack: FrontStack, weights: np.ndarray, ideal: np.ndarray) -> np.ndarray:
    utility = (np.abs(stack.points - ideal)[:, None, :] * weights[None, :, :]).max(axis=2)
    return np.minimum.reduceat(utility, stack.starts, axis=0).mean(axis=1)


def prune_broadcast(points: np.ndarray, labels: np.ndarray) -> FrontStack:
    order = np.lexsort((*points.T[::-1], labels))
    pts, labels = points[order], labels[order]
    first = np.ones(len(pts), dtype=bool)
    first[1:] = (labels[1:] != labels[:-1]) | np.any(pts[1:] != pts[:-1], axis=1)
    uniq, labels = pts[first], labels[first]
    le = np.all(uniq[None, :, :] <= uniq[:, None, :], axis=2)
    lt = np.any(uniq[None, :, :] < uniq[:, None, :], axis=2)
    keep = ~((labels[:, None] == labels[None, :]) & le & lt).any(axis=1)
    labels = labels[keep]
    return FrontStack(uniq[keep], np.flatnonzero(np.append(True, labels[1:] != labels[:-1])))


def sorted_rows_broadcast(codes):
    """The neighbour compare that the column-by-column one replaced, kept
    as the oracle: one any() along the short code axis."""
    order = np.lexsort(codes.T[::-1])
    ordered = codes[order]
    fresh = np.ones(len(ordered), dtype=bool)
    fresh[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order, fresh


class TestSortedRows:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 40), st.integers(1, 4), st.integers(0, 2**31))
    def test_match_any_along_rows(self, rows, width, seed):
        codes = np.random.default_rng(seed).choice(np.array([0, 1, 128, 255], dtype=np.uint8), (rows, width))
        order, fresh = sorted_rows(codes)
        expected_order, expected_fresh = sorted_rows_broadcast(codes)
        assert np.array_equal(order, expected_order)
        assert np.array_equal(fresh, expected_fresh)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 40), st.integers(1, 4), st.integers(0, 2**31))
    def test_labelled_float_rows(self, rows, m, seed):
        # The rows prune_to_front sorts: an integer label column, then float
        # points with -0.0 and 0.0 among them, which compare equal.
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 4, rows)
        pts = rng.choice(np.array([-0.0, 0.0, 0.5, 1.0]), (rows, m))
        codes = np.column_stack([labels, pts])
        order, fresh = sorted_rows(codes)
        expected_order, expected_fresh = sorted_rows_broadcast(codes)
        assert np.array_equal(order, expected_order)
        assert np.array_equal(fresh, expected_fresh)


@st.composite
def labelled_points(draw):
    """(points, labels): 1-40 points in 1-3 dimensions on a coarse lattice or
    not, with repeated rows, in 1-5 labelled sets given in any order."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    value = st.one_of(st.integers(0, 3).map(float), st.floats(0.0, 1.0))
    pts = np.array(draw(st.lists(st.lists(value, min_size=m, max_size=m), min_size=n, max_size=n)))
    labels = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    return pts, labels


class TestPruning:
    @settings(max_examples=100, deadline=None)
    @given(labelled_points())
    def test_each_label_pruned_on_its_own(self, case):
        pts, labels = case
        stack = prune_to_front(pts, labels)
        sets = np.unique(labels)
        assert stack.starts.tolist() == sorted(stack.starts.tolist())
        assert len(stack.starts) == len(sets)
        for i, label in enumerate(sets):
            assert np.array_equal(stack[i].points, prune_loop(pts[labels == label]))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 4), st.integers(0, 2**31), st.booleans())
    def test_matches_per_point_loop(self, n, m, seed, tied):
        rng = np.random.default_rng(seed)
        pts = rng.integers(0, 4, size=(n, m)).astype(float) if tied else rng.random((n, m))
        assert np.array_equal(prune_to_front(pts).points, prune_loop(pts))

    def test_blocks_smaller_than_the_set(self, monkeypatch):
        monkeypatch.setattr(indicators, "PRUNE_BLOCK_ELEMENTS", 100)
        pts = np.random.default_rng(3).integers(0, 6, size=(40, 3)).astype(float)
        assert np.array_equal(prune_to_front(pts).points, prune_loop(pts))

    def test_weakly_dominated_points_removed(self):
        pts = np.array([[1.0, 2.0], [1.0, 3.0], [2.0, 1.0], [1.5, 2.5]])
        front = prune_to_front(pts).points
        assert sorted(map(tuple, front)) == [(1.0, 2.0), (2.0, 1.0)]

    def test_duplicates_collapse(self):
        pts = np.array([[1.0, 2.0], [1.0, 2.0], [2.0, 1.0]])
        assert prune_to_front(pts).points.shape == (2, 2)

    def test_front_set_prunes_on_construction(self):
        fs = FrontSet(np.array([[1.0, 1.0], [2.0, 2.0]]), "run")
        assert len(fs) == 1


@st.composite
def kernel_cases(draw):
    """(points, labels, refset, weights, ideal) in 1-4 objectives: points on
    a coarse lattice or not, with -0.0, repeated rows and ties with the
    ideal point, in 1-4 labelled sets; lattice or Dirichlet weights, often
    with zero components."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 30))
    value = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, 2.0]), st.floats(-1.0, 3.0))
    rows = st.lists(value, min_size=m, max_size=m)
    pts = np.array(draw(st.lists(rows, min_size=n, max_size=n)))
    labels = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    refset = np.array(draw(st.lists(rows, min_size=1, max_size=12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    if draw(st.booleans()):
        weights = simplex_lattice_weights(m, draw(st.integers(1, 8)))
    else:
        weights = rng.dirichlet(np.ones(m), size=draw(st.integers(1, 40)))
        weights[rng.random(weights.shape) < 0.2] = 0.0
        weights[:, 0] = np.maximum(0.0, 1.0 - weights[:, 1:].sum(axis=1))
    ideal = pts[rng.integers(n)] - draw(st.sampled_from([0.0, 0.01]))
    return pts, labels, refset, weights, ideal


class TestColumnKernelsMatchBroadcast:
    @settings(max_examples=150, deadline=None)
    @given(kernel_cases())
    def test_eps_and_r2_of_stacks_and_single_fronts(self, case):
        pts, labels, refset, weights, ideal = case
        stack = prune_to_front(pts, labels)
        assert eps_indicator(stack, refset).tolist() == eps_broadcast(stack, refset).tolist()
        assert r2_indicator(stack, weights, ideal).tolist() == r2_broadcast(stack, weights, ideal).tolist()
        whole = FrontStack(pts, np.zeros(1, dtype=int))
        assert eps_indicator(pts, refset) == eps_broadcast(whole, refset)[0]
        assert r2_indicator(pts, weights, ideal) == r2_broadcast(whole, weights, ideal)[0]

    @settings(max_examples=150, deadline=None)
    @given(kernel_cases())
    def test_prune_to_front(self, case):
        pts, labels, *_ = case
        stack, expected = prune_to_front(pts, labels), prune_broadcast(pts, labels)
        assert np.array_equal(stack.points, expected.points)
        assert np.array_equal(stack.starts, expected.starts)

    def test_r2_weights_of_another_objective_count_fail(self):
        with pytest.raises(ValueError, match="one component per objective"):
            r2_indicator(np.ones((2, 3)), simplex_lattice_weights(2, 4), np.zeros(3))


class TestStacks:
    @settings(max_examples=60, deadline=None)
    @given(labelled_points(), st.integers(0, 2**31))
    def test_each_front_as_measured_alone(self, case, seed):
        # A stack is measured in one batch; every value must equal that of
        # its front measured as a FrontSet of its own, bit for bit.
        pts, labels = case
        m = pts.shape[1]
        stack = prune_to_front(pts, labels)
        fronts = [FrontSet(pts[labels == label]) for label in np.unique(labels)]
        refset = FrontSet(np.random.default_rng(seed).uniform(0.0, 1.0, size=(3, m)))
        ref_point = np.full(m, 4.0)
        weights = simplex_lattice_weights(m, 6)
        ideal = np.full(m, -0.01)
        assert hypervolume(stack, ref_point).tolist() == [
            hypervolume(f.points, ref_point) for f in fronts
        ]
        assert eps_indicator(stack, refset).tolist() == [eps_indicator(f, refset) for f in fronts]
        assert r2_indicator(stack, weights, ideal).tolist() == [
            r2_indicator(f, weights, ideal) for f in fronts
        ]

    def test_single_fronts_give_floats(self):
        # All three take one front as a FrontSet or as a point array alike.
        fs = FrontSet(np.array([[1.0, 2.0], [2.0, 1.0]]))
        w = simplex_lattice_weights(2, 4)
        for front in (fs, fs.points):
            values = (
                hypervolume(front, np.full(2, 3.0)),
                eps_indicator(front, fs.points),
                r2_indicator(front, w, np.zeros(2)),
            )
            assert [type(v) for v in values] == [float] * 3
            assert values == (3.0, 0.0, 0.9)


class TestHypervolume:
    def test_hand_values(self):
        assert hypervolume(np.array([[2.0, 2.0]]), np.array([4.0, 4.0])) == 4.0
        front = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
        assert hypervolume(front, np.array([4.0, 4.0])) == 6.0
        assert hypervolume(np.array([[1.0, 1.0, 1.0]]), np.array([2.0, 2.0, 2.0])) == 1.0
        assert hypervolume(np.zeros((1, 4)), np.ones(4)) == 1.0

    def test_adding_nondominated_point_increases(self):
        rng = np.random.default_rng(13)
        ref = np.array([1.0, 1.0, 1.0])
        for _ in range(20):
            pts = prune_to_front(rng.uniform(0, 1, size=(6, 3))).points
            base = hypervolume(pts, ref)
            extra = rng.uniform(0, 1, size=3)
            dominated = np.any(np.all(pts <= extra, axis=1) & np.any(pts < extra, axis=1))
            grown = hypervolume(np.vstack([pts, extra]), ref)
            if dominated:
                assert grown == pytest.approx(base)
            else:
                assert grown > base

    @pytest.mark.parametrize("dim", [3, 4])
    def test_matches_monte_carlo(self, dim):
        rng = np.random.default_rng(29)
        ref = np.full(dim, 5.0)
        for _ in range(5):
            pts = rng.uniform(0.0, 4.5, size=(8, dim))
            exact = hypervolume(pts, ref)
            approx = mc_union_volume(ref - pts, rng, samples=300_000)
            assert exact == pytest.approx(approx, rel=0.01)


class TestHvIndicator:
    def test_zero_against_self(self):
        ref = np.array([4.0, 4.0])
        fs = FrontSet(np.array([[1.0, 3.0], [3.0, 1.0]]), "a")
        assert hv_indicator(fs, fs, ref) == 0.0

    def test_missing_point_costs_its_contribution(self):
        ref = np.array([4.0, 4.0])
        full = FrontSet(np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]]), "ref")
        partial = FrontSet(np.array([[1.0, 3.0], [3.0, 1.0]]), "a")
        assert hv_indicator(partial, full, ref) == pytest.approx(1.0)


    def test_reference_volume_measured_once(self, monkeypatch):
        calls = []
        union_box_volume = indicators.union_box_volume

        def counted(boxes, member):
            calls.append(len(boxes))
            return union_box_volume(boxes, member)

        monkeypatch.setattr(indicators, "union_box_volume", counted)
        rng = np.random.default_rng(5)
        refset = FrontSet(rng.uniform(0, 1, size=(20, 3)), "ref")
        fronts = [FrontSet(rng.uniform(0, 1, size=(4, 3)), f"run{i}") for i in range(6)]
        ref = np.full(3, 1.1)
        gaps = [hv_indicator(f, refset, ref) for f in fronts]
        # One call per front, and one for the reference front at the first.
        assert calls == [len(refset)] + [len(f) for f in fronts]
        assert gaps == [hypervolume(refset, ref) - hypervolume(f, ref) for f in fronts]
        assert refset.volume(ref) == hypervolume(refset, ref)
        # Another reference point is measured once too.
        calls.clear()
        assert refset.volume(np.full(3, 1.2)) == refset.volume([1.2, 1.2, 1.2])
        assert calls == [len(refset)]


class TestEpsIndicator:
    def test_identical_sets(self):
        fs = FrontSet(np.array([[1.0, 2.0], [2.0, 1.0]]), "a")
        assert eps_indicator(fs, fs) == 0.0

    def test_uniform_shift(self):
        base = np.array([[1.0, 2.0], [2.0, 1.0]])
        shifted = FrontSet(base + 0.5, "a")
        assert eps_indicator(shifted, FrontSet(base, "r")) == pytest.approx(0.5)

    def test_negative_when_strictly_better(self):
        a = FrontSet(np.array([[0.0, 0.0]]), "a")
        r = FrontSet(np.array([[1.0, 1.0]]), "r")
        assert eps_indicator(a, r) == pytest.approx(-1.0)

    def test_nonpositive_implies_weak_dominance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = FrontSet(rng.uniform(0, 1, size=(5, 2)), "a")
            r = FrontSet(rng.uniform(0, 1, size=(4, 2)), "r")
            if eps_indicator(a, r) <= 0:
                assert eps_dominance_check(a, r)


def strictly_dominates_brute(first, second) -> bool:
    """Reference: every point of ``second`` is strictly worse in every
    objective than some point of ``first``."""
    return all(any(all(x < y for x, y in zip(a, b)) for a in first) for b in second)


# Two point sets of a common dimension on the integer grid 0..4, so that
# ties in single objectives and duplicate points occur.
grid_set_pairs = st.integers(1, 3).flatmap(
    lambda m: st.tuples(
        *[st.lists(st.tuples(*[st.integers(0, 4).map(float)] * m), min_size=1, max_size=8)] * 2
    )
)


class TestSetDominance:
    """A negative additive epsilon is strict set dominance: an experiment's
    set relations and reference-deck verdicts read it off eps_indicator."""

    def test_strict_domination(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[1.0, 1.0], [2.0, 3.0]])
        assert eps_indicator(a, b) < 0
        assert not eps_indicator(b, a) < 0

    def test_partial_cover_fails(self):
        a = np.array([[0.0, 2.0]])
        b = np.array([[1.0, 3.0], [0.5, 1.0]])
        assert not eps_indicator(a, b) < 0

    def test_a_tie_is_not_strict(self):
        # Better in one objective and equal in the other: weak dominance only.
        assert eps_indicator(np.array([[0.0, 1.0]]), np.array([[1.0, 1.0]])) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(grid_set_pairs)
    def test_matches_brute_force(self, sets):
        a, b = (np.array(s) for s in sets)
        for first, second in ((a, b), (b, a)):
            assert (eps_indicator(first, second) < 0) == strictly_dominates_brute(first, second)
        # One point, as a reference deck is placed.
        assert (eps_indicator(a, b[0]) < 0) == strictly_dominates_brute(a, b[:1])

    @settings(max_examples=300, deadline=None)
    @given(grid_set_pairs)
    def test_a_set_and_its_front_dominate_alike(self, sets):
        # Every point of a set is weakly dominated by a point of its front,
        # so an experiment's set relations need each union's front only.
        a, b = (np.array(s) for s in sets)
        for first, second in ((a, b), (b, a)):
            expected = strictly_dominates_brute(first, second)
            assert (eps_indicator(FrontSet(first), second) < 0) == expected
            assert (eps_indicator(first, FrontSet(second)) < 0) == expected
            assert (eps_indicator(FrontSet(first), FrontSet(second)) < 0) == expected


class TestR2Indicator:
    def test_ideal_front_scores_zero(self):
        fs = FrontSet(np.array([[0.0, 0.0]]), "a")
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert r2_indicator(fs, w, np.zeros(2)) == 0.0

    def test_two_weight_hand_value(self):
        fs = FrontSet(np.array([[1.0, 2.0]]), "a")
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert r2_indicator(fs, w, np.zeros(2)) == pytest.approx(1.5)

    def test_adding_points_never_hurts(self):
        rng = np.random.default_rng(7)
        w = simplex_lattice_weights(2, 10)
        for _ in range(20):
            pts = rng.uniform(1, 2, size=(5, 2))
            base = r2_indicator(FrontSet(pts, "a"), w, np.zeros(2))
            more = r2_indicator(FrontSet(np.vstack([pts, rng.uniform(1, 2, 2)]), "a"), w, np.zeros(2))
            assert more <= base + 1e-12

    def test_invariant_under_permutations(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(1, 2, size=(6, 3))
        w = simplex_lattice_weights(3, 6)
        base = r2_indicator(FrontSet(pts, "a"), w, np.zeros(3))
        shuffled = r2_indicator(FrontSet(pts[::-1], "a"), w[::-1], np.zeros(3))
        assert shuffled == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize(
        "excess, valid",
        [(1.0e-5, True), (-1.0e-5, True), (1.1e-5, False), (-1.1e-5, False), (np.nan, False), (np.inf, False)],
    )
    def test_weight_sums_within_allclose_tolerance(self, excess, valid):
        # A weight vector may miss 1 by np.allclose's 1e-8 + 1e-5, no more.
        fs = FrontSet(np.array([[1.0, 2.0]]), "a")
        w = np.array([[1.0, 0.0], [0.5, 0.5 + excess]])
        if valid:
            assert r2_indicator(fs, w, np.zeros(2)) > 0.0
        else:
            with pytest.raises(ValueError, match="each weight vector must sum to 1"):
                r2_indicator(fs, w, np.zeros(2))


class TestWeights:
    def test_lattice_sizes(self):
        assert simplex_lattice_weights(2, 20).shape == (21, 2)
        assert simplex_lattice_weights(3, 20).shape == (231, 3)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_bincount_loop(self, m):
        for subdivisions in (1, 2, 5, 20):
            assert np.array_equal(
                simplex_lattice_weights(m, subdivisions), lattice_weights_loop(m, subdivisions)
            )

    def test_rows_sum_to_one(self):
        w = simplex_lattice_weights(3, 12)
        assert np.allclose(w.sum(axis=1), 1.0)
        assert np.all(w >= 0)


class TestNormalization:
    def test_midpoint_maps_to_midpoint(self):
        transform = fit_normalize_transform(np.array([[5.0, 1.0], [9.0, 0.0]]))
        assert transform.apply(np.array([[7.0, 0.5]]))[0, 0] == pytest.approx(1.5)

    def test_extremes_hit_one_and_two(self):
        points = np.array([[5.0, 2.0], [9.0, 1.0]])
        mapped = fit_normalize_transform(points).apply(points)
        assert mapped.min(axis=0) == pytest.approx([1.0, 1.0])
        assert mapped.max(axis=0) == pytest.approx([2.0, 2.0])

    def test_constant_dimension_maps_to_one(self):
        points = np.array([[3.0, 1.0], [3.0, 2.0]])
        assert np.all(fit_normalize_transform(points).apply(points)[:, 0] == 1.0)

    def test_dominance_preserved(self):
        rng = np.random.default_rng(17)
        pts = rng.uniform(0, 10, size=(10, 3))
        mapped = fit_normalize_transform(pts).apply(pts)
        for i in range(10):
            for j in range(10):
                assert np.all(pts[i] < pts[j]) == np.all(mapped[i] < mapped[j])

    def test_indicators_invariant_under_affine_rescale(self):
        rng = np.random.default_rng(23)
        raw_a = rng.uniform(0, 1, size=(6, 2))
        raw_r = rng.uniform(0, 1, size=(6, 2))
        scale = np.array([3.0, 0.25])
        shift = np.array([-7.0, 40.0])

        def pipeline(a_pts, r_pts):
            transform = fit_normalize_transform(np.vstack([a_pts, r_pts]))
            a = FrontSet(transform.apply(a_pts))
            r = FrontSet(transform.apply(r_pts))
            ref = np.full(2, 2.1)
            w = simplex_lattice_weights(2, 20)
            ideal = r.points.min(axis=0) - 0.01
            return (
                hv_indicator(a, r, ref),
                eps_indicator(a, r),
                r2_indicator(a, w, ideal),
            )

        base = pipeline(raw_a, raw_r)
        scaled = pipeline(raw_a * scale + shift, raw_r * scale + shift)
        assert scaled == pytest.approx(base, abs=1e-12)


class TestFrontFiles:
    def test_round_trip(self, tmp_path):
        fs = FrontSet(np.array([[1.25, 2.5], [2.0, 1.0]]), "run-3")
        path = tmp_path / "front.csv"
        write_front_csv(fs, path)
        back = read_front_csv(path, origin="run-3")
        assert back == fs

    def test_header_present(self, tmp_path):
        fs = FrontSet(np.array([[1.0, 2.0, 3.0]]), "x")
        path = tmp_path / "front.csv"
        write_front_csv(fs, path)
        assert path.read_text().splitlines()[0] == "f1,f2,f3"

    def test_quoted_fields(self, tmp_path):
        path = tmp_path / "front.csv"
        path.write_text('"f1","f2"\n"1.25",2.5\n2.0,"1.0"\n')
        back = read_front_csv(path, origin="run-3")
        assert back == FrontSet(np.array([[1.25, 2.5], [2.0, 1.0]]), "run-3")

    def test_bad_row_raises(self, tmp_path):
        path = tmp_path / "front.csv"
        path.write_text("f1,f2\n1.0\n")
        with pytest.raises(ValueError, match="line 2"):
            read_front_csv(path)

    def test_non_numeric_cell_names_path_and_line(self, tmp_path):
        path = tmp_path / "front.csv"
        path.write_text("f1,f2\n1.0,2.0\n1.0,x\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: non-numeric value")):
            read_front_csv(path)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "front.csv"
        path.write_text("f1,f2\n\n\n1.0,2.0\n1.0\n")
        with pytest.raises(ValueError, match="line 5"):
            read_front_csv(path)
