"""Attainment values, surfaces and the permutation test."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trumpbench import eaf
from trumpbench.eaf import (
    EAFTestResult,
    RunGroup,
    attainment_surface,
    eaf_test,
    eaf_value,
)
from trumpbench.indicators import FrontSet, prune_to_front


def group_of(points_per_run, label="g"):
    return RunGroup(
        tuple(FrontSet(np.array(p, dtype=float), f"{label}-{i}") for i, p in enumerate(points_per_run)),
        label,
    )


# The dense-grid implementation the sweep replaced, kept as the oracle: one
# boolean grid per run over every combination of distinct coordinates.


def grid_axes(point_sets):
    stacked = np.vstack(point_sets)
    return [np.unique(stacked[:, d]) for d in range(stacked.shape[1])]


def attained_grid(points, axes):
    """Boolean grid: cell z is True when some point is <= z componentwise."""
    attained = np.zeros(tuple(len(a) for a in axes), dtype=bool)
    for p in points:
        idx = tuple(int(np.searchsorted(axes[d], p[d], side="left")) for d in range(len(axes)))
        attained[tuple(slice(i, None) for i in idx)] = True
    return attained


def grid_surface(group, level):
    axes = grid_axes([f.points for f in group.fronts])
    shape = tuple(len(a) for a in axes)
    counts = np.zeros(shape, dtype=np.int32)
    for front in group.fronts:
        counts += attained_grid(front.points, axes)
    eligible = counts >= max(1, level * len(group) - 1e-9)
    dominated_from_below = np.zeros(shape, dtype=bool)
    for d in range(len(axes)):
        shifted = np.zeros(shape, dtype=bool)
        src = [slice(None)] * len(axes)
        dst = [slice(None)] * len(axes)
        src[d] = slice(None, -1)
        dst[d] = slice(1, None)
        shifted[tuple(dst)] = eligible[tuple(src)]
        dominated_from_below |= shifted
    idx = np.argwhere(eligible & ~dominated_from_below)
    points = np.column_stack([axes[d][idx[:, d]] for d in range(len(axes))])
    return FrontSet(points, origin=f"{group.label}_{level:g}")


def grid_patterns(groups):
    """Distinct columns of the stacked per-run grids, as a set of run tuples."""
    fronts = [f.points for g in groups for f in g.fronts]
    axes = grid_axes(fronts)
    per_run = np.array([attained_grid(pts, axes).reshape(-1) for pts in fronts])
    return {tuple(column) for column in per_run.T.tolist()}


def grid_eaf_test(group_a, group_b, permutations, alpha, seed):
    """The per-permutation loop over the grid patterns."""
    patterns = np.array(sorted(grid_patterns([group_a, group_b])), dtype=bool)
    rng = np.random.default_rng(seed)
    n_a = len(group_a)
    n_total = n_a + len(group_b)

    def statistic(order):
        part_a = patterns[:, order[:n_a]].mean(axis=1)
        part_b = patterns[:, order[n_a:]].mean(axis=1)
        return float(np.abs(part_a - part_b).max())

    observed = statistic(np.arange(n_total))
    null_stats = np.array([statistic(rng.permutation(n_total)) for _ in range(permutations)])
    p_value = float(np.mean(null_stats >= observed - 1e-12))
    return EAFTestResult(
        statistic=observed,
        critical_value=eaf._critical_value(null_stats, alpha),
        p_value=p_value,
        permutations=permutations,
        alpha=alpha,
        reject=p_value < alpha,
        seed=seed,
    )


# The per-permutation scoring that the split scoring replaced, kept as the
# oracle: one rng.permutation per row and an int64 product per block of
# BLOCK_ELEMENTS (patterns, permutations) entries.


def loop_eaf_test(group_a, group_b, permutations, alpha, seed):
    patterns = eaf._pattern_matrix([group_a, group_b]).astype(np.int64)
    rng = np.random.default_rng(seed)
    n_a = len(group_a)
    n_total = n_a + len(group_b)
    n_b = n_total - n_a

    def statistics(orders):
        members = np.zeros((n_total, len(orders)), dtype=np.int64)
        members[orders[:, :n_a], np.arange(len(orders))[:, None]] = 1
        counts_a = patterns @ members
        counts_b = patterns.sum(axis=1, keepdims=True) - counts_a
        return np.abs(counts_a / n_a - counts_b / n_b).max(axis=0)

    observed = float(statistics(np.arange(n_total)[None, :])[0])
    null_stats = np.empty(permutations)
    block = max(1, eaf.BLOCK_ELEMENTS // len(patterns))
    for start in range(0, permutations, block):
        orders = np.array([rng.permutation(n_total) for _ in range(min(block, permutations - start))])
        null_stats[start : start + len(orders)] = statistics(orders)
    p_value = float(np.mean(null_stats >= observed - 1e-12))
    return EAFTestResult(
        statistic=observed,
        critical_value=eaf._critical_value(null_stats, alpha),
        p_value=p_value,
        permutations=permutations,
        alpha=alpha,
        reject=p_value < alpha,
        seed=seed,
    )


@st.composite
def run_groups(draw, many_runs=False, unequal=False, dims=(2, 3)):
    """Two groups of small-integer fronts, so coordinates tie and points
    repeat within and across runs; ``many_runs`` needs two code words,
    ``unequal`` gives the groups different sizes of 2-7 runs, and ``dims``
    lists the objective counts to draw from."""
    m = draw(st.sampled_from(dims))
    low, high = (33, 40) if many_runs else (2, 6)
    front = st.lists(st.tuples(*[st.integers(0, 4)] * m), min_size=1, max_size=5)
    if unequal:
        sizes = draw(st.lists(st.integers(2, 7), min_size=2, max_size=2, unique=True))
        return [group_of(draw(st.lists(front, min_size=n, max_size=n)), label) for n, label in zip(sizes, "ab")]
    return [group_of(draw(st.lists(front, min_size=low, max_size=high)), label) for label in "ab"]


def assert_sweep_matches_grid(groups, level, seed):
    patterns = eaf._pattern_matrix(groups)
    rows = {tuple(row) for row in patterns.tolist()}
    assert len(rows) == len(patterns)
    assert rows == grid_patterns(groups)
    joint = RunGroup(groups[0].fronts + groups[1].fronts, "ab")
    for group in (*groups, joint):
        assert attainment_surface(group, level) == grid_surface(group, level)
    assert eaf_test(*groups, permutations=50, alpha=0.2, seed=seed) == grid_eaf_test(
        *groups, permutations=50, alpha=0.2, seed=seed
    )


class TestSweepMatchesGrid:
    @settings(max_examples=150, deadline=None)
    @given(run_groups(), st.sampled_from([0.2, 0.5, 0.75, 1.0]), st.integers(0, 2**31))
    def test_patterns_surfaces_and_test(self, groups, level, seed):
        assert_sweep_matches_grid(groups, level, seed)

    @settings(max_examples=15, deadline=None)
    @given(run_groups(many_runs=True), st.sampled_from([0.3, 0.5, 1.0]), st.integers(0, 2**31))
    def test_more_than_64_runs(self, groups, level, seed):
        assert len(groups[0]) + len(groups[1]) > 64
        assert_sweep_matches_grid(groups, level, seed)

    def test_one_objective(self):
        groups = [group_of([[[1.0]], [[2.0]], [[2.0]]], "a"), group_of([[[0.0]], [[3.0]]], "b")]
        assert_sweep_matches_grid(groups, 0.5, 1)


class TestFirstLayersMatchGrid:
    @settings(max_examples=100, deadline=None)
    @given(run_groups(dims=(1, 4)), st.sampled_from([0.2, 0.5, 0.75, 1.0]), st.integers(0, 2**31))
    def test_one_and_four_objectives(self, groups, level, seed):
        assert_sweep_matches_grid(groups, level, seed)

    @settings(max_examples=50, deadline=None)
    @given(run_groups(dims=(1, 2, 3, 4)), st.integers(0, 2**31))
    def test_level_below_one_run(self, groups, seed):
        # A level below 1/n still needs one run: the surface is the 1/n
        # surface, and every point of it is attained.
        assert_sweep_matches_grid(groups, 1e-12, seed)
        for group in groups:
            surface = attainment_surface(group, 1e-12)
            assert np.array_equal(surface.points, attainment_surface(group, 1 / len(group)).points)
            assert all(eaf_value(group, z) >= 1e-12 for z in surface.points)


def first_layers_accumulate(point_sets, axes):
    """The running minimum that the log-step doubling replaced, kept as the
    oracle: the field seeded point by point, then one np.minimum.accumulate
    along each grid axis."""
    never = len(axes[-1])
    shape = (len(point_sets),) + tuple(len(a) for a in axes[:-1])
    field = np.full(shape, never, dtype=np.min_scalar_type(never))
    for r, points in enumerate(point_sets):
        for p in points:
            cell = tuple(int(np.searchsorted(a, x)) for a, x in zip(axes, p))
            field[(r,) + cell[:-1]] = min(field[(r,) + cell[:-1]], cell[-1])
    for axis in range(1, field.ndim):
        field = np.minimum.accumulate(field, axis=axis)
    return field


class TestRunningMinimumMatchesAccumulate:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 4), st.data())
    def test_axis_lengths(self, m, data):
        # Grid axes of length 1, odd and powers of two, so the last shift
        # of the doubling overshoots the axis or ends exactly at it; 300
        # layers make a uint16 field.
        lengths = [data.draw(st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 16, 17])) for _ in range(m - 1)]
        high = lengths + [data.draw(st.sampled_from([1, 6, 300]))]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        runs = data.draw(st.integers(1, 4))
        point_sets = [rng.integers(0, high, size=(rng.integers(1, 6), m)).astype(float) for _ in range(runs)]
        # Points on the grid's diagonal give every axis its drawn length.
        diagonal = np.minimum(np.arange(max(high))[:, None], np.array(high) - 1).astype(float)
        point_sets[0] = np.vstack([point_sets[0], diagonal])
        axes = eaf._axes(point_sets)
        assert [len(a) for a in axes] == high
        got, expected = eaf._first_layers(point_sets, axes), first_layers_accumulate(point_sets, axes)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


def loop_critical_value(null_stats, alpha):
    """The loop over the distinct null values that the binary search
    replaced, kept as the oracle."""
    n = null_stats.size
    for c in np.unique(null_stats):
        if np.sum(null_stats > c + 1e-12) < alpha * n:
            return float(c)
    return float(null_stats.max())


@st.composite
def null_distributions(draw):
    """Null statistics on a grid of twelfths, so values tie, some nudged
    within the 1e-12 tolerance of their neighbours; and an alpha drawn
    anywhere in [0, 1] or at or beside a multiple of 1/n."""
    steps = draw(st.lists(st.integers(0, 12), min_size=1, max_size=60))
    nudges = draw(st.lists(st.sampled_from([0.0, 5e-13, 1e-12, 2e-12]), min_size=len(steps), max_size=len(steps)))
    null_stats = np.array(steps) / 12 + np.array(nudges)
    n = len(steps)
    edge = draw(st.integers(0, n)) / n
    alpha = draw(
        st.one_of(
            st.floats(0.0, 1.0),
            st.sampled_from([edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0), 1e-300, 1 - 1e-16]),
        )
    )
    return null_stats, float(alpha)


class TestCriticalValue:
    @settings(max_examples=500, deadline=None)
    @given(null_distributions())
    def test_matches_loop(self, drawn):
        null_stats, alpha = drawn
        assert eaf._critical_value(null_stats, alpha) == loop_critical_value(null_stats, alpha)

    def test_continuous_null(self):
        null_stats = np.random.default_rng(59).uniform(0, 1, 3000)
        for alpha in (0.001, 0.05, 0.5, 0.999):
            assert eaf._critical_value(null_stats, alpha) == loop_critical_value(null_stats, alpha)

    def test_sorts_in_place(self):
        # A sorted copy of a million null values alone takes 7.6 MiB.
        null_stats = np.random.default_rng(61).uniform(0, 1, 1_000_000)
        tracemalloc.start()
        try:
            critical_value = eaf._critical_value(null_stats, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # Distinct values: 49,999 lie above the 950,001st smallest.
        assert np.all(null_stats[1:] > null_stats[:-1])
        assert critical_value == null_stats[950_000]


class TestDistinctRows:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 40), st.integers(1, 4), st.integers(0, 2**31))
    def test_match_unique_rows(self, rows, width, seed):
        # Few byte values, so rows repeat, and both ends of the byte range,
        # so the order is the unsigned one; no rows at all, as for a block
        # of cells that no run attains.
        byte_values = np.array([0, 1, 127, 128, 255], dtype=np.uint8)
        codes = np.random.default_rng(seed).choice(byte_values, (rows, width))
        assert np.array_equal(eaf._distinct_rows(codes), np.unique(codes, axis=0))


class TestDrawnSplits:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 300), st.integers(2, 70), st.data())
    def test_match_unique_rows(self, rows, n_total, data):
        # np.unique(axis=0) over the boolean membership rows of one
        # rng.permutation per row gives the same splits, in the same order,
        # and the same inverse.
        n_a = data.draw(st.integers(1, n_total - 1))
        seed = data.draw(st.integers(0, 2**31))
        splits, inverse = eaf._drawn_splits(np.random.default_rng(seed), rows, n_a, n_total)
        rng = np.random.default_rng(seed)
        drawn = np.zeros((rows, n_total), dtype=bool)
        for row in drawn:
            row[rng.permutation(n_total)[:n_a]] = True
        expected, expected_inverse = np.unique(drawn, axis=0, return_inverse=True)
        assert np.array_equal(splits, expected.astype(np.uint8))
        assert np.array_equal(inverse, expected_inverse.reshape(-1))


def statistics_broadcast(patterns, splits, n_a):
    """The scoring of every pattern row that the per-total extremes
    replaced, kept as the oracle."""
    n_b = patterns.shape[1] - n_a
    counts_a = patterns.astype(float) @ splits.T.astype(float)
    counts_b = patterns.sum(axis=1, keepdims=True) - counts_a
    return np.abs(counts_a / n_a - counts_b / n_b).max(axis=0)


class TestStatisticsMatchEveryRow:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([(3, 9), (9, 3), (2, 2), (10, 10), (5, 7)]), st.integers(1, 60), st.data())
    def test_unequal_groups(self, sizes, rows, data):
        n_a, n_b = sizes
        seed = data.draw(st.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        patterns = rng.random((rows, n_a + n_b)) < data.draw(st.sampled_from([0.1, 0.5, 0.9]))
        splits = np.array([rng.permutation(n_a + n_b) < n_a for _ in range(data.draw(st.integers(1, 50)))])
        sorted_patterns, segments = eaf._by_total(patterns)
        assert eaf._statistics(sorted_patterns, segments, splits, n_a).tolist() == (
            statistics_broadcast(patterns, splits, n_a).tolist()
        )

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([(3, 9), (2, 2), (10, 10)]), st.integers(1, 40), st.data())
    def test_patterns_sharing_one_total(self, sizes, rows, data):
        # One segment: every row holds the same number of runs.
        n_a, n_b = sizes
        total = data.draw(st.integers(0, n_a + n_b))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        patterns = np.array([rng.permutation(n_a + n_b) < total for _ in range(rows)])
        splits = np.array([rng.permutation(n_a + n_b) < n_a for _ in range(data.draw(st.integers(1, 50)))])
        sorted_patterns, segments = eaf._by_total(patterns)
        assert segments == [slice(0, rows)]
        assert eaf._statistics(sorted_patterns, segments, splits, n_a).tolist() == (
            statistics_broadcast(patterns, splits, n_a).tolist()
        )


class TestSplitScoringMatchesLoop:
    @settings(max_examples=100, deadline=None)
    @given(run_groups(unequal=True), st.integers(1, 300), st.floats(0.01, 0.5), st.integers(0, 2**31))
    def test_unequal_groups(self, groups, permutations, alpha, seed):
        assert len(groups[0]) != len(groups[1])
        assert eaf_test(*groups, permutations, alpha, seed) == loop_eaf_test(
            *groups, permutations, alpha, seed
        )

    @settings(max_examples=10, deadline=None)
    @given(run_groups(many_runs=True), st.integers(0, 2**31))
    def test_two_code_words(self, groups, seed):
        assert eaf_test(*groups, 300, 0.1, seed) == loop_eaf_test(*groups, 300, 0.1, seed)

    @settings(max_examples=30, deadline=None)
    @given(run_groups(), st.integers(0, 2**31))
    def test_small_blocks_repeat_splits(self, groups, seed):
        # 64 entries per block: 5-16 drawn orders per block, so 1,000 draws
        # make at least 63 blocks. At most C(12, 6) splits exist, fewer
        # than the draws, so splits repeat across the drawn blocks and are
        # scored again in each.
        n_a, n_total = len(groups[0]), len(groups[0]) + len(groups[1])
        assert math.comb(n_total, n_a) < 1000
        columns = max(1, 64 // len(eaf._pattern_matrix(groups)))
        scored = []
        statistics = eaf._statistics

        def counted(patterns, segments, splits, n_a):
            scored.append(len(splits))
            return statistics(patterns, segments, splits, n_a)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(eaf, "BLOCK_ELEMENTS", 64)
            patch.setattr(eaf, "_statistics", counted)
            result = eaf_test(*groups, 1000, 0.05, seed)
            assert result == loop_eaf_test(*groups, 1000, 0.05, seed)
        assert len(scored) > 63 and max(scored) <= columns


class TestEafValue:
    def test_single_run_attained(self):
        g = group_of([[[1.0, 1.0]]])
        assert eaf_value(g, np.array([2.0, 2.0])) == 1.0

    def test_single_run_unattained(self):
        g = group_of([[[1.0, 1.0]]])
        assert eaf_value(g, np.array([0.5, 0.5])) == 0.0

    def test_two_runs_half(self):
        g = group_of([[[1.0, 1.0]], [[3.0, 3.0]]])
        assert eaf_value(g, np.array([2.0, 2.0])) == 0.5

    def test_monotone_in_each_coordinate(self):
        rng = np.random.default_rng(5)
        g = group_of([rng.uniform(0, 1, size=(4, 2)) for _ in range(5)])
        z = np.array([0.4, 0.6])
        base = eaf_value(g, z)
        assert eaf_value(g, z + np.array([0.2, 0.0])) >= base
        assert eaf_value(g, z + np.array([0.0, 0.2])) >= base


class TestAttainmentSurface:
    def test_identical_fronts_return_common_front(self):
        front = [[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]]
        g = group_of([front, front, front])
        surface = attainment_surface(g, 0.5)
        assert sorted(map(tuple, surface.points)) == sorted(map(tuple, front))

    def test_single_run_full_level_is_its_front(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 1, size=(12, 2))
        fs = FrontSet(pts, "only")
        g = RunGroup((fs,), "solo")
        surface = attainment_surface(g, 1.0)
        assert sorted(map(tuple, surface.points)) == sorted(map(tuple, fs.points))

    def test_disjoint_single_points_join(self):
        g = group_of([[[0.0, 1.0]], [[1.0, 0.0]]])
        surface = attainment_surface(g, 1.0)
        assert surface.points.tolist() == [[1.0, 1.0]]

    def test_three_objectives_single_run(self):
        rng = np.random.default_rng(13)
        pts = rng.uniform(0, 1, size=(6, 3))
        fs = FrontSet(pts, "only")
        surface = attainment_surface(RunGroup((fs,), "solo"), 1.0)
        assert sorted(map(tuple, surface.points)) == sorted(map(tuple, fs.points))

    def test_level_nesting(self):
        rng = np.random.default_rng(17)
        g = group_of([rng.uniform(0, 1, size=(5, 2)) for _ in range(6)])
        low = attainment_surface(g, 0.25)
        high = attainment_surface(g, 0.75)
        for z in high.points:
            assert np.any(np.all(low.points <= z, axis=1))

    def test_level_range_checked(self):
        g = group_of([[[0.0, 0.0]]])
        with pytest.raises(ValueError):
            attainment_surface(g, 0.0)
        with pytest.raises(ValueError):
            attainment_surface(g, 1.5)

    def test_surface_is_mutually_nondominated(self):
        rng = np.random.default_rng(19)
        g = group_of([rng.uniform(0, 1, size=(6, 2)) for _ in range(4)])
        surface = attainment_surface(g, 0.5)
        pts = surface.points
        for i in range(len(pts)):
            others = np.delete(pts, i, axis=0)
            assert not np.any(
                np.all(others <= pts[i], axis=1) & np.any(others < pts[i], axis=1)
            )


@st.composite
def uniform_groups(draw):
    """Two groups of 2-6 runs of 1-8 uniform points in 2-4 objectives, so
    no coordinates tie."""
    m = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    return [
        group_of([rng.uniform(0, 1, (rng.integers(1, 9), m)) for _ in range(rng.integers(2, 7))], label)
        for label in "ab"
    ]


class TestSurfaceIsItsOwnFront:
    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(run_groups(dims=(2, 3, 4)), uniform_groups()),
        st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_pruning_leaves_it_unchanged(self, groups, level):
        # attainment_surface does not prune its FrontSet: its points must
        # already be unique, mutually non-dominated and in the order
        # np.unique(axis=0) gives, as prune_to_front returns them.
        for group in (*groups, RunGroup(groups[0].fronts + groups[1].fronts, "ab")):
            points = attainment_surface(group, level).points
            assert points.dtype == float and not points.flags.writeable
            assert np.array_equal(prune_to_front(points).points, points)


class TestEafTest:
    def test_identical_groups_statistic_zero(self):
        fronts = [[[0.2, 0.8]], [[0.8, 0.2]], [[0.5, 0.5]]]
        a = group_of(fronts, "a")
        b = group_of(fronts, "b")
        result = eaf_test(a, b, permutations=200, alpha=0.05, seed=1)
        assert result.statistic == 0.0
        assert not result.reject

    def test_fully_separated_groups_statistic_one(self):
        # Five consistent runs per optimizer, one clearly ahead: only the
        # true split (or its mirror) separates the attainment functions.
        a = group_of([[[0.0, 0.0]]] * 5, "fast")
        b = group_of([[[5.0, 5.0]]] * 5, "slow")
        result = eaf_test(a, b, permutations=2000, alpha=0.05, seed=2)
        assert result.statistic == 1.0
        assert result.reject
        assert result.p_value < 0.05

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(23)
        a = group_of([rng.uniform(0, 1, (3, 2)) for _ in range(4)], "a")
        b = group_of([rng.uniform(0, 1, (3, 2)) for _ in range(4)], "b")
        r1 = eaf_test(a, b, permutations=500, seed=9)
        r2 = eaf_test(a, b, permutations=500, seed=9)
        assert r1 == r2

    def test_statistic_symmetric_and_label_invariant(self):
        rng = np.random.default_rng(29)
        fronts_a = [rng.uniform(0, 1, (3, 2)) for _ in range(4)]
        fronts_b = [rng.uniform(0.2, 1.2, (3, 2)) for _ in range(4)]
        a = group_of(fronts_a, "a")
        b = group_of(fronts_b, "b")
        ab = eaf_test(a, b, permutations=300, seed=3)
        ba = eaf_test(b, a, permutations=300, seed=3)
        shuffled = group_of(fronts_a[::-1], "a2")
        sa = eaf_test(shuffled, b, permutations=300, seed=3)
        assert ab.statistic == ba.statistic
        assert ab.statistic == sa.statistic

    def test_statistic_in_unit_interval(self):
        rng = np.random.default_rng(31)
        a = group_of([rng.uniform(0, 1, (2, 2)) for _ in range(3)], "a")
        b = group_of([rng.uniform(0, 1, (2, 2)) for _ in range(3)], "b")
        result = eaf_test(a, b, permutations=200, seed=5)
        assert 0.0 <= result.statistic <= 1.0
        assert 0.0 <= result.p_value <= 1.0

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, float("nan")])
    def test_alpha_range_checked(self, alpha):
        a = group_of([[[0.0, 0.0]], [[1.0, 1.0]]], "a")
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            eaf_test(a, a, permutations=10, alpha=alpha, seed=0)

    def test_permutations_beyond_the_bound_fail_before_allocation(self, monkeypatch):
        # Lowered so that nothing large is allocated: 10 permutations still run.
        monkeypatch.setattr(eaf, "MAX_PERMUTATIONS", 10)
        a = group_of([[[0.0, 0.0]], [[1.0, 1.0]]], "a")
        assert eaf_test(a, a, permutations=10, seed=0).permutations == 10
        with pytest.raises(ValueError, match="11 permutations are more than the 10 supported"):
            eaf_test(a, a, permutations=11, seed=0)

    def test_runs_beyond_the_float32_limit_fail_before_allocation(self, monkeypatch):
        # Lowered so that no large input is built: 2 + 2 runs still run.
        monkeypatch.setattr(eaf, "MAX_RUNS", 4)
        a = group_of([[[0.0, 0.0]], [[1.0, 1.0]]], "a")
        b = group_of([[[0.0, 1.0]], [[1.0, 0.0]], [[0.5, 0.5]]], "b")
        assert eaf_test(a, a, permutations=10, seed=0).permutations == 10

        def no_patterns(groups):
            raise AssertionError("patterns built before the run bound was checked")

        monkeypatch.setattr(eaf, "_pattern_matrix", no_patterns)
        with pytest.raises(ValueError, match="5 runs are more than the 4 supported"):
            eaf_test(a, b, permutations=10, seed=0)

    def test_requires_two_runs_per_group(self):
        a = group_of([[[0.0, 0.0]]], "a")
        b = group_of([[[1.0, 1.0]], [[2.0, 2.0]]], "b")
        with pytest.raises(ValueError):
            eaf_test(a, b, permutations=10, seed=0)

    def test_null_rejection_rate_not_wild(self):
        # Small-scale calibration sanity; the acceptance suite runs the
        # full 200-repetition version.
        rng = np.random.default_rng(37)
        rejections = 0
        reps = 40
        for _ in range(reps):
            pool = [rng.uniform(0, 1, (3, 2)) for _ in range(10)]
            a = group_of(pool[:5], "a")
            b = group_of(pool[5:], "b")
            seed = int(rng.integers(2**63))
            result = eaf_test(a, b, permutations=300, alpha=0.05, seed=seed)
            rejections += result.reject
        assert rejections / reps <= 0.15


class TestScale:
    def test_paper_scale_in_bounded_memory(self):
        # 2 x 10 runs of 15 mutually non-dominated 3-D points: the dense
        # grid needed 891 MB here.
        rng = np.random.default_rng(43)
        groups = [
            group_of([shift + rng.dirichlet(np.ones(3), size=15) for _ in range(10)], label)
            for label, shift in (("a", 0.0), ("b", 0.1))
        ]
        tracemalloc.start()
        try:
            surface = attainment_surface(groups[0], 0.5)
            eaf_test(*groups, permutations=200, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert len(surface) > 0
        for z in surface.points:
            assert eaf_value(groups[0], z) >= 0.5

    def test_many_permutations_in_bounded_memory(self):
        # The workload's shape, 6 + 6 runs of 10 non-dominated 3-D points:
        # scoring each permutation with an int64 product peaked at 9.0 MB.
        rng = np.random.default_rng(53)
        groups = [
            group_of([1.0 + shift + 0.85 * rng.dirichlet(np.ones(3), size=10) for _ in range(6)], label)
            for label, shift in (("a", 0.0), ("b", 0.1))
        ]
        tracemalloc.start()
        try:
            eaf_test(*groups, permutations=100_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_oversized_sweep_fails_before_allocation(self):
        # 2 runs of 600 points in 4-D need a field of 1,200^3 cells per run,
        # in uint16 (1,200 layers); the test joins the group with itself.
        rng = np.random.default_rng(47)
        groups = [group_of([rng.dirichlet(np.ones(4), size=600)], label) for label in "ab"]
        group = RunGroup(groups[0].fronts + groups[1].fronts, "ab")
        for analysis, nbytes in (
            (lambda: attainment_surface(group, 0.5), 2 * 2 * 1200**3),
            (lambda: eaf_test(group, group), 4 * 2 * 1200**3),
        ):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=f"{nbytes} bytes"):
                    analysis()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20

