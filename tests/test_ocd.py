"""Convergence detectors on synthetic indicator streams and populations."""

from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from trumpbench.hv import union_box_volume
from trumpbench.indicators import (
    IDEAL_MARGIN,
    REF_OFFSET,
    FrontSet,
    fit_normalize_transform,
    indicator_block,
    simplex_lattice_weights,
)
from trumpbench.ocd import (
    Decision,
    OCDParams,
    RunIndicatorTracker,
    Stagnation,
    slope_is_zero,
    variance_below_limit,
)
from trumpbench.stats import chi2_cdf, t_quantile, t_sf

from tests.test_indicators import prune_loop

FRONT = np.array([[1.0, 2.0], [2.0, 1.0]])


def feed(params, streams):
    """Slide a window of ``params.window`` values over parallel streams and
    decide on every full window; return the stop generation or None."""
    tracker = RunIndicatorTracker(1, params)
    windows = {n: deque(maxlen=params.window) for n in streams}
    length = len(next(iter(streams.values())))
    for t in range(length):
        for n in streams:
            windows[n].append(streams[n][t])
        if t + 1 < params.window:
            continue
        if tracker.decide(windows) is Decision.CONVERGED:
            return t + 1
    return None


@st.composite
def population_windows(draw):
    """(m, window, populations): populations of 1 to 6 points on a coarse
    lattice, so values tie across points and generations, with some points
    repeated inside a population."""
    m = draw(st.sampled_from([2, 3]))
    window = draw(st.integers(3, 5))
    value = st.integers(0, 8).map(lambda k: k / 4)
    populations = []
    for _ in range(draw(st.integers(1, 2 * window))):
        rows = draw(st.lists(st.lists(value, min_size=m, max_size=m), min_size=1, max_size=6))
        repeats = draw(st.lists(st.sampled_from(rows), max_size=2))
        populations.append(np.array(rows + repeats))
    return m, window, populations


class LoopTracker:
    """Reference: the tracker that measured each window population and the
    reference with one indicator call apiece, as one pruned front each, and
    drew both test quantiles from scipy on every decision."""

    def __init__(self, m: int, params: OCDParams):
        self.params = params
        self.weights = simplex_lattice_weights(m)
        self.ref_point = np.full(m, 2.0 + REF_OFFSET)
        self.ideal = np.full(m, 1.0 - IDEAL_MARGIN)
        self.populations = deque(maxlen=params.window)
        self.consecutive_hits = 0

    def r2(self, front: np.ndarray) -> float:
        # One row of utilities per weight vector, as the single-front R2 had.
        dist = np.abs(front - self.ideal)
        utility = (self.weights[:, None, :] * dist[None, :, :]).max(axis=2)
        return float(utility.min(axis=1).mean())

    def update(self, population):
        pop = np.array(population, dtype=float, ndmin=2)
        self.populations.append(pop)
        window_points = np.vstack(self.populations)
        transform = fit_normalize_transform(window_points)
        reference = prune_loop(transform.apply(window_points))
        reference_hv = union_box_volume(self.ref_point - reference)

        def gaps(points):
            front = prune_loop(transform.apply(points))
            return {
                "hv": reference_hv - union_box_volume(self.ref_point - front),
                "eps": float((front[:, None, :] - reference[None, :, :]).max(axis=2).min(axis=0).max()),
                "r2": self.r2(front) - self.r2(reference),
            }

        if len(self.populations) < self.params.window:
            return gaps(pop), Decision.CONTINUE
        rows = [gaps(p) for p in self.populations]
        series = {name: np.array([row[name] for row in rows]) for name in ("hv", "eps", "r2")}
        return rows[-1], self.decide(series)

    def decide(self, series):
        p = self.params
        tracked = list(series.values())

        def variance_hit(v):
            statistic = (v.size - 1) * np.var(v, ddof=1) / p.var_limit
            return statistic < sps.chi2.ppf(p.alpha, v.size - 1)

        def slope_hit(y):
            n = y.size
            x = np.arange(n, dtype=float)
            sxx = float(((x - x.mean()) ** 2).sum())
            slope = float(((x - x.mean()) * (y - y.mean())).sum()) / sxx
            rss = float(((y - (y.mean() + slope * (x - x.mean()))) ** 2).sum())
            threshold = 1e-8 * max(1.0, float(np.abs(y).max()))
            if rss <= 1e-24 * max(1.0, float((y**2).sum())):
                return abs(slope) < threshold
            se = np.sqrt(rss / (n - 2) / sxx)
            return abs(slope) + float(sps.t.ppf(1.0 - p.alpha, n - 2)) * se < threshold

        hit = all(variance_hit(v) for v in tracked) or all(slope_hit(v) for v in tracked)
        self.consecutive_hits = self.consecutive_hits + 1 if hit else 0
        return Decision.CONVERGED if self.consecutive_hits >= 2 else Decision.CONTINUE


@st.composite
def tracker_runs(draw):
    """(m, params, populations): windows of 3 to 12 generations, and up to
    window + 4 populations of 1 to 6 points on a coarse lattice with points
    repeated inside a population; one objective may be constant throughout
    (span 0), and the run may settle on one population for its last
    generations, so that some windows score hits."""
    m = draw(st.sampled_from([2, 3]))
    window = draw(st.integers(3, 12))
    value = st.integers(0, 8).map(lambda k: k / 4)
    constant = draw(st.none() | st.integers(0, m - 1))
    populations = []
    for _ in range(draw(st.integers(1, window + 4))):
        rows = draw(st.lists(st.lists(value, min_size=m, max_size=m), min_size=1, max_size=6))
        repeats = draw(st.lists(st.sampled_from(rows), max_size=2))
        pop = np.array(rows + repeats)
        if constant is not None:
            pop[:, constant] = 1.5
        populations.append(pop)
    settled = draw(st.integers(0, len(populations) - 1))
    populations[settled:] = [populations[settled]] * (len(populations) - settled)
    return m, OCDParams(window=window), populations


@st.composite
def long_tracker_runs(draw):
    """(m, params, populations): a window of 3 or 10 generations, run from
    one generation past its fill point to 8 past it, or one that never
    fills (100000), run for 60 to 80 generations.  Populations hold 1 to 4
    lattice points and up to one repeat; they may drift down by 1/8 each
    generation, so that new points dominate old ones and the frame grows,
    and one objective may be constant throughout (span 0)."""
    m = draw(st.sampled_from([2, 3]))
    window = draw(st.sampled_from([3, 10, 100_000]))
    generations = draw(st.integers(60, 80) if window == 100_000 else st.integers(window + 1, window + 8))
    drift = draw(st.sampled_from([0.0, 0.125]))
    constant = draw(st.none() | st.integers(0, m - 1))
    value = st.integers(0, 8).map(lambda k: k / 4)
    populations = []
    for generation in range(generations):
        rows = draw(st.lists(st.lists(value, min_size=m, max_size=m), min_size=1, max_size=4))
        repeats = draw(st.lists(st.sampled_from(rows), max_size=1))
        pop = np.array(rows + repeats) - drift * generation
        if constant is not None:
            pop[:, constant] = 1.5
        populations.append(pop)
    return m, OCDParams(window=window), populations


def stop_generation(tracker, populations):
    """Update ``tracker`` with each population in turn; return the
    1-based generation that converged, or None."""
    for generation, population in enumerate(populations, 1):
        if tracker.update(population)[1] is Decision.CONVERGED:
            return generation
    return None


class TestOcdUpdate:
    def test_constant_stream_converges_at_window_plus_one(self):
        params = OCDParams(window=10)
        stop = feed(params, {"hv": [0.5] * 30})
        assert stop == 11

    def test_never_before_window_plus_one(self):
        for window in (3, 5, 10):
            params = OCDParams(window=window)
            stop = feed(params, {"hv": [0.0] * (window + 5)})
            assert stop == window + 1

    def test_linear_trend_never_converges(self):
        params = OCDParams(window=10)
        stop = feed(params, {"hv": list(np.arange(100, dtype=float))})
        assert stop is None

    def test_small_noise_converges_quickly(self):
        rng = np.random.default_rng(8)
        params = OCDParams(window=10, var_limit=1e-4)
        noise = 1.0 + rng.normal(0, np.sqrt(1e-6), size=30)
        stop = feed(params, {"hv": list(noise)})
        assert stop is not None
        assert stop <= 30

    def test_all_indicators_must_agree(self):
        params = OCDParams(window=5)
        streams = {"hv": [1.0] * 40, "eps": list(np.arange(40, dtype=float))}
        assert feed(params, streams) is None

    def test_forgetting_distant_history_is_irrelevant(self):
        # Two steep, hit-free decays of different length and scale feed into
        # the same settling tail; the stop must come the same number of
        # steps after each prefix ends.
        params = OCDParams(window=6)
        common = list(5000.0 * 0.55 ** np.arange(9)) + [2.0] * 20
        prefix_a = list(400000.0 * 0.55 ** np.arange(8))
        prefix_b = list(2.0e7 * 0.5 ** np.arange(13))
        stop_a = feed(params, {"hv": prefix_a + common})
        stop_b = feed(params, {"hv": prefix_b + common})
        assert stop_a is not None and stop_b is not None
        assert stop_a - len(prefix_a) == stop_b - len(prefix_b)

    def test_decision_reconstructable_from_windows_alone(self):
        # The stop time equals the first index where two consecutive
        # windows each pass one of the two tests.
        rng = np.random.default_rng(61)
        params = OCDParams(window=5)
        stream = list(np.cumsum(rng.uniform(0.5, 1.5, size=12))[::-1]) + list(
            1.0 + rng.normal(0, 1e-4, size=25)
        )
        hits = {}
        for t in range(params.window - 1, len(stream)):
            w = np.array(stream[t - params.window + 1 : t + 1])
            hits[t] = variance_below_limit(w, params.var_limit, params.alpha) or slope_is_zero(
                w, params.alpha
            )
        expected = next(
            (t + 1 for t in range(params.window, len(stream)) if hits[t] and hits[t - 1]),
            None,
        )
        assert feed(params, {"hv": stream}) == expected


    def test_a_miss_resets_the_hit_streak(self):
        tracker = RunIndicatorTracker(1, OCDParams(window=5))
        hit = {"hv": np.full(5, 0.5)}
        miss = {"hv": np.arange(5, dtype=float)}
        decisions = [tracker.decide(w) for w in (hit, miss, hit, hit)]
        assert decisions == [Decision.CONTINUE] * 3 + [Decision.CONVERGED]


class TestQuantiles:
    """Both tests compare against the scipy quantile of their own alpha and
    window: a series just inside each boundary is a hit, one just outside
    is not."""

    CASES = [(0.05, 3), (0.05, 10), (0.01, 10), (0.2, 12)]

    @pytest.mark.parametrize("alpha, n", CASES)
    def test_variance_boundary(self, alpha, n):
        var_limit = 1e-4
        pattern = np.where(np.arange(n) % 2, 1.0, -1.0)
        quantile = sps.chi2.ppf(alpha, n - 1)
        for side, hit in ((1 - 1e-6, True), (1 + 1e-6, False)):
            scale = np.sqrt(side * quantile * var_limit / ((n - 1) * np.var(pattern, ddof=1)))
            assert variance_below_limit(scale * pattern, var_limit, alpha) is hit

    @pytest.mark.parametrize("alpha, n", CASES)
    def test_slope_boundary(self, alpha, n):
        # A flat series plus a residual orthogonal to the trend: the bound is
        # the t quantile times the slope's standard error, scaled to the
        # threshold 1e-8 of a series near 1.
        x = np.arange(n, dtype=float)
        residual = np.where(np.arange(n) % 2, 1.0, -1.0)
        residual -= residual.mean()
        residual -= x * ((x - x.mean()) @ residual) / ((x - x.mean()) @ x)
        residual -= residual.mean()
        se_unit = np.sqrt((residual @ residual) / (n - 2) / ((x - x.mean()) @ (x - x.mean())))
        quantile = sps.t.ppf(1.0 - alpha, n - 2)
        for side, hit in ((1 - 1e-4, True), (1 + 1e-4, False)):
            scale = side * 1e-8 / (quantile * se_unit)
            assert slope_is_zero(1.0 + scale * residual, alpha) is hit


class TestQuantileOracle:
    """scipy.stats at its own quantiles, each oracle call vectorized over
    1 to 600 degrees of freedom: ``t_quantile``, which ``ci_halfwidth``
    takes, equals ``t.ppf`` bit for bit; the closed-form tails that the OCD
    tests take lie within rtol 1e-9 of ``chi2.cdf`` and ``t.sf`` at the
    points ``chi2.ppf(q)`` and ``t.isf(q)``, where the tail is q."""

    DOFS = np.arange(1, 601)
    QS = [1e-6, 0.001, 0.01, 0.025, 0.05, 0.1, 0.2, 0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999, 1 - 1e-6, 1.0]
    TAILS = [1e-6, 1e-5, 1e-4, *QS[1:]]

    @pytest.mark.parametrize("q", TAILS)
    def test_chi2(self, q):
        xs = sps.chi2.ppf(q, self.DOFS)
        got = [chi2_cdf(x, dof) for x, dof in zip(xs.tolist(), self.DOFS.tolist())]
        np.testing.assert_allclose(got, sps.chi2.cdf(xs, self.DOFS), rtol=1e-9, atol=0)

    @pytest.mark.parametrize("q", TAILS)
    def test_t_sf(self, q):
        ts = sps.t.isf(q, self.DOFS)
        got = [t_sf(t, dof) for t, dof in zip(ts.tolist(), self.DOFS.tolist())]
        np.testing.assert_allclose(got, sps.t.sf(ts, self.DOFS), rtol=1e-9, atol=0)

    @pytest.mark.parametrize("dof", [1, 2, 3, 8, 9, 600])
    def test_tail_ends(self, dof):
        assert chi2_cdf(0.0, dof) == 0.0 and chi2_cdf(-1.0, dof) == 0.0 and chi2_cdf(np.inf, dof) == 1.0
        assert t_sf(0.0, dof) == 0.5 and t_sf(np.inf, dof) == 0.0 and t_sf(-np.inf, dof) == 1.0
        # Cauchy's tail at 1e300 is 1 / (pi 1e300); more dof give less.
        assert 0.0 <= t_sf(1e300, dof) < 3.2e-301 and t_sf(-1e300, dof) == 1.0

    @pytest.mark.parametrize("q", QS)
    def test_t(self, q):
        expected = sps.t.ppf(q, self.DOFS).tolist()
        assert [t_quantile(q, dof) for dof in self.DOFS.tolist()] == expected


ALPHAS = st.sampled_from([0.01, 0.05, 0.2, 0.5])


class TestDecisionsAreTheQuantileComparisons:
    """Each test's p-value against alpha decides as its statistic against
    the scipy quantile of alpha did, on random series; a statistic within
    1e-8 (relative) of that quantile is skipped, since either side of it is
    rounding."""

    @settings(max_examples=400, deadline=None)
    @given(st.integers(3, 40), ALPHAS, st.floats(-2.0, 1.0), st.data())
    def test_variance(self, n, alpha, exponent, data):
        var_limit = 1e-4
        pattern = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
        values = 0.5 + 10.0**exponent * np.sqrt(var_limit) * pattern
        statistic = (n - 1) * np.var(values, ddof=1) / var_limit
        quantile = sps.chi2.ppf(alpha, n - 1)
        assume(abs(statistic - quantile) > 1e-8 * quantile)
        assert variance_below_limit(values, var_limit, alpha) is bool(statistic < quantile)

    @settings(max_examples=400, deadline=None)
    @given(st.integers(3, 40), ALPHAS, st.floats(-1.5, 1.5), st.floats(-2.0, 1.0), st.data())
    def test_slope(self, n, alpha, slope, exponent, data):
        # Slopes and residuals of the order of the threshold 1e-8 of a
        # series near 1, so that both sides of the bound come up.
        pattern = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
        x = np.arange(n, dtype=float)
        y = 1.0 + 1e-8 * (slope * x + 10.0**exponent * pattern)
        sxx = float(((x - x.mean()) ** 2).sum())
        fitted = float(((x - x.mean()) * (y - y.mean())).sum()) / sxx
        rss = float(((y - (y.mean() + fitted * (x - x.mean()))) ** 2).sum())
        threshold = 1e-8 * max(1.0, float(np.abs(y).max()))
        quantile = float(sps.t.ppf(1.0 - alpha, n - 2))
        if rss <= 1e-24 * max(1.0, float((y**2).sum())):
            expected = abs(fitted) < threshold
        else:
            se = np.sqrt(rss / (n - 2) / sxx)
            assume(abs((threshold - abs(fitted)) / se - quantile) > 1e-8 * abs(quantile))
            expected = abs(fitted) + quantile * se < threshold
        assert slope_is_zero(y, alpha) is bool(expected)


class TestParams:
    def test_window_floor(self):
        with pytest.raises(ValueError):
            OCDParams(window=2)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            OCDParams(alpha=1.0)

    def test_var_limit_positive(self):
        with pytest.raises(ValueError):
            OCDParams(var_limit=0.0)

    def test_var_limit_nan(self):
        # A NaN limit would make a variance test that never fires.
        with pytest.raises(ValueError, match="var_limit must be positive"):
            OCDParams(var_limit=float("nan"))


class StagnationOracle:
    """Reference: the window as a deque of rows, copied into an array once full."""

    def __init__(self, window: int, tol: float):
        self.tol = tol
        self.rows = deque(maxlen=window)

    def update(self, fitness):
        f = np.asarray(fitness, dtype=float)
        row = {"min": float(f.min()), "mean": float(f.mean()), "max": float(f.max())}
        self.rows.append(tuple(row.values()))
        if len(self.rows) < self.rows.maxlen:
            return row, Decision.CONTINUE
        series = np.array(self.rows)
        stagnant = np.all(series.max(axis=0) - series.min(axis=0) < self.tol)
        return row, Decision.CONVERGED if stagnant else Decision.CONTINUE


def assert_stagnation_matches_oracle(window, tol, stream):
    detector, oracle = Stagnation(window, tol), StagnationOracle(window, tol)
    for fitness in stream:
        assert detector.update(fitness) == oracle.update(fitness)


class TestStagnation:
    def test_constant_series_converge(self):
        detector = Stagnation(window=5, tol=1e-9)
        decisions = [detector.update([-31.0, -31.0, -30.0])[1] for _ in range(5)]
        assert decisions[-1] is Decision.CONVERGED
        assert all(d is Decision.CONTINUE for d in decisions[:-1])

    def test_improving_series_continue(self):
        detector = Stagnation(window=5, tol=1e-9)
        for t in range(20):
            row, decision = detector.update([-30.0 - 1e-3 * t, -29.0, -28.0])
        assert decision is Decision.CONTINUE
        assert row["min"] == pytest.approx(-30.019)

    def test_spread_below_tol_in_every_series_required(self):
        # min and mean stay put; only max moves, and it alone keeps the run going.
        detector = Stagnation(window=3, tol=1e-9)
        detector.update([0.0, 0.0, 0.0])
        detector.update([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, -0.5])
        assert detector.update([0.0, 0.0, 0.0])[1] is Decision.CONTINUE

    def test_trace_row_is_min_mean_max(self):
        row, _ = Stagnation(window=2, tol=1e-9).update([-3.0, -1.0, -2.0])
        assert row == {"min": -3.0, "mean": -2.0, "max": -1.0}

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 12),
        st.sampled_from([1e-9, 0.5, 2.0]),
        st.lists(
            st.lists(st.floats(-4.0, 4.0).map(lambda x: round(x * 4) / 4), min_size=1, max_size=6),
            max_size=40,
        ),
    )
    def test_random_streams_match_deque_oracle(self, window, tol, stream):
        # Values on a quarter grid make spreads of exactly tol (0.5, 2.0) common.
        assert_stagnation_matches_oracle(window, tol, stream)

    @pytest.mark.parametrize("window", [2, 3, 7])
    def test_constant_stream_matches_deque_oracle(self, window):
        assert_stagnation_matches_oracle(window, 1e-9, [[-31.0, -30.0]] * (3 * window + 1))

    @pytest.mark.parametrize("spread", [0.5, np.nextafter(0.5, 0.0)], ids=["at-tol", "below-tol"])
    def test_tol_boundary_matches_deque_oracle(self, spread):
        # A window's spread of exactly tol goes on; one just below stops.
        stream = [[0.0], [spread], [spread], [spread], [0.0], [0.0]]
        assert_stagnation_matches_oracle(2, 0.5, stream)
        decisions = [d for _, d in map(Stagnation(2, 0.5).update, stream)]
        stops = Decision.CONVERGED if spread < 0.5 else Decision.CONTINUE
        assert decisions == [Decision.CONTINUE, stops, Decision.CONVERGED, Decision.CONVERGED, stops, Decision.CONVERGED]


class TestRunIndicatorTracker:
    def test_stable_population_yields_constant_values(self):
        tracker = RunIndicatorTracker(2, OCDParams())
        first, _ = tracker.update(FRONT)
        second, _ = tracker.update(FRONT)
        assert first == second
        assert first["hv"] == pytest.approx(0.0)
        assert first["eps"] == pytest.approx(0.0)
        assert all(np.isfinite(v) for v in first.values())

    @pytest.mark.parametrize("window", [3, 5, 10])
    def test_stable_population_stops_at_window_plus_one(self, window):
        # No decision before the window is full; the first full window is
        # a hit and the next one stops the run.
        tracker = RunIndicatorTracker(2, OCDParams(window=window))
        assert stop_generation(tracker, [FRONT] * (3 * window)) == window + 1

    def test_a_miss_resets_the_streak_of_a_run(self):
        # One hit at generation `window`; a single step of the front keeps
        # every window that holds both fronts a miss.  Without the reset the
        # first hit after the step would already be the second one.
        window = 5
        tracker = RunIndicatorTracker(2, OCDParams(window=window))
        populations = [FRONT] * window + [FRONT - 0.5] * (3 * window)
        assert stop_generation(tracker, populations) == 2 * window + 1

    def test_moving_front_stops_only_after_it_holds_still(self):
        # A front that gains a fixed step each generation scores 0 against
        # its own window's reference in every generation; only the whole
        # window re-measured shows the trend.  The stop must come after the
        # front stops moving, within window + 1 generations.
        window, moves = 10, 40
        base = np.array([[1.0, 3.0], [1.5, 2.0], [2.0, 1.5], [3.0, 1.0]]) + 5.0
        tracker = RunIndicatorTracker(2, OCDParams(window=window))
        populations = [base - 0.05 * min(g, moves) for g in range(1, moves + 3 * window)]
        stop = stop_generation(tracker, populations)
        assert stop is not None
        assert moves < stop <= moves + window + 1

    def test_full_window_remeasures_older_populations(self, monkeypatch):
        # Each population is measured once, in the newest generation's frame;
        # the trace row is the newest population's entry of the series.
        tracker = RunIndicatorTracker(2, OCDParams(window=3))
        decided = []
        decide = tracker.decide

        def recording_decide(series):
            decided.append(series)
            return decide(series)

        monkeypatch.setattr(tracker, "decide", recording_decide)
        for shift in (0.0, 0.5, 1.0):
            newest, _ = tracker.update(FRONT - shift)
        assert len(decided) == 1
        series = decided[0]
        assert newest == {name: series[name][-1] for name in series}
        assert series["hv"][0] > series["hv"][1] > series["hv"][2] == pytest.approx(0.0)
        assert np.all(series["eps"] >= 0.0)

    def test_reference_is_nondominated_union_of_window(self):
        # The first population dominates everything but leaves the window;
        # of the two points the second holds, [3, 3] is dominated.  The
        # newest population is then exactly the reference set, and scores 0.
        tracker = RunIndicatorTracker(2, OCDParams(window=3))
        for pop in ([[0.0, 0.0]], [[1.0, 2.0], [3.0, 3.0]], [[2.0, 1.0]]):
            row, _ = tracker.update(np.array(pop))
        assert row["hv"] > 0.0 and row["eps"] > 0.0
        row, _ = tracker.update(FRONT)
        assert len(tracker.populations) == 3
        assert row == pytest.approx({"hv": 0.0, "eps": 0.0, "r2": 0.0}, abs=1e-12)
        # [1, 2] of the generation before still belongs to the reference.
        row, _ = tracker.update(np.array([[2.0, 1.0]]))
        assert row["eps"] > 0.0

    def test_rejects_malformed_population(self):
        tracker = RunIndicatorTracker(2, OCDParams())
        with pytest.raises(ValueError):
            tracker.update(np.empty((0, 2)))
        with pytest.raises(ValueError):
            tracker.update(np.array([[1.0, 2.0, 3.0]]))

    @settings(max_examples=60, deadline=None)
    @given(tracker_runs())
    def test_rows_and_decisions_match_loop_tracker(self, case):
        # One batch per generation must give every row and decision of the
        # tracker that measured each population on its own, bit for bit.
        m, params, populations = case
        tracker, loop = RunIndicatorTracker(m, params), LoopTracker(m, params)
        for pop in populations:
            assert tracker.update(pop) == loop.update(pop)

    @settings(max_examples=40, deadline=None)
    @given(long_tracker_runs())
    def test_front_before_the_window_fills_matches_loop_tracker(self, case):
        # Until its window fills the tracker keeps the raw front and the
        # running minima and maxima instead of the window's populations;
        # every row and decision must still be the loop tracker's, bit for
        # bit, before the fill point, across it, and in a window that never fills.
        m, params, populations = case
        tracker, loop = RunIndicatorTracker(m, params), LoopTracker(m, params)
        for pop in populations:
            assert tracker.update(pop) == loop.update(pop)

    @pytest.mark.parametrize("window", [3, 10, 100_000])
    def test_points_that_meet_in_the_frame_match_loop_tracker(self, window):
        # 0.7 and the next float above it are distinct raw values that the
        # frame of the range [0, 3] maps onto one float. So (a, 2) beside
        # (b, 1), both on the raw front, becomes a dominated point and its
        # dominator, and (a, b) beside (b, a) becomes two equal points.
        a, b = 0.7, np.nextafter(0.7, 1.0)
        populations = [
            np.array([[0.0, 3.0], [3.0, 0.0]]),
            np.array([[a, 2.0], [b, 1.0]]),
            np.array([[a, b], [b, a]]),
            np.array([[a, 2.0], [b, 1.0], [2.5, 0.5]]),
        ]
        populations += [populations[-1]] * 12
        frame = fit_normalize_transform(np.vstack(populations))
        assert a != b and np.array_equal(*frame.apply([[a, b], [b, a]]))
        tracker, loop = RunIndicatorTracker(2, OCDParams(window=window)), LoopTracker(2, OCDParams(window=window))
        for pop in populations:
            assert tracker.update(pop) == loop.update(pop)

    @settings(max_examples=100, deadline=None)
    @given(population_windows())
    def test_rows_equal_indicator_block_in_window_frame(self, case):
        # The tracker keeps its own copy of the [1, 2] frame (reference
        # point, R2 weights, ideal point); each row must equal
        # indicator_block of the newest population against the window's
        # reference set, with r2 taken relative to the reference's own r2.
        m, window, populations = case
        tracker = RunIndicatorTracker(m, OCDParams(window=window))
        for t, pop in enumerate(populations):
            row, _ = tracker.update(pop)
            window_points = np.vstack(populations[max(0, t + 1 - window) : t + 1])
            transform = fit_normalize_transform(window_points)
            reference = FrontSet(transform.apply(window_points))
            block = indicator_block(FrontSet(transform.apply(pop)), reference)
            reference_r2 = indicator_block(reference, reference)["r2"]
            assert row == {"hv": block["hv"], "eps": block["eps"], "r2": block["r2"] - reference_r2}
