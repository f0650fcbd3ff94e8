"""Confidence-interval arithmetic and the sample-size study."""

import numpy as np
import pytest

from scipy import stats as sps

from trumpbench.stats import ci_halfwidth, playtest_feasibility, sample_size_study

# Standard two-sided 97.5% t quantiles for selected degrees of freedom.
T_TABLE = {
    1: 12.7062,
    2: 4.3027,
    3: 3.1824,
    4: 2.7764,
    5: 2.5706,
    9: 2.2622,
    10: 2.2281,
    19: 2.0930,
    29: 2.0452,
}


class TestTQuantile:
    """The Student-t quantile that both interval functions apply."""

    def test_matches_published_table(self):
        # With n samples the halfwidth is t(0.975, n - 1) * sd / sqrt(n).
        rng = np.random.default_rng(1)
        for dof, expected in T_TABLE.items():
            samples = rng.normal(0, 1, size=dof + 1)
            scale = np.std(samples, ddof=1) / np.sqrt(dof + 1)
            assert ci_halfwidth(samples, alpha=0.05) / scale == pytest.approx(expected, abs=5e-5)

    def test_rejects_zero_dof(self):
        # One observation leaves n - 1 = 0 degrees of freedom.
        with pytest.raises(ValueError):
            ci_halfwidth([1.0])
        with pytest.raises(ValueError):
            playtest_feasibility([0.5], players=1, games_each=1)


class TestCiHalfwidth:
    def test_constant_samples(self):
        assert ci_halfwidth([2.0, 2.0, 2.0, 2.0], alpha=0.05) == 0.0

    def test_known_four_sample_case(self):
        # n=4 samples with sample sd exactly 2: halfwidth = t(0.975,3)*2/2.
        samples = [0.0, 0.0, 4.0, 0.0]
        sd = np.std(samples, ddof=1)
        assert sd == pytest.approx(2.0)
        assert ci_halfwidth(samples, alpha=0.05) == pytest.approx(3.1824, abs=2e-4)

    def test_quadrupling_n_roughly_halves_width(self):
        rng = np.random.default_rng(3)
        small = ci_halfwidth(rng.normal(0, 1, size=500), alpha=0.05)
        large = ci_halfwidth(rng.normal(0, 1, size=2000), alpha=0.05)
        assert large == pytest.approx(small / 2, rel=0.15)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            ci_halfwidth([1.0])


class TestSampleSizeStudy:
    def test_zero_variance_sampler(self):
        table = sample_size_study(
            lambda size, rng: np.full(size, 1.0),
            sizes=[10, 100],
            repeats=5,
            alpha=0.05,
            rng=np.random.default_rng(0),
        )
        assert all(row.halfwidth_q95 == 0.0 for row in table.rows)

    def test_binomial_scaling(self):
        def sampler(size, rng):
            return (rng.random(size) < 0.5).astype(float)

        table = sample_size_study(
            sampler, sizes=[400, 1600], repeats=60, alpha=0.05, rng=np.random.default_rng(7)
        )
        w400 = table.rows[0].halfwidth_q95
        w1600 = table.rows[1].halfwidth_q95
        assert w400 == pytest.approx(2 * w1600, rel=0.25)

    def test_inverse_sqrt_scaling_on_iid_sampler(self):
        sizes = [100, 400, 1600, 6400]
        table = sample_size_study(
            lambda size, rng: rng.normal(0, 1, size),
            sizes=sizes,
            repeats=40,
            alpha=0.05,
            rng=np.random.default_rng(11),
        )
        widths = [row.halfwidth_q95 for row in table.rows]
        slope = np.polyfit(np.log(sizes), np.log(widths), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)

    def test_deterministic_given_seed(self):
        def sampler(size, rng):
            return rng.normal(0, 1, size)

        t1 = sample_size_study(sampler, [50, 100], 10, 0.05, np.random.default_rng(4))
        t2 = sample_size_study(sampler, [50, 100], 10, 0.05, np.random.default_rng(4))
        assert t1 == t2

    def test_several_metrics_from_one_sampler(self):
        def one(size, rng):
            return rng.normal(0, 1, size)

        def both(size, rng):
            x = rng.normal(0, 1, size)
            return np.array([x, 3 * x])

        single = sample_size_study(one, [20, 40], 5, 0.05, np.random.default_rng(2))
        table = sample_size_study(
            both, [20, 40], 5, 0.05, np.random.default_rng(2), metric=("x", "3x")
        )
        assert [(r.sample_size, r.metric) for r in table.rows] == [
            (20, "x"), (20, "3x"), (40, "x"), (40, "3x"),
        ]
        x_rows, scaled_rows = table.rows[0::2], table.rows[1::2]
        assert [r.halfwidth_q95 for r in x_rows] == [r.halfwidth_q95 for r in single.rows]
        for x_row, scaled in zip(x_rows, scaled_rows):
            assert scaled.halfwidth_q95 == pytest.approx(3 * x_row.halfwidth_q95)

    def test_sampler_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            sample_size_study(
                lambda size, rng: np.zeros((2, size)), [10], 3, 0.05,
                np.random.default_rng(0), metric=("a", "b", "c"),
            )

    def test_csv_output(self):
        table = sample_size_study(
            lambda size, rng: np.full(size, 2.0),
            sizes=[10],
            repeats=3,
            alpha=0.05,
            rng=np.random.default_rng(1),
            metric="win_rate",
        )
        lines = table.to_csv().splitlines()
        assert lines[0] == "size,metric,halfwidth_q95"
        assert lines[1].startswith("10,win_rate,")


class TestPlaytestFeasibility:
    def test_zero_sd_gives_zero_width(self):
        widths = playtest_feasibility([0.0, 0.0], players=100, games_each=10)
        assert np.all(widths == 0.0)

    def test_standard_formula(self):
        sd = np.array([0.0427, 0.3191, 0.3576])
        widths = playtest_feasibility(sd, players=100, games_each=10, alpha=0.05)
        expected = sps.t.ppf(0.975, 999) * sd / np.sqrt(1000)
        assert widths == pytest.approx(expected)

    def test_halving_n_scales_by_sqrt_two(self):
        sd = [0.5]
        wide = playtest_feasibility(sd, players=50, games_each=10)[0]
        narrow = playtest_feasibility(sd, players=100, games_each=10)[0]
        # t quantiles at n=500 and n=1000 are nearly equal, so the ratio is ~sqrt(2).
        assert wide / narrow == pytest.approx(np.sqrt(2), rel=0.01)
