"""Confidence-interval arithmetic and the sample-size study."""

import numpy as np
import pytest

from scipy import stats as sps

from trumpbench.deck import DeckShape
from trumpbench.experiments import BALANCE_METRICS, balance_metric_study
from trumpbench.game import Policy, draw_deals, play_deals
from trumpbench.stats import ci_halfwidth
from trumpbench.synth import deck_with_dominating_pairs

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

ALPHAS = (1e-6, 0.01, 0.05, 0.2, 0.9)


class TestTQuantile:
    """The Student-t quantile that ``ci_halfwidth`` applies, and the range
    of alpha that it and the sample-size study accept."""

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

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, 2.0, np.nan])
    @pytest.mark.parametrize(
        "halfwidth",
        [
            lambda alpha: ci_halfwidth([0.0, 1.0, 3.0], alpha),
            lambda alpha: balance_metric_study(
                deck_with_dominating_pairs(DeckShape(K=8, L=2), 0), [30], 2, alpha, seed=0
            ),
        ],
        ids=["ci_halfwidth", "balance_metric_study"],
    )
    def test_rejects_alpha_outside_unit_interval(self, halfwidth, alpha):
        # Outside (0, 1) the quantile is no interval's: 1 - alpha / 2 = 0 at
        # alpha = 2, where stdtrit gives +inf and t.ppf -inf, and a quantile
        # below the median gives negative widths.
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            halfwidth(alpha)

    def test_ci_halfwidth_is_the_scipy_stats_formula(self):
        # Bit for bit and of the same type (np.float64) as t.ppf gives.
        rng = np.random.default_rng(5)
        for n in range(2, 200):
            samples = rng.normal(0.0, 1.0, size=n)
            sd = float(np.std(samples, ddof=1))
            for alpha in ALPHAS:
                got = ci_halfwidth(samples, alpha)
                expected = sps.t.ppf(1.0 - alpha / 2.0, n - 1) * sd / np.sqrt(n)
                assert got == expected and type(got) is type(expected), (n, alpha)


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


def study_rows(text):
    """The (size, metric, halfwidth) rows of a sample-size study's CSV."""
    lines = text.splitlines()
    assert lines[0] == "size,metric,halfwidth_q95"
    return [(int(size), metric, float(width)) for size, metric, width in (line.split(",") for line in lines[1:])]


def recomputed_study(deck, sizes, repeats, alpha, seed):
    """The study's rows by hand: per size, ``repeats`` fresh batches of
    informed-vs-range-only games drawn from one generator, and per metric
    the .95 quantile of their interval halfwidths."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 99)))
    rows = []
    for size in sizes:
        widths = {metric: [] for metric in BALANCE_METRICS}
        for _ in range(repeats):
            deals = draw_deals(deck.shape.K, size, rng)
            tricks_a, tricks_b, changes = play_deals(deck, (Policy.INFORMED, Policy.RANGE_ONLY), deals)
            widths["win_rate"].append(ci_halfwidth((tricks_a > tricks_b).astype(float), alpha))
            widths["announcer_changes"].append(ci_halfwidth(changes, alpha))
            widths["tightness"].append(ci_halfwidth(np.abs(2 * tricks_a - deck.shape.K // 2), alpha))
        rows += [(size, metric, float(np.quantile(widths[metric], 0.95))) for metric in BALANCE_METRICS]
    return rows


class TestSampleSizeStudy:
    """The sample-size study of the balance metrics, ``balance_metric_study``."""

    def test_deterministic_given_seed(self):
        # Every value is fixed by the seed: the one a hand recomputation on
        # the same generator stream gives.
        deck = deck_with_dominating_pairs(DeckShape(K=8, L=2), 0)
        for sizes, repeats, alpha, seed in (([2, 30], 2, 0.05, 0), ([75, 10, 75], 5, 0.2, 4), ([4100], 3, 0.05, 9)):
            text = balance_metric_study(deck, sizes, repeats, alpha, seed)
            assert study_rows(text) == recomputed_study(deck, sizes, repeats, alpha, seed)

    def test_csv_output(self):
        deck = deck_with_dominating_pairs(DeckShape(K=8, L=2), 0)
        text = balance_metric_study(deck, [30, 10], 3, 0.05, seed=1)
        assert text.endswith("\n")
        rows = study_rows(text)
        # One line per size, in the given order, and metric, in BALANCE_METRICS order.
        assert [(size, metric) for size, metric, _ in rows] == [
            (size, metric) for size in (30, 10) for metric in BALANCE_METRICS
        ]
        # Each halfwidth is written as its repr, which reads back exactly.
        for line, (_, _, width) in zip(text.splitlines()[1:], rows):
            assert line.split(",")[2] == repr(width)

    def test_binomial_scaling(self):
        # An informed win is a Bernoulli draw, so the halfwidth at n games is
        # t(0.975, n - 1) * sqrt(p (1 - p) / n) for the deck's win rate p.
        deck = deck_with_dominating_pairs(DeckShape(), 0)
        tricks_a, tricks_b, _ = play_deals(
            deck, (Policy.INFORMED, Policy.RANGE_ONLY), draw_deals(deck.shape.K, 20_000, np.random.default_rng(5))
        )
        p = np.mean(tricks_a > tricks_b)
        rows = study_rows(balance_metric_study(deck, [400, 1600], 60, 0.05, seed=7))
        win_rows = [(size, width) for size, metric, width in rows if metric == "win_rate"]
        for size, width in win_rows:
            assert width == pytest.approx(sps.t.ppf(0.975, size - 1) * np.sqrt(p * (1 - p) / size), rel=0.05)

    def test_inverse_sqrt_scaling_on_iid_sampler(self):
        # The games of a batch are independent, so every metric's halfwidth
        # falls as 1 / sqrt(games).
        deck = deck_with_dominating_pairs(DeckShape(), 0)
        sizes = [100, 400, 1600, 6400]
        rows = study_rows(balance_metric_study(deck, sizes, 40, 0.05, seed=11))
        for metric in BALANCE_METRICS:
            widths = [width for _, name, width in rows if name == metric]
            slope = np.polyfit(np.log(sizes), np.log(widths), 1)[0]
            assert slope == pytest.approx(-0.5, abs=0.1)
