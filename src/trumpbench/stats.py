"""Confidence intervals and the sample-size study used to pick how many
games per evaluation and how many optimizer runs per approach."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import stats as sps


@dataclass(frozen=True)
class SampleSizeRow:
    sample_size: int
    metric: str
    halfwidth_q95: float


@dataclass(frozen=True)
class SampleSizeTable:
    rows: tuple[SampleSizeRow, ...]

    def to_csv(self) -> str:
        lines = ["size,metric,halfwidth_q95"]
        for r in self.rows:
            lines.append(f"{r.sample_size},{r.metric},{r.halfwidth_q95!r}")
        return "\n".join(lines) + "\n"


def ci_halfwidth(samples: Sequence[float], alpha: float = 0.05) -> float:
    """Halfwidth of the two-sided (1 - alpha) t interval for the mean."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("need at least two samples for a confidence interval")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    sd = float(np.std(x, ddof=1))
    return sps.t.ppf(1.0 - alpha / 2.0, n - 1) * sd / np.sqrt(n)


# A sampler draws `size` per-observation metric values (e.g. one win
# indicator per simulated game) so each repeat yields its own interval.
# A sampler of several metrics returns one row of `size` values per metric.
MetricSampler = Callable[[int, np.random.Generator], np.ndarray]


def sample_size_study(
    sampler: MetricSampler,
    sizes: Sequence[int],
    repeats: int,
    alpha: float,
    rng: np.random.Generator,
    metric: str | Sequence[str] = "metric",
) -> SampleSizeTable:
    """For each sample size, the .95 quantile of the CI halfwidth over repeats.

    Each repeat draws a fresh size-long sample, computes its t interval,
    and the upper quantile of those halfwidths is reported as the accuracy
    attainable at that size.  With several metric names, each repeat's
    sample holds one row per metric and the table one row per size and
    metric, in that order.
    """
    names = (metric,) if isinstance(metric, str) else tuple(metric)
    if repeats < 2:
        raise ValueError("need at least two repeats")
    if any(size < 2 for size in sizes):
        raise ValueError(f"every sample size must be at least 2, got {list(sizes)}")
    rows = []
    for size in sizes:
        halfwidths = np.empty((len(names), repeats))
        for r in range(repeats):
            values = np.atleast_2d(np.asarray(sampler(int(size), rng), dtype=float))
            if values.shape != (len(names), size):
                raise ValueError(
                    f"sampler returned values of shape {values.shape} for "
                    f"{len(names)} metric(s) of requested size {size}"
                )
            for j, row in enumerate(values):
                halfwidths[j, r] = ci_halfwidth(row, alpha)
        for name, widths in zip(names, halfwidths):
            q95 = float(np.quantile(widths, 0.95))
            rows.append(SampleSizeRow(sample_size=int(size), metric=name, halfwidth_q95=q95))
    return SampleSizeTable(tuple(rows))


def playtest_feasibility(
    sd_vector: Sequence[float],
    players: int,
    games_each: int,
    alpha: float = 0.05,
) -> np.ndarray:
    """Per-metric CI halfwidths from a human-playtest budget.

    With n = players * games_each observations per metric and the given
    per-game standard deviations, this is the accuracy a survey could reach.
    """
    n = players * games_each
    if n < 2:
        raise ValueError("need at least two observations in total")
    sd = np.asarray(sd_vector, dtype=float)
    return sps.t.ppf(1.0 - alpha / 2.0, n - 1) * sd / np.sqrt(n)
