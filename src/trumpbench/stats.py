"""Confidence-interval halfwidths: of a sample mean, which the sample-size
study of games per evaluation takes, and of a human-playtest budget."""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import stats as sps


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
