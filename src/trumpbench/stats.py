"""Confidence-interval halfwidths: of a sample mean, which the sample-size
study of games per evaluation takes, and of a human-playtest budget.

The Student t quantile is ``scipy.stats``' own formula (``t.ppf`` returns
the very same float), called through ``scipy.special.stdtrit``: importing
``scipy.stats`` would take most of every process's start-up.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import special


def _two_sided_t_quantile(alpha: float, dof: int) -> np.float64:
    """The two-sided (1 - alpha) t quantile, ``scipy.stats.t.ppf(1 - alpha / 2, dof)``."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return special.stdtrit(dof, 1.0 - alpha / 2.0)


def ci_halfwidth(samples: Sequence[float], alpha: float = 0.05) -> float:
    """Halfwidth of the two-sided (1 - alpha) t interval for the mean."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("need at least two samples for a confidence interval")
    sd = float(np.std(x, ddof=1))
    return _two_sided_t_quantile(alpha, n - 1) * sd / np.sqrt(n)


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
    return _two_sided_t_quantile(alpha, n - 1) * sd / np.sqrt(n)
