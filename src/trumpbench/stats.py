"""Confidence-interval halfwidth of a sample mean, which the sample-size
study of games per evaluation takes.

The Student t quantile is ``scipy.stats``' own formula (``t.ppf`` returns
the very same float), called through ``scipy.special.stdtrit``.
``scipy.special`` is imported at that call, not with this module: it costs
a fresh process ~0.1 s and ~24 MB, and most processes never compute an
interval.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def ci_halfwidth(samples: Sequence[float], alpha: float = 0.05) -> float:
    """Halfwidth of the two-sided (1 - alpha) t interval for the mean."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("need at least two samples for a confidence interval")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    sd = float(np.std(x, ddof=1))
    from scipy import special

    return special.stdtrit(n - 1, 1.0 - alpha / 2.0) * sd / np.sqrt(n)
