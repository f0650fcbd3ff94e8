"""The chi-square and Student t quantiles of OCD's tests, and the
confidence-interval halfwidth of a sample mean, which the sample-size study
of games per evaluation takes.

Each quantile is ``scipy.stats``' own formula (``chi2.ppf`` and ``t.ppf``
return the very same floats), called through the ``scipy.special``
function it rests on. ``scipy.special`` is imported at the first quantile,
not with this module: it costs a fresh process ~0.1 s and ~24 MB, and D
runs, ``simulate``, ``indicators`` and ``eaf`` never compute one.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np


# A quantile depends only on its level and degrees of freedom, so every OCD
# decision of a run reuses its two: a cache hit instead of the ~2 µs each
# scipy.special call takes (timeit, 2-core x86-64 box).
@functools.cache
def chi2_quantile(q: float, dof: int) -> float:
    """``scipy.stats.chi2.ppf(q, dof)``, bit for bit: the formula of its ``_ppf``."""
    from scipy import special

    return float(2 * special.gammaincinv(dof / 2, q))


@functools.cache
def t_quantile(q: float, dof: int) -> float:
    """``scipy.stats.t.ppf(q, dof)``, bit for bit: the formula of its ``_ppf``.

    That holds for q in (0, 1], where every caller keeps its level: at
    q = 0 ``stdtrit`` gives +inf where ``t.ppf`` gives -inf.
    """
    from scipy import special

    return float(special.stdtrit(dof, q))


def ci_halfwidth(samples: Sequence[float], alpha: float = 0.05) -> float:
    """Halfwidth of the two-sided (1 - alpha) t interval for the mean."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("need at least two samples for a confidence interval")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    sd = float(np.std(x, ddof=1))
    return t_quantile(1.0 - alpha / 2.0, n - 1) * sd / np.sqrt(n)
