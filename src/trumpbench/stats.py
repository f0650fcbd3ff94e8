"""The tail probabilities of OCD's tests, and the confidence-interval
halfwidth of a sample mean, which the report and the sample-size study of
games per evaluation take.

The chi-square and Student t tails are closed forms for integer degrees of
freedom in stdlib ``math``, so no optimizer run imports scipy. Only
``ci_halfwidth`` loads ``scipy.special``, at its first call, not with this
module: it costs a fresh process ~0.1 s and ~24 MB.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Sequence

import numpy as np

EPSILON = sys.float_info.epsilon


def chi2_cdf(x: float, dof: int) -> float:
    """P(X <= x) for X chi-square with an integer ``dof`` >= 1.

    With a = dof / 2 and y = x / 2 this is 1 - Q, and Q has a closed form
    for integer and half-integer a: erfc(sqrt(y)) for odd dof, plus the sum
    of e^-y y^e / Gamma(e + 1) over e = a - 1, a - 2, ... >= 0.  Below
    y = a + 1, where P is the smaller side, P is the rest of that series
    instead, y^a e^-y / Gamma(a + 1) * sum over n of y^n / ((a + 1)...(a + n)),
    so that a small P keeps its digits rather than being 1 minus a sum near 1.
    """
    if x <= 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    a, y = dof / 2, x / 2
    if y < a + 1:
        term = total = 1.0
        n = a
        while term > total * EPSILON:
            n += 1
            term *= y / n
            total += term
        return total * math.exp(a * math.log(y) - y - math.lgamma(a + 1))
    upper = math.erfc(math.sqrt(y)) if dof % 2 else 0.0
    # From the largest term down, each from the one before.
    e = a - 1
    term = math.exp(e * math.log(y) - y - math.lgamma(a)) if e >= 0 else 0.0
    while e >= 0:
        upper += term
        term *= e / y
        e -= 1
    return 1.0 - upper


def t_sf(t: float, dof: int) -> float:
    """P(T >= t) for T Student t with an integer ``dof`` >= 1.

    For t >= 0, with s = sin(theta), c = cos(theta), theta = atan(t / sqrt(dof)),
    this is the closed form of Abramowitz & Stegun 26.7.3-4 over the terms
    u_j = c^2j (j - 1/2 + b)...(1/2 + b) / ((j + b)...(1 + b)), b = (dof mod 2) / 2:
    (1 - s * sum) / 2 for even dof and (atan(sqrt(dof) / t) - s c sum) / pi
    for odd dof, each sum over j < dof // 2.  Summed on to infinity, the
    terms exactly cancel the leading term, so from t = 2 on, where the tail
    is small and the closed form would keep little but its rounding error,
    the tail is summed as the rest of the series instead, from j = dof // 2
    on, its first term s c^dof Gamma(a + 1/2) / (sqrt(pi) Gamma(a + 1)) / 2
    for a = dof / 2.
    """
    if t < 0.0:
        return 1.0 - t_sf(-t, dof)
    if t == math.inf:
        return 0.0
    root = math.sqrt(dof)
    r = math.hypot(t, root)
    s, c = t / r, root / r
    x, b = c * c, dof % 2 / 2
    if t >= 2.0:
        j, term, total = dof // 2, 1.0, 1.0
        while term > total * EPSILON:
            term *= x * (j + 0.5 + b) / (j + 1 + b)
            total += term
            j += 1
        a = dof / 2
        lead = math.exp(dof * math.log(c) + math.lgamma(a + 0.5) - math.lgamma(a + 1)) / math.sqrt(math.pi)
        return 0.5 * s * lead * total
    term, total = 1.0, 0.0
    for j in range(dof // 2):
        total += term
        term *= x * (j + 0.5 + b) / (j + 1 + b)
    if b:
        return (math.atan2(root, t) - s * c * total) / math.pi
    return 0.5 * (1.0 - s * total)


# A quantile depends only on its level and degrees of freedom, so every
# interval of one study reuses it: a cache hit instead of the ~2 µs each
# scipy.special call takes (timeit, 2-core x86-64 box).
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
