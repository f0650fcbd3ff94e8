"""Convergence detectors: when an optimizer run stops before its budget.

Each run owns one detector, and calls ``update(x) -> (trace_row, Decision)``
on it once per generation: the row goes into the run's indicator trace, and
``Decision.CONVERGED`` stops the run.

- :class:`RunIndicatorTracker` stops a multi-objective run by online
  convergence detection (OCD) as published by Wagner, Trautmann & Naujoks
  (EMO 2009), with the regression test of Wagner & Trautmann (CEC 2010).
  It measures the populations of the last ``window`` generations against
  the non-dominated union of those same generations, each objective mapped
  onto [1, 2] by its range over the window, fitted afresh each generation.
  This gives one series of ``window`` values per indicator (hv, eps, r2).
  The generation scores a hit when every tracked series has a variance
  significantly below a limit (chi-square test) or every tracked series has
  a confidently zero regression slope; two consecutive hits stop the run.
  The tests' chi-square and Student t quantiles are ``scipy.stats``' own
  formulas (``chi2.ppf`` and ``t.ppf`` return the very same floats), called
  through the ``scipy.special`` functions they rest on. ``scipy.special`` is
  imported at the first quantile, not with this module: it costs a fresh
  process ~0.1 s and ~24 MB, and only S and B runs reach a quantile.
- :class:`Stagnation` stops the single-objective baseline once the
  population's min / mean / max fitness have all stalled over a window.
"""

from __future__ import annotations

import enum
import functools
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from trumpbench import indicators
from trumpbench.indicators import (
    IDEAL_MARGIN,
    REF_OFFSET,
    eps_indicator,
    fit_normalize_transform,
    hypervolume,
    r2_indicator,
    simplex_lattice_weights,
)

DEFAULT_INDICATORS = ("hv", "eps", "r2")


class Decision(enum.Enum):
    CONTINUE = "continue"
    CONVERGED = "converged"


@dataclass(frozen=True)
class OCDParams:
    """Window length (generations), variance limit, test level and tracked indicators."""

    window: int = 10
    var_limit: float = 1e-4
    alpha: float = 0.05
    indicators: tuple[str, ...] = DEFAULT_INDICATORS

    def __post_init__(self) -> None:
        if self.window < 3:
            raise ValueError("window must be at least 3 generations")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not self.var_limit > 0.0:  # written so that NaN fails
            raise ValueError("var_limit must be positive")
        if not self.indicators:
            raise ValueError("need at least one tracked indicator")
        unknown = sorted(set(self.indicators) - set(DEFAULT_INDICATORS))
        if unknown:
            raise ValueError(f"unknown indicators {unknown}; choose from {DEFAULT_INDICATORS}")


# The quantiles of the two tests depend only on a run's alpha and window,
# so every generation's decision reuses them: a cache hit instead of the
# ~2 µs each scipy.special call takes (timeit, 2-core x86-64 box). Each
# imports scipy.special in its body: a process pays the import (~0.1 s,
# ~24 MB) at its first quantile, and D runs and analyses never pay it.
@functools.cache
def _chi2_quantile(q: float, dof: int) -> float:
    """``scipy.stats.chi2.ppf(q, dof)``, bit for bit: the formula of its ``_ppf``."""
    from scipy import special

    return float(2 * special.gammaincinv(dof / 2, q))


@functools.cache
def _t_quantile(q: float, dof: int) -> float:
    """``scipy.stats.t.ppf(q, dof)``, bit for bit: the formula of its ``_ppf``.

    That holds for q in (0, 1], where ``OCDParams`` keeps 1 - alpha: at
    q = 0 ``stdtrit`` gives +inf where ``t.ppf`` gives -inf.
    """
    from scipy import special

    return float(special.stdtrit(dof, q))


def variance_below_limit(values: np.ndarray, var_limit: float, alpha: float) -> bool:
    """One-sided chi-square test: is the variance significantly below var_limit?"""
    v = np.asarray(values, dtype=float)
    n = v.size
    statistic = (n - 1) * np.var(v, ddof=1) / var_limit
    return bool(statistic < _chi2_quantile(alpha, n - 1))


def slope_is_zero(values: np.ndarray, alpha: float) -> bool:
    """True when the window's regression slope is confidently negligible.

    Mere insignificance is not enough (a noisy, trendless window would
    pass); the one-sided confidence bound on |slope| must fall below a
    machine-relevant trend threshold relative to the data scale.
    """
    y = np.asarray(values, dtype=float)
    n = y.size
    x = np.arange(n, dtype=float)
    sxx = float(((x - x.mean()) ** 2).sum())
    slope = float(((x - x.mean()) * (y - y.mean())).sum()) / sxx
    resid = y - (y.mean() + slope * (x - x.mean()))
    rss = float((resid**2).sum())
    threshold = 1e-8 * max(1.0, float(np.abs(y).max()))
    if rss <= 1e-24 * max(1.0, float((y**2).sum())):
        return abs(slope) < threshold
    se = np.sqrt(rss / (n - 2) / sxx)
    upper_bound = abs(slope) + _t_quantile(1.0 - alpha, n - 2) * se
    return bool(upper_bound < threshold)


class Stagnation:
    """Stagnation detector of one single-objective run.

    ``update(fitness)`` records the population's (min, mean, max) fitness
    and stops the run once each of the three has spread less than ``tol``
    over the last ``window`` generations.  The window is a ring of rows:
    each generation overwrites the oldest, and the spread does not depend
    on the rows' order.
    """

    def __init__(self, window: int, tol: float):
        if window < 2:
            raise ValueError("window must be at least 2")
        if not tol > 0:
            raise ValueError("tol must be positive")
        self.tol = tol
        self.rows = np.empty((window, 3))
        self.generations = 0

    def update(self, fitness: np.ndarray) -> tuple[dict[str, float], Decision]:
        f = np.asarray(fitness, dtype=float)
        row = {"min": float(f.min()), "mean": float(f.mean()), "max": float(f.max())}
        window = len(self.rows)
        self.rows[self.generations % window] = tuple(row.values())
        self.generations += 1
        if self.generations < window:
            return row, Decision.CONTINUE
        stagnant = np.all(self.rows.max(axis=0) - self.rows.min(axis=0) < self.tol)
        return row, Decision.CONVERGED if stagnant else Decision.CONTINUE


class RunIndicatorTracker:
    """OCD detector of one multi-objective run.

    ``update(population)`` adds a population's objective matrix to the
    window of the last ``params.window`` populations (the oldest leaves
    once the window is full) and fits the measuring frame on the window as
    a whole: the reference set is the non-dominated union of the window's
    populations, and every objective is mapped onto [1, 2] by its range
    over the window.  Measured in that frame, a population scores three
    gaps to the reference set (Wagner, Trautmann & Naujoks, EMO 2009):

    - ``hv``: HV(reference) - HV(population), reference point 2.1 per objective;
    - ``eps``: the additive epsilon of the population against the reference;
    - ``r2``: R2(population) - R2(reference), ideal point 0.99 per objective.

    All three are 0 for a population that is the reference set itself.
    The trace row ``update`` returns is the newest population's gaps.  Until
    the window is full only that population is measured and the run goes
    on; from then on every population of the window is measured once in
    the newest frame, and :meth:`decide` scores that series.

    The measurement is one batch per generation, each value bit for bit
    what measuring its population alone would give: the measured
    populations and the reference are pruned to their fronts together, as
    one :class:`~trumpbench.indicators.FrontStack` with the reference as
    its last front, and each indicator measures every front of the stack
    in one call (one subset-volume call for hv, one reduction per front
    for eps and r2).
    """

    def __init__(self, n_objectives: int, params: OCDParams):
        self.m = n_objectives
        self.params = params
        self.weights = simplex_lattice_weights(n_objectives)
        self.ref_point = np.full(n_objectives, 2.0 + REF_OFFSET)
        self.ideal = np.full(n_objectives, 1.0 - IDEAL_MARGIN)
        self.populations: deque[np.ndarray] = deque(maxlen=params.window)
        self.consecutive_hits = 0

    def update(self, population: np.ndarray) -> tuple[dict[str, float], Decision]:
        pop = np.array(population, dtype=float, ndmin=2)
        if pop.shape[0] == 0 or pop.shape[1] != self.m:
            raise ValueError(f"population must be a non-empty (n, {self.m}) matrix")
        self.populations.append(pop)
        window_points = np.vstack(self.populations)
        points = fit_normalize_transform(window_points).apply(window_points)
        full = len(self.populations) == self.params.window
        measured = list(self.populations) if full else [pop]
        labels = np.repeat(np.arange(len(measured)), [len(p) for p in measured])
        # One stack: each measured population's front, then the reference.
        # prune_to_front is looked up on its module, as FrontSet does, so that
        # a wrapper put there (bench/layers.py) also sees this call.
        stack = indicators.prune_to_front(
            np.vstack([points[len(points) - len(labels) :], points]),
            np.append(labels, np.full(len(points), len(measured))),
        )
        hv = hypervolume(stack, self.ref_point)
        r2 = r2_indicator(stack, self.weights, self.ideal)
        series = {
            "hv": hv[-1] - hv[:-1],
            "eps": eps_indicator(stack, stack[-1])[:-1],
            "r2": r2[:-1] - r2[-1],
        }
        row = {name: float(values[-1]) for name, values in series.items()}
        return row, (self.decide(series) if full else Decision.CONTINUE)

    def decide(self, series: Mapping[str, np.ndarray]) -> Decision:
        """Score one generation's series (one per tracked indicator, oldest
        first) as a hit or not, and stop on the second hit in a row.

        A hit needs every tracked series to pass the variance test, or every
        tracked series to have a confidently zero slope.
        """
        p = self.params
        tracked = [np.asarray(series[name], dtype=float) for name in p.indicators]
        hit = all(variance_below_limit(v, p.var_limit, p.alpha) for v in tracked) or all(
            slope_is_zero(v, p.alpha) for v in tracked
        )
        self.consecutive_hits = self.consecutive_hits + 1 if hit else 0
        return Decision.CONVERGED if self.consecutive_hits >= 2 else Decision.CONTINUE
