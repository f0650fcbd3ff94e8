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
  This gives one series of ``window`` values for each of the three
  indicators the published method tracks: hv, eps and r2.
  The generation scores a hit when every series has a variance
  significantly below a limit (chi-square test) or every series has a
  confidently zero regression slope (t test); two consecutive hits stop
  the run.  Both tests are p-values compared with alpha, as published;
  their chi-square and Student t tails are the closed forms of
  :mod:`trumpbench.stats`.
- :class:`Stagnation` stops the single-objective baseline once the
  population's min / mean / max fitness have all stalled over a window.
"""

from __future__ import annotations

import enum
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from trumpbench import indicators
from trumpbench.indicators import (
    IDEAL_MARGIN,
    REF_OFFSET,
    NormalizeTransform,
    eps_indicator,
    fit_normalize_transform,
    hypervolume,
    r2_indicator,
    simplex_lattice_weights,
)
from trumpbench.stats import chi2_cdf, t_sf


class Decision(enum.Enum):
    CONTINUE = "continue"
    CONVERGED = "converged"


@dataclass(frozen=True)
class OCDParams:
    """Window length (generations), variance limit and test level of OCD;
    the tracked indicators are always hv, eps and r2.

    Until the window first fills, a generation prunes the run's raw front
    with the newest population and measures that population alone, so
    OCD's time grows with the size of the run's front, not with its
    generations; a window the run never fills, such as ``window=100000``
    to run to budget, costs about the same each generation. On an S run
    (seed 0, mu=10, window 100000, one core of a shared 2-core Xeon) OCD
    took 0.07 s of 1.1 s at 1,500 evaluations, 0.11 s of 1.7 s at 3,000
    and 0.20 s of 3.0 s at 6,000; on a B run (2,000 games) 0.17 s of 4.7 s
    at 3,000. Once full, each generation re-measures every population of
    the window in the newest frame.
    """

    window: int = 10
    var_limit: float = 1e-4
    alpha: float = 0.05

    def __post_init__(self) -> None:
        if self.window < 3:
            raise ValueError("window must be at least 3 generations")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not self.var_limit > 0.0:  # written so that NaN fails
            raise ValueError("var_limit must be positive")


def variance_below_limit(values: np.ndarray, var_limit: float, alpha: float) -> bool:
    """One-sided chi-square test: is the variance significantly below var_limit?

    A hit when P(chi2(n - 1) <= statistic) < alpha, for n values.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    statistic = (n - 1) * np.var(v, ddof=1) / var_limit
    return chi2_cdf(float(statistic), n - 1) < alpha


def slope_is_zero(values: np.ndarray, alpha: float) -> bool:
    """True when the window's regression slope is confidently negligible.

    Mere insignificance is not enough (a noisy, trendless window would
    pass); the one-sided confidence bound on |slope| must fall below a
    machine-relevant trend threshold relative to the data scale: a hit when
    P(T(n - 2) >= (threshold - |slope|) / se) < alpha, for n values.
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
    return t_sf(float((threshold - abs(slope)) / se), n - 2) < alpha


class Stagnation:
    """Stagnation detector of one single-objective run.

    ``update(fitness)`` records the population's (min, mean, max) fitness
    and stops the run once each of the three has spread less than ``tol``
    over the last ``window`` generations.  The window is a ring of rows:
    each generation overwrites the oldest, and the spread does not depend
    on the rows' order.  The optimizer passes the constants
    ``moea.STAGNATION_WINDOW`` and ``moea.STAGNATION_TOL``; a window of at
    least 2 and a positive ``tol`` are the caller's to give.
    """

    def __init__(self, window: int, tol: float):
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

    Until the window first fills, no population leaves it, so the tracker
    keeps the raw front of every point it holds and each objective's
    running minimum and maximum instead of stacking the window again each
    generation.  That is exact: the minima and maxima give the frame's very
    floats, and the map onto [1, 2] is monotone in each coordinate, so a
    point that a raw front point dominates or duplicates maps onto a point
    that the front point's image dominates or equals (-0.0 and 0.0, which
    the raw prune takes for one value, map onto one float).  Pruning the
    front's image thus gives the rows pruning every point's image gives,
    in the same order.
    """

    def __init__(self, n_objectives: int, params: OCDParams):
        self.m = n_objectives
        self.params = params
        self.weights = simplex_lattice_weights(n_objectives)
        self.ref_point = np.full(n_objectives, 2.0 + REF_OFFSET)
        self.ideal = np.full(n_objectives, 1.0 - IDEAL_MARGIN)
        self.populations: deque[np.ndarray] = deque(maxlen=params.window)
        # Until the window first fills: the raw front of the window's points
        # and each objective's minimum and maximum over them.
        self.front = np.empty((0, n_objectives))
        self.lo = np.full(n_objectives, np.inf)
        self.hi = np.full(n_objectives, -np.inf)
        self.consecutive_hits = 0

    def update(self, population: np.ndarray) -> tuple[dict[str, float], Decision]:
        pop = np.array(population, dtype=float, ndmin=2)
        if pop.shape[0] == 0 or pop.shape[1] != self.m:
            raise ValueError(f"population must be a non-empty (n, {self.m}) matrix")
        self.populations.append(pop)
        full = len(self.populations) == self.params.window
        # prune_to_front is looked up on its module, as FrontSet does, so that
        # a wrapper put there (bench/layers.py) also sees these calls.
        if full:
            measured = list(self.populations)
            reference_points = np.vstack(measured)
            transform = fit_normalize_transform(reference_points)
        else:
            measured = [pop]
            self.front = indicators.prune_to_front(np.vstack([self.front, pop])).points
            self.lo = np.minimum(self.lo, pop.min(axis=0))
            self.hi = np.maximum(self.hi, pop.max(axis=0))
            reference_points = self.front
            transform = NormalizeTransform(self.lo, self.hi - self.lo)
        labels = np.repeat(np.arange(len(measured)), [len(p) for p in measured])
        # One stack: each measured population's front, then the reference.
        stack = indicators.prune_to_front(
            transform.apply(np.vstack([*measured, reference_points])),
            np.append(labels, np.full(len(reference_points), len(measured))),
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
        """Score one generation's series (one per indicator, oldest first)
        as a hit or not, and stop on the second hit in a row.

        A hit needs every series given to pass the variance test, or every
        series given to have a confidently zero slope.
        """
        p = self.params
        tracked = [np.asarray(v, dtype=float) for v in series.values()]
        hit = all(variance_below_limit(v, p.var_limit, p.alpha) for v in tracked) or all(
            slope_is_zero(v, p.alpha) for v in tracked
        )
        self.consecutive_hits = self.consecutive_hits + 1 if hit else 0
        return Decision.CONVERGED if self.consecutive_hits >= 2 else Decision.CONTINUE
