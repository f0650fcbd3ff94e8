"""Online convergence detection (OCD).

Multi-objective runs stop by OCD as published by Wagner, Trautmann &
Naujoks (EMO 2009), with the regression test of Wagner & Trautmann
(CEC 2010).  Each generation, :class:`RunIndicatorTracker` measures the
populations of the last ``window`` generations against a reference set
built from those same generations:

- the reference set is the non-dominated union of the window's populations;
- every objective is mapped onto [1, 2] by its range over the window, fitted
  afresh each generation, so no point falls outside the scale;
- each population scores three gaps to the reference set:
  ``hv`` = HV(reference) - HV(population), ``eps`` = the additive epsilon
  of the population against the reference, and
  ``r2`` = R2(population) - R2(reference).

This gives one series of ``window`` values per indicator.  The generation
scores a hit when every tracked series has a variance significantly below
a limit (chi-square test) or every tracked series has a confidently zero
regression slope; two consecutive hits stop the run
(:func:`ocd_tracker_update`, which applies :func:`two_hit_decision` to the
tracker's window).  The single-objective baseline stops on stagnation of
the population's min / mean / max fitness.
"""

from __future__ import annotations

import enum
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as sps

from trumpbench.indicators import (
    IDEAL_MARGIN,
    REF_OFFSET,
    FrontSet,
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
        if self.var_limit <= 0.0:
            raise ValueError("var_limit must be positive")
        if not self.indicators:
            raise ValueError("need at least one tracked indicator")


@dataclass
class OCDState:
    """The OCD parameters of a run and its current streak of hits."""

    params: OCDParams
    consecutive_hits: int = 0


def variance_below_limit(values: np.ndarray, var_limit: float, alpha: float) -> bool:
    """One-sided chi-square test: is the variance significantly below var_limit?"""
    v = np.asarray(values, dtype=float)
    n = v.size
    statistic = (n - 1) * np.var(v, ddof=1) / var_limit
    return bool(statistic < sps.chi2.ppf(alpha, n - 1))


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
    upper_bound = abs(slope) + float(sps.t.ppf(1.0 - alpha, n - 2)) * se
    return bool(upper_bound < threshold)


def ocd_tracker_update(state: OCDState, tracker: RunIndicatorTracker) -> Decision:
    """Stop decision on the tracker's whole window, each population
    re-measured against the newest reference set.

    Call once per generation, after ``tracker.generation_values``.  No
    decision is taken before the window holds ``window`` populations, so a
    run cannot stop before generation window + 1.
    """
    if tracker.window != state.params.window:
        raise ValueError("tracker and OCD parameters disagree on the window length")
    if len(tracker.populations) < tracker.window:
        return Decision.CONTINUE
    return two_hit_decision(state, tracker.window_values())


def two_hit_decision(state: OCDState, windows: Mapping[str, np.ndarray]) -> Decision:
    """Score this generation's windows (one per tracked indicator) as a hit
    or not, and stop on the second hit in a row.

    A hit needs every tracked window to pass the variance test, or every
    tracked window to have a confidently zero slope.
    """
    params = state.params
    all_variance = True
    all_slope = True
    for name in params.indicators:
        window = np.asarray(windows[name], dtype=float)
        if not variance_below_limit(window, params.var_limit, params.alpha):
            all_variance = False
        if not slope_is_zero(window, params.alpha):
            all_slope = False
        if not (all_variance or all_slope):
            break

    if all_variance or all_slope:
        state.consecutive_hits += 1
    else:
        state.consecutive_hits = 0
    if state.consecutive_hits >= 2:
        return Decision.CONVERGED
    return Decision.CONTINUE


@dataclass
class StagnationState:
    """Window of (min, mean, max) population fitness triples."""

    window: int
    triples: deque = field(init=False)

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError("window must be at least 2")
        self.triples = deque(maxlen=self.window)


def so_convergence(
    state: StagnationState,
    min_mean_max: tuple[float, float, float],
    tol: float = 1e-9,
) -> Decision:
    """Stagnation check: every series' spread over the window below ``tol``."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    state.triples.append(tuple(float(v) for v in min_mean_max))
    if len(state.triples) < state.window:
        return Decision.CONTINUE
    series = np.array(state.triples)
    spread = series.max(axis=0) - series.min(axis=0)
    if np.all(spread < tol):
        return Decision.CONVERGED
    return Decision.CONTINUE


class RunIndicatorTracker:
    """OCD indicator values of the last ``window`` populations of a run.

    ``generation_values(population)`` adds a population's objective matrix
    to the window (the oldest population leaves once ``window`` are held)
    and refits the measuring frame on the window as a whole: the reference
    set is the non-dominated union of the window's populations, and every
    objective is mapped onto [1, 2] by its range over the window.  Measured
    in that frame, a population scores three gaps to the reference set
    (Wagner, Trautmann & Naujoks, EMO 2009):

    - ``hv``: HV(reference) - HV(population), reference point 2.1 per objective;
    - ``eps``: the additive epsilon of the population against the reference;
    - ``r2``: R2(population) - R2(reference), ideal point 0.99 per objective.

    All three are 0 for a population that is the reference set itself.
    ``window_values()`` re-measures every population of the window in the
    newest frame, which is the series the OCD tests take.
    """

    def __init__(self, n_objectives: int, window: int = 10):
        if window < 1:
            raise ValueError("window must be at least one generation")
        self.m = n_objectives
        self.window = window
        self.weights = simplex_lattice_weights(n_objectives)
        self.ref_point = np.full(n_objectives, 2.0 + REF_OFFSET)
        self.ideal = np.full(n_objectives, 1.0 - IDEAL_MARGIN)
        self.populations: deque[np.ndarray] = deque(maxlen=window)
        self.transform = None
        self.reference: FrontSet | None = None
        self._reference_hv = self._reference_r2 = 0.0

    def generation_values(self, population: np.ndarray) -> dict[str, float]:
        """Add ``population`` (one objective vector per row) to the window
        and return its (hv, eps, r2) gaps to the window's reference set."""
        pop = np.array(population, dtype=float, ndmin=2)
        if pop.shape[0] == 0 or pop.shape[1] != self.m:
            raise ValueError(f"population must be a non-empty (n, {self.m}) matrix")
        self.populations.append(pop)
        window_points = np.vstack(self.populations)
        self.transform = fit_normalize_transform(window_points)
        self.reference = FrontSet(self.transform.apply(window_points), "reference")
        self._reference_hv = hypervolume(self.reference.points, self.ref_point)
        self._reference_r2 = r2_indicator(self.reference, self.weights, self.ideal)
        return self._gaps(pop)

    def window_values(self) -> dict[str, np.ndarray]:
        """Gaps of every population in the window, oldest first, measured
        in the frame of the newest generation."""
        if self.reference is None:
            raise RuntimeError("no generation recorded yet")
        rows = [self._gaps(pop) for pop in self.populations]
        return {name: np.array([row[name] for row in rows]) for name in DEFAULT_INDICATORS}

    def _gaps(self, population: np.ndarray) -> dict[str, float]:
        front = FrontSet(self.transform.apply(population), "population")
        return {
            "hv": self._reference_hv - hypervolume(front.points, self.ref_point),
            "eps": eps_indicator(front, self.reference),
            "r2": r2_indicator(front, self.weights, self.ideal) - self._reference_r2,
        }
