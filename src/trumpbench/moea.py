"""Steady-state multi-objective optimizer with hypervolume-contribution
selection, plus the elitist single-objective baseline.

Both optimizers share the real-coded variation operators (simulated binary
crossover and bounded polynomial mutation), reject offspring that decode to
invalid decks without charging an evaluation, and stop on either a budget
or the convergence detectors from :mod:`trumpbench.ocd`.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from trumpbench.deck import Deck, DeckShape, deck_is_valid, genome_to_deck, random_valid_deck
from trumpbench.indicators import hv_contributions, hypervolume
from trumpbench.objectives import ObjectiveKind
from trumpbench.ocd import (
    Decision,
    OCDParams,
    OCDState,
    RunIndicatorTracker,
    StagnationState,
    ocd_tracker_update,
    so_convergence,
)

Evaluator = Callable[[Deck, np.random.Generator], np.ndarray]


class EvaluationError(RuntimeError):
    """An objective evaluation failed; carries the run context."""


class StopReason(enum.Enum):
    CONVERGED = "converged"
    BUDGET = "budget"


@dataclass(frozen=True)
class VariationParams:
    """SBX and polynomial-mutation settings; pm=None means 1/n per gene."""

    pc: float = 1.0
    pm: float | None = None
    eta_c: float = 20.0
    eta_m: float = 15.0

    def mutation_rate(self, n_genes: int) -> float:
        return 1.0 / n_genes if self.pm is None else self.pm


@dataclass(frozen=True)
class EAConfig:
    mu: int
    objective: ObjectiveKind
    shape: DeckShape = field(default_factory=DeckShape)
    variation: VariationParams = field(default_factory=VariationParams)
    max_evals: int = 30_000
    seed: int = 0
    ocd: OCDParams = field(default_factory=OCDParams)
    games: int = 2_000
    # The dominance objective lives on a 1/K lattice, so mid-climb plateaus
    # of many generations are routine; its stagnation window is therefore
    # much wider than the indicator-test window.
    so_window: int = 500
    so_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.mu < 2:
            raise ValueError("population size must be at least 2")
        if self.max_evals <= self.mu:
            raise ValueError("evaluation budget must exceed the population size")
        if self.so_window < 2:
            raise ValueError("stagnation window must be at least 2")


@dataclass(frozen=True)
class Individual:
    genome: np.ndarray
    objectives: np.ndarray
    eval_index: int


@dataclass(frozen=True)
class RunResult:
    final_population: tuple[Individual, ...]
    front: tuple[Individual, ...]
    n_evals: int
    stop_reason: StopReason
    indicator_trace: tuple[dict[str, float], ...]
    seed: int


def sbx_crossover(
    parent1: np.ndarray,
    parent2: np.ndarray,
    params: VariationParams,
    bounds: tuple[float, float],
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover.

    With probability pc the pair is crossed: each gene independently takes
    part with probability 0.5, drawing a spread factor from the polynomial
    distribution with index eta_c.  Children are clipped to bounds.
    """
    p1 = np.asarray(parent1, dtype=float)
    p2 = np.asarray(parent2, dtype=float)
    if p1.shape != p2.shape:
        raise ValueError("parents must have equal length")
    c1, c2 = p1.copy(), p2.copy()
    if rng.random() >= params.pc:
        return c1, c2
    n = p1.size
    take = rng.random(n) < 0.5
    u = rng.random(n)
    exponent = 1.0 / (params.eta_c + 1.0)
    beta = np.where(u <= 0.5, (2.0 * u) ** exponent, (1.0 / (2.0 * (1.0 - u))) ** exponent)
    child_a = 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2)
    child_b = 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2)
    lo, hi = bounds
    c1[take] = np.clip(child_a[take], lo, hi)
    c2[take] = np.clip(child_b[take], lo, hi)
    return c1, c2


def polynomial_mutation(
    genome: np.ndarray,
    params: VariationParams,
    bounds: tuple[float, float],
    rng: np.random.Generator,
) -> np.ndarray:
    """Bounded polynomial mutation; each gene mutates with probability pm."""
    g = np.asarray(genome, dtype=float)
    lo, hi = bounds
    pm = params.mutation_rate(g.size)
    out = g.copy()
    mutate = rng.random(g.size) < pm
    u = rng.random(g.size)
    exponent = 1.0 / (params.eta_m + 1.0)
    down = (2.0 * u) ** exponent - 1.0  # in (-1, 0] for u < 0.5
    up = 1.0 - (2.0 * (1.0 - u)) ** exponent  # in [0, 1) for u >= 0.5
    delta = np.where(u < 0.5, down * (g - lo), up * (hi - g))
    out[mutate] = g[mutate] + delta[mutate]
    return np.clip(out, lo, hi)


def nondominated_sort(points: np.ndarray) -> np.ndarray:
    """1-based non-dominated sorting ranks under strict dominance.

    A point dominates another only when it is strictly better in every
    objective, so duplicates always share a rank.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    dominates = np.all(pts[:, None, :] < pts[None, :, :], axis=2)
    ranks = np.zeros(n, dtype=int)
    remaining = np.ones(n, dtype=bool)
    rank = 0
    while np.any(remaining):
        rank += 1
        sub = dominates[np.ix_(remaining, remaining)]
        idx = np.flatnonzero(remaining)
        front_local = ~sub.any(axis=0)
        ranks[idx[front_local]] = rank
        remaining[idx[front_local]] = False
    return ranks


def _eval_rng(seed: int, eval_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, 2, eval_index)))


class _RunState:
    """Shared machinery of both optimizers: init, variation, evaluation and
    the run loop.  Each optimizer supplies ``step`` (one offspring, one
    replacement), ``record_generation`` (its convergence test) and
    ``_front`` (the individuals a finished run reports)."""

    def __init__(self, config: EAConfig, evaluator: Evaluator):
        self.config = config
        self.evaluator = evaluator
        self.shape = config.shape
        self.bounds = (self.shape.lo, self.shape.hi)
        self.init_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0)))
        self.var_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 1)))
        self.n_evals = 0
        self.population: list[Individual] = []
        self.trace: list[dict[str, float]] = []

    def evaluate(self, genome: np.ndarray) -> Individual:
        deck = genome_to_deck(genome, self.shape)
        rng = _eval_rng(self.config.seed, self.n_evals)
        try:
            objectives = np.asarray(self.evaluator(deck, rng), dtype=float)
        except Exception as exc:
            raise EvaluationError(
                f"objective {self.config.objective.value} failed at evaluation "
                f"{self.n_evals} (seed {self.config.seed}): {exc}"
            ) from exc
        individual = Individual(genome=genome, objectives=objectives, eval_index=self.n_evals)
        self.n_evals += 1
        return individual

    def initialize(self) -> None:
        for _ in range(self.config.mu):
            deck = random_valid_deck(self.shape, self.init_rng)
            self.population.append(self.evaluate(deck.values.reshape(-1)))

    def spawn_offspring(self, max_tries: int = 1000) -> np.ndarray:
        """Variation with rejection of invalid decks; retries are free."""
        mu = len(self.population)
        for _ in range(max_tries):
            i, j = self.var_rng.integers(mu, size=2)
            child, _ = sbx_crossover(
                self.population[i].genome,
                self.population[j].genome,
                self.config.variation,
                self.bounds,
                self.var_rng,
            )
            child = polynomial_mutation(child, self.config.variation, self.bounds, self.var_rng)
            if deck_is_valid(genome_to_deck(child, self.shape)).valid:
                return child
        return random_valid_deck(self.shape, self.var_rng).values.reshape(-1)

    def assert_population_valid(self) -> None:
        for ind in self.population:
            report = deck_is_valid(genome_to_deck(ind.genome, self.shape))
            if not report.valid:
                raise AssertionError(
                    f"population holds an invalid deck at evaluation {self.n_evals}"
                )

    def objective_matrix(self) -> np.ndarray:
        return np.array([ind.objectives for ind in self.population])

    def run(self) -> RunResult:
        """Initialize, then step until the budget is spent or the
        optimizer's own convergence test fires at a generation boundary.

        A warning inside the run is raised as an error, so a run that would
        drop data or degenerate a value fails instead of going on."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.initialize()
            self.assert_population_valid()
            mu = self.config.mu
            self.record_generation()
            stop_reason = StopReason.BUDGET
            while self.n_evals < self.config.max_evals:
                self.step()
                if self.n_evals % mu == 0:
                    self.assert_population_valid()
                    if self.record_generation() is Decision.CONVERGED:
                        stop_reason = StopReason.CONVERGED
                        break
            return RunResult(
                final_population=tuple(self.population),
                front=self._front(),
                n_evals=self.n_evals,
                stop_reason=stop_reason,
                indicator_trace=tuple(self.trace),
                seed=self.config.seed,
            )


class SmsEmoa(_RunState):
    """Steady-state (mu+1) optimizer selecting by rank, then hypervolume loss."""

    REF_OFFSET = 1.0

    def __init__(self, config: EAConfig, evaluator: Evaluator):
        super().__init__(config, evaluator)
        self.tracker = RunIndicatorTracker(
            config.objective.n_objectives, window=config.ocd.window
        )
        self.ocd_state = OCDState(config.ocd)

    def initialize(self) -> None:
        super().initialize()
        for ind in self.population:
            self.tracker.observe(ind.objectives)

    def step(self, record_hv: bool = False) -> dict[str, float] | None:
        """One offspring, one replacement.  Optionally report the step's
        population hypervolume before and after, w.r.t. this step's
        selection reference point."""
        offspring = self.evaluate(self.spawn_offspring())
        self.tracker.observe(offspring.objectives)
        pool = self.population + [offspring]
        objs = np.array([ind.objectives for ind in pool])
        ref = objs.max(axis=0) + self.REF_OFFSET

        ranks = nondominated_sort(objs)
        worst_rank = ranks.max()
        candidates = np.flatnonzero(ranks == worst_rank)
        if candidates.size == 1:
            drop = int(candidates[0])
        else:
            contribs = hv_contributions(objs[candidates], ref)
            tied = np.flatnonzero(contribs == contribs.min())
            drop = int(max((candidates[t] for t in tied), key=lambda i: pool[i].eval_index))

        info = None
        if record_hv:
            before = hypervolume(self.objective_matrix(), ref)
        self.population = [ind for idx, ind in enumerate(pool) if idx != drop]
        if record_hv:
            after = hypervolume(self.objective_matrix(), ref)
            info = {"hv_before": before, "hv_after": after}
        return info

    def record_generation(self) -> Decision:
        values = self.tracker.generation_values(self.objective_matrix())
        self.trace.append(values)
        return ocd_tracker_update(self.ocd_state, self.tracker)

    def _front(self) -> tuple[Individual, ...]:
        ranks = nondominated_sort(self.objective_matrix())
        return tuple(ind for ind, r in zip(self.population, ranks) if r == 1)


class SingleObjectiveEA(_RunState):
    """Elitist (mu+1) baseline for the single dominance objective."""

    def __init__(self, config: EAConfig, evaluator: Evaluator):
        if config.objective.n_objectives != 1:
            raise ValueError("the single-objective baseline needs a 1-D objective")
        super().__init__(config, evaluator)
        self.stagnation = StagnationState(config.so_window)

    def step(self) -> None:
        offspring = self.evaluate(self.spawn_offspring())
        pool = self.population + [offspring]
        fitness = np.array([ind.objectives[0] for ind in pool])
        worst = fitness.max()
        tied = [i for i, f in enumerate(fitness) if f == worst]
        drop = min(tied, key=lambda i: pool[i].eval_index)
        self.population = [ind for idx, ind in enumerate(pool) if idx != drop]

    def record_generation(self) -> Decision:
        fitness = np.array([ind.objectives[0] for ind in self.population])
        triple = (float(fitness.min()), float(fitness.mean()), float(fitness.max()))
        self.trace.append({"min": triple[0], "mean": triple[1], "max": triple[2]})
        return so_convergence(self.stagnation, triple, tol=self.config.so_tol)

    def _front(self) -> tuple[Individual, ...]:
        pop = sorted(self.population, key=lambda ind: (ind.objectives[0], ind.eval_index))
        best_value = pop[0].objectives[0]
        return tuple(ind for ind in pop if ind.objectives[0] == best_value)


def sms_emoa_run(config: EAConfig, evaluator: Evaluator) -> RunResult:
    """Run the multi-objective optimizer to convergence or budget."""
    return SmsEmoa(config, evaluator).run()


def so_ea_run(config: EAConfig, evaluator: Evaluator) -> RunResult:
    """Run the single-objective baseline to stagnation or budget."""
    return SingleObjectiveEA(config, evaluator).run()
