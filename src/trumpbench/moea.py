"""Steady-state multi-objective optimizer with hypervolume-contribution
selection, plus the elitist single-objective baseline.

SMS-EMOA (Beume, Naujoks & Emmerich, *EJOR* 181(3), 2007) drops, of the
offspring and the population, a member of the worst non-dominated front
with the least exclusive hypervolume contribution, the newest of a tie.  As
in that paper, a 2-D front's contributions are the rectangles between each
member and its neighbours, each exact up to three roundings; a front of
any other dimension takes them from
:func:`~trumpbench.indicators.hv_contributions`.

Both optimizers share the real-coded variation operators (simulated binary
crossover and bounded polynomial mutation), reject offspring that decode to
invalid decks without charging an evaluation, and stop on either a budget
or the convergence detectors from :mod:`trumpbench.ocd`.

An :data:`Evaluator` returns the objective values of a D or S deck, and a B
deck's games summary, which each B :class:`Individual` keeps as ``summary``
beside the objectives :func:`~trumpbench.objectives.balance_objectives` derives.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from trumpbench.deck import Deck, DeckShape, deck_is_valid, dominance_matrix, genome_to_deck, random_valid_deck
from trumpbench.game import SimulationSummary, check_games
from trumpbench.indicators import _boxes, hv_contributions
from trumpbench.objectives import ObjectiveKind, balance_objectives
from trumpbench.ocd import Decision, OCDParams, RunIndicatorTracker, Stagnation

# Invalid children spawn_offspring rejects before it draws a random valid deck.
OFFSPRING_TRIES = 1000

# The dominance objective lives on a 1/K lattice, so mid-climb plateaus of
# many generations are routine; the single-objective baseline's stagnation
# window is therefore much wider than the indicator-test window.
STAGNATION_WINDOW = 500
STAGNATION_TOL = 1e-9

# A deck's objective values (D, S) or games summary (B).  Only B draws: its
# evaluator gets the evaluation's own generator, and D and S get None.
Evaluator = Callable[[Deck, np.random.Generator | None], np.ndarray | SimulationSummary]


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

    def __post_init__(self) -> None:
        # Written so that NaN fails each check.
        if not 0.0 <= self.pc <= 1.0:
            raise ValueError(f"pc must lie in [0, 1], got {self.pc}")
        if self.pm is not None and not 0.0 <= self.pm <= 1.0:
            raise ValueError(f"pm must be auto or lie in [0, 1], got {self.pm}")
        # Both operators' spread distributions exist only for eta > -1.
        if not self.eta_c > -1.0:
            raise ValueError(f"eta_c must exceed -1, got {self.eta_c}")
        if not self.eta_m > -1.0:
            raise ValueError(f"eta_m must exceed -1, got {self.eta_m}")

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

    def __post_init__(self) -> None:
        if self.mu < 2:
            raise ValueError("population size must be at least 2")
        if self.max_evals <= self.mu:
            raise ValueError("evaluation budget must exceed the population size")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.shape.L < 2:
            raise ValueError(f"no valid deck exists for {self.shape}: need L >= 2")
        # Only B evaluations draw deals; D and S runs never read games.
        if self.objective is ObjectiveKind.BALANCE:
            check_games(self.shape.K, self.games)


@dataclass(frozen=True)
class Individual:
    genome: np.ndarray
    objectives: np.ndarray
    eval_index: int
    summary: SimulationSummary | None  # the games B's objectives come from


@dataclass(frozen=True)
class RunResult:
    final_population: tuple[Individual, ...]
    front: tuple[Individual, ...]
    n_evals: int
    stop_reason: StopReason
    indicator_trace: tuple[dict[str, float], ...]


def sbx_crossover(
    parent1: np.ndarray,
    parent2: np.ndarray,
    params: VariationParams,
    bounds: tuple[float, float],
    rng: np.random.Generator,
) -> np.ndarray:
    """Simulated binary crossover; returns the first child, the one
    ``spawn_offspring`` keeps.

    With probability pc the pair is crossed: each gene independently takes
    part with probability 0.5, drawing a spread factor from the polynomial
    distribution with index eta_c.  The child is clipped to bounds.

    The draws are the same whether or not a gene takes part: one gate
    uniform, then the n take uniforms and the n spread uniforms from one
    ``rng.random(2 * n)`` call, the same doubles in the same order as two
    calls of n.  Only the genes that take part are computed, and the second
    child not at all; each float of the child is the one the whole-vector
    formula gives it, since every numpy operation here works element by
    element.
    """
    p1 = np.asarray(parent1, dtype=float)
    p2 = np.asarray(parent2, dtype=float)
    if p1.shape != p2.shape:
        raise ValueError("parents must have equal length")
    child = p1.copy()
    if rng.random() >= params.pc:
        return child
    n = p1.size
    draws = rng.random(2 * n)
    take = draws[:n] < 0.5
    u = draws[n:][take]
    base = np.where(u <= 0.5, 2.0 * u, 1.0 / (2.0 * (1.0 - u)))
    # float_power has no SIMD loop, so its floats are the same on every CPU;
    # float64 ** takes a vector pow on AVX-512 CPUs that differs in the last bits.
    beta = np.float_power(base, 1.0 / (params.eta_c + 1.0))
    lo, hi = bounds
    child[take] = (0.5 * ((1.0 + beta) * p1[take] + (1.0 - beta) * p2[take])).clip(lo, hi)
    return child


def polynomial_mutation(
    genome: np.ndarray,
    params: VariationParams,
    bounds: tuple[float, float],
    rng: np.random.Generator,
) -> np.ndarray:
    """Bounded polynomial mutation; each gene mutates with probability pm.

    Both uniform vectors, the n gate uniforms then the n perturbation
    uniforms, come in full from one ``rng.random(2 * n)`` call, the same
    doubles in the same order as two calls of n.  The perturbation is
    computed only for the genes that mutate (1/n of them by default), each
    the float the whole-vector formula gives it.  The whole genome is then
    clipped to bounds in place.
    """
    g = np.asarray(genome, dtype=float)
    lo, hi = bounds
    out = g.copy()
    n = g.size
    draws = rng.random(2 * n)
    mutate = draws[:n] < params.mutation_rate(n)
    u = draws[n:][mutate]
    if u.size:
        x = g[mutate]
        low = u < 0.5
        # (2u)^e - 1 lies in (-1, 0] below 0.5; 1 - (2(1-u))^e in [0, 1) above;
        # float_power for the reason sbx_crossover gives.
        power = np.float_power(np.where(low, 2.0 * u, 2.0 * (1.0 - u)), 1.0 / (params.eta_m + 1.0))
        out[mutate] = x + np.where(low, (power - 1.0) * (x - lo), (1.0 - power) * (hi - x))
    return out.clip(lo, hi, out=out)


def nondominated_sort(points: np.ndarray) -> np.ndarray:
    """1-based non-dominated sorting ranks under strict dominance.

    A point dominates another only when it is strictly better in every
    objective, so duplicates always share a rank.
    """
    # Negated, a point dominates as a card does: strictly greater in every column.
    dominates = dominance_matrix(-np.asarray(points, dtype=float))
    # Each point's count of dominators still unranked: a front is the points
    # whose count is 0, and ranking it takes its members' votes away.
    dominators = dominates.sum(axis=0)
    ranks = np.zeros(len(dominates), dtype=int)
    front = np.flatnonzero(dominators == 0)
    rank = 0
    while front.size:
        rank += 1
        ranks[front] = rank
        dominators -= dominates[front].sum(axis=0)
        dominators[front] = -1
        front = np.flatnonzero(dominators == 0)
    return ranks


def _exclusive_areas_2d(points: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Each point's exclusive hypervolume contribution to a 2-D minimization
    set w.r.t. ``ref``, which every point must strictly dominate.

    Precondition: no point strictly dominates another, as on one front of
    :func:`nondominated_sort`.  Point (x, y) then alone covers the rectangle
    up to (a, b): a is the least x of the other points with y' <= y, b the
    least y of the other points with x' <= x, each the reference coordinate
    if there is none.  A duplicate or weakly dominated point gets exactly
    0.0.  Each area is two subtractions and a product of input floats, so its
    error is relative to the area itself, not to the set's volume, and it is
    the same on every CPU: each operation is one correctly rounded float op.
    """
    _boxes(points, ref)  # raises for a point that does not strictly dominate ref
    x, y = points[:, 0], points[:, 1]
    others = ~np.eye(len(points), dtype=bool)
    a = np.where(others & (y <= y[:, None]), x, ref[0]).min(axis=1)
    b = np.where(others & (x <= x[:, None]), y, ref[1]).min(axis=1)
    return np.maximum(a - x, 0.0) * np.maximum(b - y, 0.0)


def _eval_rng(seed: int, eval_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, 2, eval_index)))


class _RunState:
    """Shared machinery of both optimizers: init, variation, evaluation and
    the run loop.  Each optimizer supplies ``step`` (one offspring, one
    replacement), ``_front`` (the individuals a finished run reports) and
    ``record_generation``, which hands the population to the optimizer's
    ``detector`` (see :mod:`trumpbench.ocd`), appends the trace row it
    returns and returns its ``Decision``."""

    def __init__(self, config: EAConfig, evaluator: Evaluator):
        self.config = config
        self.evaluator = evaluator
        self.shape = config.shape
        self.bounds = (self.shape.lo, self.shape.hi)
        self.init_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0)))
        self.var_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 1)))
        self.draws = config.objective is ObjectiveKind.BALANCE
        self.n_evals = 0
        self.population: list[Individual] = []
        self.trace: list[dict[str, float]] = []

    def evaluate(self, deck: Deck) -> Individual:
        rng = _eval_rng(self.config.seed, self.n_evals) if self.draws else None
        try:
            result = self.evaluator(deck, rng)
            if self.draws:
                summary, objectives = result, balance_objectives(result).values
            else:
                summary, objectives = None, np.asarray(result, dtype=float)
        except Exception as exc:
            raise EvaluationError(
                f"objective {self.config.objective.value} failed at evaluation "
                f"{self.n_evals} (seed {self.config.seed}): {exc}"
            ) from exc
        individual = Individual(deck.values.reshape(-1), objectives, self.n_evals, summary)
        self.n_evals += 1
        return individual

    def initialize(self) -> None:
        for _ in range(self.config.mu):
            self.population.append(self.evaluate(random_valid_deck(self.shape, self.init_rng)))

    def spawn_offspring(self) -> Deck:
        """Variation with rejection of invalid decks; retries are free."""
        mu = len(self.population)
        for _ in range(OFFSPRING_TRIES):
            i, j = self.var_rng.integers(mu, size=2)
            child = sbx_crossover(
                self.population[i].genome,
                self.population[j].genome,
                self.config.variation,
                self.bounds,
                self.var_rng,
            )
            child = polynomial_mutation(child, self.config.variation, self.bounds, self.var_rng)
            deck = genome_to_deck(child, self.shape)
            if deck_is_valid(deck).valid:
                return deck
        return random_valid_deck(self.shape, self.var_rng)

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
        drop data or degenerate a value fails instead of going on.  Every
        member is valid when it is created, so the population is checked
        once, before it is returned."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.initialize()
            mu = self.config.mu
            self.record_generation()
            stop_reason = StopReason.BUDGET
            while self.n_evals < self.config.max_evals:
                self.step()
                if self.n_evals % mu == 0 and self.record_generation() is Decision.CONVERGED:
                    stop_reason = StopReason.CONVERGED
                    break
            self.assert_population_valid()
            return RunResult(
                final_population=tuple(self.population),
                front=self._front(),
                n_evals=self.n_evals,
                stop_reason=stop_reason,
                indicator_trace=tuple(self.trace),
            )


class SmsEmoa(_RunState):
    """Steady-state (mu+1) SMS-EMOA (Beume, Naujoks & Emmerich, *EJOR*
    181(3), 2007).

    Each step drops one member of the pool of population and offspring: of
    its worst non-dominated front, the one with the least exclusive
    hypervolume contribution, and of a tie the newest.  The reference point
    is the pool's worst value plus REF_OFFSET in every objective.  For two
    objectives each contribution is an exact rectangle
    (:func:`_exclusive_areas_2d`), so a weakly dominated member or a
    duplicate scores exactly 0.0, and no rounding ties it with a member that
    covers area of its own; otherwise
    :func:`~trumpbench.indicators.hv_contributions` subtracts leave-one-out
    volumes.
    """

    REF_OFFSET = 1.0

    def __init__(self, config: EAConfig, evaluator: Evaluator):
        super().__init__(config, evaluator)
        self.detector = RunIndicatorTracker(config.objective.n_objectives, config.ocd)

    def step(self) -> None:
        """One offspring, one replacement."""
        offspring = self.evaluate(self.spawn_offspring())
        pool = self.population + [offspring]
        objs = np.array([ind.objectives for ind in pool])
        ref = objs.max(axis=0) + self.REF_OFFSET

        ranks = nondominated_sort(objs)
        worst_rank = ranks.max()
        candidates = np.flatnonzero(ranks == worst_rank)
        if candidates.size == 1:
            drop = int(candidates[0])
        else:
            front = objs[candidates]
            if front.shape[1] == 2:
                contribs = _exclusive_areas_2d(front, ref)
            else:
                contribs = hv_contributions(front, ref)
            tied = np.flatnonzero(contribs == contribs.min())
            drop = int(max((candidates[t] for t in tied), key=lambda i: pool[i].eval_index))
        self.population = [ind for idx, ind in enumerate(pool) if idx != drop]

    def record_generation(self) -> Decision:
        row, decision = self.detector.update(self.objective_matrix())
        self.trace.append(row)
        return decision

    def _front(self) -> tuple[Individual, ...]:
        ranks = nondominated_sort(self.objective_matrix())
        return tuple(ind for ind, r in zip(self.population, ranks) if r == 1)


class SingleObjectiveEA(_RunState):
    """Elitist (mu+1) baseline for the single dominance objective."""

    def __init__(self, config: EAConfig, evaluator: Evaluator):
        if config.objective.n_objectives != 1:
            raise ValueError("the single-objective baseline needs a 1-D objective")
        super().__init__(config, evaluator)
        self.detector = Stagnation(STAGNATION_WINDOW, STAGNATION_TOL)

    def step(self) -> None:
        offspring = self.evaluate(self.spawn_offspring())
        pool = self.population + [offspring]
        # The worst fitness leaves; of a tie, the oldest member.
        drop = max(pool, key=lambda ind: (ind.objectives[0], -ind.eval_index))
        self.population = [ind for ind in pool if ind is not drop]

    def record_generation(self) -> Decision:
        row, decision = self.detector.update(self.objective_matrix()[:, 0])
        self.trace.append(row)
        return decision

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
