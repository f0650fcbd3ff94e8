"""The four benchmark workloads and the gate checks run beside them.

Each workload makes its inputs from a seed, runs one job at a time on the
program's public functions and checks the job's outputs afterwards.  Only
``run`` is timed; inputs and checks stay outside the timed region.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

import gate
from trumpbench import deck, eaf, experiments, game, indicators, moea, objectives

SHAPE = deck.DeckShape()
MU = 10
GAMES = 2_000
JOBS_PER_PROCESS = 64

# Gate sizes: fixed deals per policy pair, random decks for the HV check.
GATE_DEALS = 25
GATE_HV_DECKS = 2
GATE_RATE_GAMES = 200

# Analysis settings as the experiment pipeline uses them on [1, 2] data.
SURFACE_LEVEL = 0.5
PERMUTATIONS = 2_000
ALPHA = 0.05
REF_POINT = 2.1
R2_SUBDIVISIONS = 20
IDEAL_MARGIN = 0.01
RUNS_PER_GROUP = 6
POINTS_PER_RUN = 10
GROUP_SHIFT = 0.1


@dataclass
class JobOutcome:
    wall: float
    evals: int
    output: object
    warnings: int
    info: dict = field(default_factory=dict)


def timed(tracer, fn, *args):
    """Call ``fn`` and return (wall seconds, result, warnings raised).

    Warnings are recorded and counted, never raised or shown.  With a
    tracer the call is recorded as a "job" span.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.open("job")
        try:
            t0 = time.perf_counter()
            result = fn(*args)
            wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.close()
    return wall, result, len(caught)


class OptimizerWorkload:
    """Fixed-budget optimizer runs from seeded configurations."""

    def __init__(self, name, kind, max_evals, nominal_job_s, optimize):
        self.name = name
        self.kind = kind
        self.max_evals = max_evals
        self.nominal_job_s = nominal_job_s
        self.optimize = optimize

    def make_inputs(self, rng: np.random.Generator) -> list:
        return [int(s) for s in rng.integers(2**31, size=JOBS_PER_PROCESS)]

    def run(self, seed: int, tracer=None) -> JobOutcome:
        config = moea.EAConfig(
            mu=MU, objective=self.kind, shape=SHAPE, max_evals=self.max_evals, seed=seed, games=GAMES
        )
        evaluator = experiments.make_evaluator(self.kind, SHAPE, GAMES)
        if tracer is not None:
            evaluator = tracer.wrap(f"objectives.{self.kind.name.lower()}", evaluator)
        wall, result, n_warn = timed(tracer, self.optimize, config, evaluator)
        return JobOutcome(wall, result.n_evals, result, n_warn, {"stop": result.stop_reason.value})

    def check(self, seed: int, job: JobOutcome) -> list[str]:
        result = job.output
        label = f"{self.name} seed {seed}"
        failures = []
        if len(result.final_population) != MU:
            failures.append(f"{label}: population of {len(result.final_population)}, not {MU}")
        if not MU <= result.n_evals <= self.max_evals:
            failures.append(f"{label}: {result.n_evals} evaluations outside [{MU}, {self.max_evals}]")
        for i, ind in enumerate(result.final_population):
            d = deck.genome_to_deck(ind.genome, SHAPE)
            where = f"{label} individual {i}"
            if not deck.deck_is_valid(d).valid:
                failures.append(f"{where}: invalid deck in the final population")
            if self.kind is objectives.ObjectiveKind.DOMINANCE:
                fresh = objectives.dominance_fitness(d).values
                failures += gate.check_equal_vectors(ind.objectives, fresh, where)
            elif self.kind is objectives.ObjectiveKind.SURROGATE:
                fresh = objectives.surrogate_objectives(d, SHAPE).values
                failures += gate.check_equal_vectors(ind.objectives, fresh, where)
            else:
                neg_win, neg_changes, tightness = ind.objectives
                if not (0.0 <= -neg_win <= 1.0 and -neg_changes >= 0.0 and tightness >= 0.0):
                    failures.append(f"{where}: balance objectives {ind.objectives.tolist()} out of range")
        if self.kind is objectives.ObjectiveKind.BALANCE:
            best = deck.genome_to_deck(result.front[0].genome, SHAPE)
            summary = game.simulate(
                best,
                (game.Policy.INFORMED, game.Policy.RANGE_ONLY),
                GATE_RATE_GAMES,
                np.random.default_rng(seed),
            )
            failures += gate.check_rates(summary, f"{label} front deck")
        return failures


def _front(rng: np.random.Generator, shift: float) -> np.ndarray:
    """Mutually non-dominated points on a plane inside [1, 2]^3."""
    offset = rng.uniform(0.0, 0.05)
    weights = rng.dirichlet(np.ones(3), size=POINTS_PER_RUN)
    return 1.0 + shift + offset + (0.95 - GROUP_SHIFT) * weights


class AttainmentWorkload:
    """Attainment surfaces, the EAF test and indicators of two run groups."""

    name = "attainment"
    nominal_job_s = 2.5

    def make_inputs(self, rng: np.random.Generator) -> list:
        return [
            (
                [_front(rng, 0.0) for _ in range(RUNS_PER_GROUP)],
                [_front(rng, GROUP_SHIFT) for _ in range(RUNS_PER_GROUP)],
                int(rng.integers(2**31)),
            )
            for _ in range(JOBS_PER_PROCESS)
        ]

    def run(self, inputs, tracer=None) -> JobOutcome:
        wall, output, n_warn = timed(tracer, self._analyse, *inputs)
        fronts = 2 * RUNS_PER_GROUP
        joint = np.vstack(inputs[0] + inputs[1])
        cells = int(np.prod([np.unique(joint[:, d]).size for d in range(joint.shape[1])]))
        return JobOutcome(wall, fronts, output, n_warn, {"grid_cells": cells})

    @staticmethod
    def _analyse(points_a, points_b, test_seed):
        group_a = eaf.RunGroup(
            tuple(indicators.FrontSet(p, f"a_run{i}") for i, p in enumerate(points_a)), "a"
        )
        group_b = eaf.RunGroup(
            tuple(indicators.FrontSet(p, f"b_run{i}") for i, p in enumerate(points_b)), "b"
        )
        surfaces = (
            eaf.attainment_surface(group_a, SURFACE_LEVEL),
            eaf.attainment_surface(group_b, SURFACE_LEVEL),
        )
        test = eaf.eaf_test(group_a, group_b, permutations=PERMUTATIONS, alpha=ALPHA, seed=test_seed)
        reference = indicators.FrontSet(np.vstack(points_a + points_b), "reference")
        weights = indicators.simplex_lattice_weights(reference.m, R2_SUBDIVISIONS)
        ideal = reference.points.min(axis=0) - IDEAL_MARGIN
        ref_point = np.full(reference.m, REF_POINT)
        blocks = [
            (
                indicators.hv_indicator(front, reference, ref_point),
                indicators.eps_indicator(front, reference),
                indicators.r2_indicator(front, weights, ideal),
            )
            for front in group_a.fronts + group_b.fronts
        ]
        return (group_a, group_b), surfaces, test, blocks

    def check(self, inputs, job: JobOutcome) -> list[str]:
        groups, surfaces, test, blocks = job.output
        label = f"attainment seed {inputs[2]}"
        failures = gate.check_eaf_test(test, label)
        for group, surface in zip(groups, surfaces):
            failures += gate.check_surface(
                eaf.eaf_value, group, surface.points, SURFACE_LEVEL, f"{label} group {group.label}"
            )
        for i, (hv_gap, eps, r2) in enumerate(blocks):
            if not (np.isfinite([hv_gap, eps, r2]).all() and hv_gap >= -1e-12 and eps >= 0.0):
                failures.append(f"{label} run {i}: indicators {(hv_gap, eps, r2)!r} out of range")
        return failures


WORKLOADS = {
    w.name: w
    for w in (
        OptimizerWorkload("balance", objectives.ObjectiveKind.BALANCE, 12, 2.6, moea.sms_emoa_run),
        OptimizerWorkload("surrogate", objectives.ObjectiveKind.SURROGATE, 150, 1.1, moea.sms_emoa_run),
        OptimizerWorkload("dominance", objectives.ObjectiveKind.DOMINANCE, 2_000, 1.1, moea.so_ea_run),
        AttainmentWorkload(),
    )
}


def gate_inputs(rng: np.random.Generator) -> dict:
    """Decks and deals for the game and hypervolume reference checks.

    Game decks hold integer values so that ties occur; HV decks are valid
    random decks with continuous values.
    """
    values = rng.integers(1, 11, size=(SHAPE.K, SHAPE.L)).astype(float)
    deals = []
    for _ in range(GATE_DEALS):
        perm = rng.permutation(SHAPE.K)
        deals.append((perm[: SHAPE.K // 2].tolist(), perm[SHAPE.K // 2 :].tolist(), bool(rng.integers(2))))
    hv_decks = [deck.random_valid_deck(SHAPE, rng).values for _ in range(GATE_HV_DECKS)]
    return {"game_values": values, "deals": deals, "hv_decks": hv_decks}


def run_gate(inputs: dict) -> tuple[int, list[str]]:
    """Play the fixed deals under every policy pair and measure the HV decks.

    Returns (checks attempted, checks failed, failure messages).
    """
    policies = (game.Policy.INFORMED, game.Policy.RANGE_ONLY)
    d = deck.Deck(inputs["game_values"], SHAPE)
    attempted, failed, failures = 0, 0, []
    for pa in policies:
        for pb in policies:
            for n, (hand_a, hand_b, a_starts) in enumerate(inputs["deals"]):
                starter = game.Player.A if a_starts else game.Player.B
                result = game.play_game(d, game.Deal(tuple(hand_a), tuple(hand_b), starter), (pa, pb))
                expected = gate.reference_game(
                    d.values, hand_a, hand_b, a_starts,
                    (pa is game.Policy.INFORMED, pb is game.Policy.INFORMED), SHAPE.lo, SHAPE.hi,
                )
                errors = gate.check_game(result, expected, f"deal {n} {pa.value}/{pb.value}")
                attempted, failed, failures = attempted + 1, failed + bool(errors), failures + errors
    for n, values in enumerate(inputs["hv_decks"]):
        errors = gate.check_close(
            objectives.deck_hypervolume(values), gate.reference_union_volume(values), f"hv deck {n}"
        )
        attempted, failed, failures = attempted + 1, failed + bool(errors), failures + errors
    return attempted, failed, failures
