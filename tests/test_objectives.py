"""Fitness functions against hand-computed values and brute-force oracles."""

import numpy as np
import pytest

from trumpbench.deck import DeckShape, random_valid_deck
from trumpbench.game import Policy, SimulationSummary, simulate
from trumpbench.objectives import (
    ObjectiveVector,
    balance_objectives,
    deck_hypervolume,
    dominance_fitness,
    surrogate_objectives,
)

from tests.test_deck import card_dominates


def brute_force_dominance_fitness(cards: np.ndarray) -> float:
    k = len(cards)
    total = 0
    for kk in range(k):
        for i in range(k):
            if i != kk and not card_dominates(cards[i], cards[kk]):
                total += 1
    return -total / k


class TestObjectiveVector:
    @pytest.mark.parametrize(
        "values, message", [(np.zeros((1, 3)), "1-D vector"), (np.array([0.0, np.nan]), "finite")]
    )
    def test_rejects_bad_values(self, values, message):
        with pytest.raises(ValueError, match=message):
            ObjectiveVector(values)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_rejects_infinite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ObjectiveVector(np.array([0.0, bad, 1.0]))

    def test_values_are_read_only(self):
        v = ObjectiveVector([1, 2.5])
        assert v.values.dtype == float and v.values.tolist() == [1.0, 2.5]
        with pytest.raises(ValueError):
            v.values[0] = 0.0


class TestDominanceFitness:
    def test_antichain_hits_lower_bound(self):
        cards = np.array([[10.0, 1.0], [1.0, 10.0], [5.0, 5.0]])
        assert dominance_fitness(cards).values[0] == pytest.approx(-2.0)

    def test_one_dominated_card(self):
        cards = np.array([[3.0, 3.0], [2.0, 2.0], [1.0, 10.0]])
        assert dominance_fitness(cards).values[0] == pytest.approx(-5.0 / 3.0)

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            k = int(rng.integers(2, 9))
            cards = rng.uniform(1, 10, size=(k, 3))
            assert dominance_fitness(cards).values[0] == pytest.approx(
                brute_force_dominance_fitness(cards)
            )

    def test_bounds(self):
        rng = np.random.default_rng(23)
        shape = DeckShape(K=8, L=2)
        for _ in range(50):
            deck = random_valid_deck(shape, rng)
            value = dominance_fitness(deck).values[0]
            assert -(shape.K - 1) <= value <= 0.0


class TestBalanceObjectives:
    def test_definition_arithmetic(self):
        summary = SimulationSummary(
            games=2000, wins_a=1200, draws=200, announcer_changes=6800, tightness=10400
        )
        vec = balance_objectives(summary)
        assert vec.values.tolist() == [-0.6, -3.4, 5.2]

    def test_total_sweep_extreme(self):
        summary = SimulationSummary(games=10, wins_a=10, draws=0, announcer_changes=0, tightness=160)
        vec = balance_objectives(summary)
        assert vec.values.tolist() == [-1.0, 0.0, 16.0]

    def test_component_ranges_on_simulated_decks(self):
        rng = np.random.default_rng(31)
        shape = DeckShape()
        for seed in range(5):
            deck = random_valid_deck(shape, rng)
            summary = simulate(
                deck, (Policy.INFORMED, Policy.RANGE_ONLY), 100, np.random.default_rng(seed)
            )
            vec = balance_objectives(summary).values
            assert -1.0 <= vec[0] <= 0.0
            assert 0.0 <= vec[2] <= shape.K / 2


class TestDeckHypervolume:
    def test_single_card(self):
        assert deck_hypervolume(np.array([[10.0, 10.0]])) == 100.0

    def test_two_cards_inclusion_exclusion(self):
        assert deck_hypervolume(np.array([[10.0, 1.0], [1.0, 10.0]])) == 19.0

    def test_dominated_card_adds_nothing(self):
        assert deck_hypervolume(np.array([[10.0, 10.0], [2.0, 2.0]])) == 100.0

    def test_monotone_in_cards(self):
        rng = np.random.default_rng(37)
        cards = rng.uniform(1, 10, size=(10, 3))
        for n in range(1, 10):
            assert deck_hypervolume(cards[: n + 1]) >= deck_hypervolume(cards[:n]) - 1e-12

    def test_ref_must_be_strictly_below(self):
        # The reference point is the origin; a card on it is rejected.
        with pytest.raises(ValueError):
            deck_hypervolume(np.array([[1.0, 0.0]]))


class TestSurrogateObjectives:
    def test_hand_computed_pair(self):
        shape = DeckShape(K=2, L=2)
        cards = np.array([[1.0, 9.0], [3.0, 7.0]])
        vec = surrogate_objectives(cards, shape).values
        assert vec[0] == pytest.approx(-23.0)
        assert vec[1] == pytest.approx(-np.sqrt(18.0))

    def test_equal_category_means_have_zero_spread(self):
        shape = DeckShape(K=2, L=2)
        cards = np.array([[10.0, 1.0], [1.0, 10.0]])
        vec = surrogate_objectives(cards, shape).values
        assert vec == pytest.approx([-19.0, 0.0])
