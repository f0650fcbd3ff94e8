"""Constructed decks with exact dominance structure."""

import numpy as np
import pytest

from trumpbench.deck import DeckShape, deck_is_valid, dominating_pair_count
from trumpbench.objectives import dominance_fitness
from trumpbench.synth import (
    chain_partition,
    REFERENCE_PAIR_TARGETS,
    deck_with_dominating_pairs,
    reference_pair_targets,
    synthetic_reference_decks,
    triangular,
)


class TestChainPartition:
    def test_pairs_add_up(self):
        for pairs in (0, 1, 5, 18, 100, 260):
            chains = chain_partition(32, pairs)
            assert sum(triangular(c) for c in chains) == pairs
            assert sum(chains) == 32

    def test_infeasible_raises(self):
        with pytest.raises(ValueError):
            chain_partition(4, 5)
        with pytest.raises(ValueError):
            chain_partition(4, triangular(4))  # single chain -> dominant card


class TestDeckWithDominatingPairs:
    @pytest.mark.parametrize("pairs", [0, 1, 18, 100, 260])
    def test_exact_pair_count(self, pairs):
        deck = deck_with_dominating_pairs(DeckShape(), pairs)
        assert dominating_pair_count(deck) == pairs
        assert deck_is_valid(deck).valid
        assert deck.values.min() >= 1.0
        assert deck.values.max() <= 10.0

    def test_known_fitness_values(self):
        shape = DeckShape()
        best = deck_with_dominating_pairs(shape, 0)
        assert dominance_fitness(best).values[0] == pytest.approx(-31.0)
        near = deck_with_dominating_pairs(shape, 18)
        assert dominance_fitness(near).values[0] == pytest.approx(-30.4375)

    def test_two_category_shape_supported(self):
        deck = deck_with_dominating_pairs(DeckShape(K=8, L=2), 5)
        assert dominating_pair_count(deck) == 5


class TestSyntheticReferenceDecks:
    def test_published_statistics(self):
        decks = synthetic_reference_decks()
        assert len(decks) == 8
        values = [dominance_fitness(d).values[0] for _, d in decks]
        assert min(values) == pytest.approx(-30.4375)
        assert np.mean(values) == pytest.approx(-24.12, abs=0.01)
        assert all(deck_is_valid(d).valid for _, d in decks)

    def test_pair_targets_scale_with_the_card_pairs(self):
        assert reference_pair_targets(32) == list(REFERENCE_PAIR_TARGETS)
        # 255 * 56 / 992 rounds to 14, which no partition of 8 cards
        # realizes (5 + 3 cards give 13, 6 + 1 + 1 give 15): 15 is nearest.
        assert reference_pair_targets(8) == [1, 15, 15, 15, 13, 13, 13, 13]
        with pytest.raises(ValueError):
            chain_partition(8, 14)
        for cards in (2, 4, 8, 16, 64):
            for pairs in reference_pair_targets(cards):
                assert sum(chain_partition(cards, pairs)) == cards
