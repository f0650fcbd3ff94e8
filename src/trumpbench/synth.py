"""Constructed decks with an exact dominated-pair count.

``make-decks`` writes :func:`synthetic_reference_decks`, stand-ins for
commercial reference decks whose data cannot be shipped; each is built by
:func:`deck_with_dominating_pairs` from disjoint chains of dominating cards.
"""

from __future__ import annotations

import numpy as np

from trumpbench.deck import Deck, DeckShape, deck_is_valid, dominating_pair_count


def triangular(c: int) -> int:
    return c * (c - 1) // 2


def chain_partition(cards: int, pairs: int) -> list[int]:
    """Chain lengths whose internal dominance pairs sum to ``pairs``.

    Cards in one chain each dominate everything deeper in it, giving
    c*(c-1)/2 ordered pairs per chain of length c; leftover cards become
    singletons.
    """
    if pairs < 0:
        raise ValueError("pair count must be nonnegative")
    chains: list[int] = []
    remaining_cards = cards
    remaining_pairs = pairs
    while remaining_pairs > 0:
        c = min(remaining_cards, int((1 + np.sqrt(1 + 8 * remaining_pairs)) // 2))
        while c >= 2 and triangular(c) > remaining_pairs:
            c -= 1
        if c < 2:
            raise ValueError(f"cannot realize {pairs} pairs with {cards} cards")
        chains.append(c)
        remaining_cards -= c
        remaining_pairs -= triangular(c)
        if remaining_cards < 0 or (remaining_pairs > 0 and remaining_cards < 2):
            raise ValueError(f"cannot realize {pairs} pairs with {cards} cards")
    chains.extend([1] * remaining_cards)
    if len(chains) < 2:
        raise ValueError("a single chain would create an all-dominating card")
    return chains


def deck_with_dominating_pairs(shape: DeckShape, pairs: int) -> Deck:
    """Deterministic deck with exactly ``pairs`` ordered dominating card pairs.

    Chains are isolated from each other by giving every chain its own band
    in the first category (ascending) and the second (descending), so
    domination can only happen inside a chain.
    """
    if shape.L < 2:
        raise ValueError("need at least two categories to isolate chains")
    chains = chain_partition(shape.K, pairs)
    n_chains = len(chains)
    span = shape.hi - shape.lo
    spacing = span / (n_chains + 1)
    band = 0.4 * spacing

    rows = []
    for j, length in enumerate(chains):
        base0 = shape.lo + (j + 1) * spacing
        base1 = shape.lo + (n_chains - j) * spacing
        for depth in range(length):
            # Shallower cards sit strictly higher in every category.
            lift = band * (length - depth) / (length + 1)
            row = np.empty(shape.L)
            row[0] = base0 + lift
            row[1] = base1 + lift
            for d in range(2, shape.L):
                row[d] = shape.hi - 0.8 * span * (depth + 1) / (length + 1)
            rows.append(row)
    deck = Deck(np.array(rows), shape)
    actual = dominating_pair_count(deck)
    if actual != pairs:
        raise AssertionError(f"constructed {actual} pairs instead of {pairs}")
    report = deck_is_valid(deck)
    if not report.valid:
        raise AssertionError(f"constructed deck is invalid: {report}")
    return deck


# Pair targets for the eight stand-in reference decks of 32 cards.  One deck
# has very few dominated pairs; the rest are heavy on them, averaging out
# near the published mean quality of commercial decks.
REFERENCE_PAIR_TARGETS = (18, 260, 255, 249, 245, 248, 242, 244)


def reference_pair_targets(cards: int) -> list[int]:
    """``REFERENCE_PAIR_TARGETS`` scaled from 32 cards to ``cards`` by the
    number of ordered card pairs, K(K-1), each rounded to the nearest count
    that :func:`chain_partition` realizes (the lower one on a tie).

    At 32 cards the targets are returned as they are.  Plain rounding would
    not do: for 8 cards it gives 14, which no partition of 8 cards realizes.
    """
    realizable = []
    for pairs in range(triangular(cards) + 1):
        try:
            chain_partition(cards, pairs)
        except ValueError:
            continue
        realizable.append(pairs)
    scale = cards * (cards - 1) / (32 * 31)
    return [min(realizable, key=lambda p: (abs(p - t * scale), p)) for t in REFERENCE_PAIR_TARGETS]


def synthetic_reference_decks(shape: DeckShape | None = None) -> list[tuple[str, Deck]]:
    """Eight deterministic stand-ins for purchased decks, labeled synthetic."""
    shape = shape or DeckShape()
    try:
        return [
            (f"synthetic_{i:02d}", deck_with_dominating_pairs(shape, pairs))
            for i, pairs in enumerate(reference_pair_targets(shape.K), start=1)
        ]
    except ValueError as exc:
        raise ValueError(f"no reference decks of {shape.K} cards x {shape.L} categories: {exc}") from None
