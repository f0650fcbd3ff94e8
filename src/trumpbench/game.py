"""Deterministic two-player top-trumps simulator and Monte Carlo batches.

Two agent policies are supported: an informed agent that knows every card
in the deck and remembers what has been played, and a range-only agent that
knows nothing beyond the valid value range.  A game runs for exactly K/2
tricks; each player consumes one card per trick in hand order, the trick
winner announces the next category, and tied tricks score for nobody and
leave the announcer unchanged.

All games are played by one batched kernel, ``_play_batch``, which loops
over the K/2 tricks and never over games.  :func:`play_game` is a batch of
one.  :func:`play_random_games` plays games on fresh seeded deals, in chunks
of ``CHUNK_GAMES``, and returns per-game arrays, which :func:`simulate`
sums.  Deals are drawn one game at a time, in game order, exactly as
:func:`random_deal` draws them (the permutation, then the starter), so a
seed yields the same games as a game-by-game loop would.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from trumpbench.deck import Deck

# Games played per kernel call by simulate(); bounds the (games, K, L) tensor.
CHUNK_GAMES = 4096


class Policy(enum.Enum):
    """How an agent estimates its chance of winning with each category."""

    INFORMED = "informed"
    RANGE_ONLY = "range_only"


class Player(enum.Enum):
    A = 0
    B = 1

    @property
    def other(self) -> "Player":
        return Player.B if self is Player.A else Player.A


class Outcome(enum.Enum):
    WIN_A = "win_a"
    DRAW = "draw"
    WIN_B = "win_b"


@dataclass(frozen=True)
class Deal:
    """Hands (ordered card indices, K/2 each, disjoint) plus the starting announcer."""

    hand_a: tuple[int, ...]
    hand_b: tuple[int, ...]
    starter: Player

    def validate(self, k: int) -> None:
        if len(self.hand_a) != k // 2 or len(self.hand_b) != k // 2:
            raise ValueError(f"hands must each hold {k // 2} cards")
        if set(self.hand_a) | set(self.hand_b) != set(range(k)) or set(
            self.hand_a
        ) & set(self.hand_b):
            raise ValueError("hands must be disjoint and cover all card indices")


@dataclass(frozen=True)
class GameResult:
    """Trick statistics of one game, seen from player A."""

    tricks_a: int
    tricks_b: int
    ties: int
    announcer_changes: int
    outcome: Outcome
    tightness: float


@dataclass(frozen=True)
class SimulationSummary:
    """Aggregates over a batch of simulated games."""

    games: int
    win_rate_a: float
    draw_rate: float
    loss_rate_a: float
    mean_announcer_changes: float
    mean_tightness: float


def play_game(deck: Deck, deal: Deal, policies: tuple[Policy, Policy]) -> GameResult:
    """Play one deterministic game; ``policies`` are (player A, player B).

    Each trick the announcer picks the category with the highest win
    estimate on its front card (ties to the lowest index).  Strictly
    greater value takes the trick and the announcement; equal values tie.
    """
    deal.validate(deck.shape.K)
    perms = np.array([deal.hand_a + deal.hand_b], dtype=np.intp)
    a_starts = np.array([deal.starter is Player.A])
    a, b, c = (int(x[0]) for x in _play_batch(deck.values, perms, a_starts, policies))
    n_tricks = deck.shape.K // 2
    return GameResult(
        tricks_a=a,
        tricks_b=b,
        ties=n_tricks - a - b,
        announcer_changes=c,
        outcome=Outcome.WIN_A if a > b else Outcome.DRAW if a == b else Outcome.WIN_B,
        tightness=float(abs(2 * a - n_tricks)),
    )


def _play_batch(
    values: np.ndarray,
    perms: np.ndarray,
    a_starts: np.ndarray,
    policies: tuple[Policy, Policy],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Play G games at once; returns per-game (tricks_a, tricks_b, announcer_changes).

    ``perms`` is (G, K): row g lists hand A then hand B of game g, and
    ``a_starts[g]`` says whether A announces first.  Both players' category
    choices and the outcome of each choice do not depend on who announces,
    so they are computed for every trick up front; only the announcer
    hand-over runs trick by trick, over (G,) vectors.
    """
    n_tricks = perms.shape[1] // 2
    # Trick-major (K, G, L), so that each trick is one contiguous slab.
    vals = np.take(values, perms.T, axis=0)
    hand_a, hand_b = vals[:n_tricks], vals[n_tricks:]
    # outcome[p][t, g]: +1 if A takes trick t when player p announces, -1 if B does, 0 on a tie.
    outcome = []
    for own, opp, policy in ((hand_a, hand_b, policies[0]), (hand_b, hand_a, policies[1])):
        if policy is Policy.INFORMED:
            # Count of the opponent's remaining cards that own card t beats, per category.
            est = np.empty(own.shape, dtype=np.intp)
            for t in range(n_tricks):
                np.sum(opp[t:] < own[t], axis=0, out=est[t])
        else:
            est = own  # argmax of (v - lo) / span is argmax of v
        cat = np.argmax(est, axis=2)[..., None]
        va = np.take_along_axis(hand_a, cat, axis=2)[..., 0]
        vb = np.take_along_axis(hand_b, cat, axis=2)[..., 0]
        outcome.append((va > vb).astype(np.int8) - (vb > va))
    announcer_a = np.array(a_starts, dtype=bool)
    tricks_a = np.zeros(perms.shape[0], dtype=np.intp)
    tricks_b = np.zeros_like(tricks_a)
    changes = np.zeros_like(tricks_a)
    for t in range(n_tricks):
        result = np.where(announcer_a, outcome[0][t], outcome[1][t])
        won_a, won_b = result > 0, result < 0
        tricks_a += won_a
        tricks_b += won_b
        changes += (won_a & ~announcer_a) | (won_b & announcer_a)
        announcer_a = (announcer_a | won_a) & ~won_b
    return tricks_a, tricks_b, changes


def random_deal(k: int, rng: np.random.Generator) -> Deal:
    """Uniform shuffle; the first K/2 cards form hand A; uniform starter."""
    perm = rng.permutation(k)
    half = k // 2
    starter = Player.A if rng.integers(2) == 0 else Player.B
    return Deal(tuple(int(i) for i in perm[:half]), tuple(int(i) for i in perm[half:]), starter)


def play_random_games(
    deck: Deck,
    policies: tuple[Policy, Policy],
    games: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Play ``games`` games, each on a fresh uniform deal and starter;
    returns per-game (tricks_a, tricks_b, announcer_changes) in game order.

    Deals are drawn in game order, as :func:`random_deal` draws them, and
    played in chunks of at most ``CHUNK_GAMES`` games.
    """
    if games < 1:
        raise ValueError("need at least one game")
    k = deck.shape.K
    chunks = []
    for start in range(0, games, CHUNK_GAMES):
        n = min(CHUNK_GAMES, games - start)
        # rng.permutation(k) shuffles arange(k) in place; shuffling each
        # row draws the same numbers without allocating a fresh array.
        perms = np.tile(np.arange(k), (n, 1))
        a_starts = np.empty(n, dtype=bool)
        for g in range(n):
            rng.shuffle(perms[g])
            a_starts[g] = rng.integers(2) == 0
        chunks.append(_play_batch(deck.values, perms, a_starts, policies))
    tricks_a, tricks_b, changes = zip(*chunks)
    return np.concatenate(tricks_a), np.concatenate(tricks_b), np.concatenate(changes)


def simulate(
    deck: Deck,
    policies: tuple[Policy, Policy],
    games: int,
    rng: np.random.Generator,
) -> SimulationSummary:
    """Monte Carlo batch: the rates and means of :func:`play_random_games`."""
    tricks_a, tricks_b, changes = play_random_games(deck, policies, games, rng)
    wins = int(np.count_nonzero(tricks_a > tricks_b))
    draws = int(np.count_nonzero(tricks_a == tricks_b))
    return SimulationSummary(
        games=games,
        win_rate_a=wins / games,
        draw_rate=draws / games,
        loss_rate_a=(games - wins - draws) / games,
        mean_announcer_changes=int(changes.sum()) / games,
        mean_tightness=int(np.abs(2 * tricks_a - deck.shape.K // 2).sum()) / games,
    )
