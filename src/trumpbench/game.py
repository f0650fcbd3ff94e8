"""Deterministic two-player top-trumps simulator and Monte Carlo batches.

Two agent policies are supported: an informed agent that knows every card
in the deck and remembers what has been played, and a range-only agent that
knows nothing beyond the valid value range.  A game runs for exactly K/2
tricks; each player consumes one card per trick in hand order, the trick
winner announces the next category, and tied tricks score for nobody and
leave the announcer unchanged.

All games are played by one batched kernel, ``_play_batch``, which loops
over the K/2 tricks and never over games.  Deals come from :func:`draw_deals`
in chunks of ``CHUNK_GAMES`` (hand orders, then starters), so the games a
seed yields depend on ``CHUNK_GAMES``.  A chunk's hand orders sort one bulk
draw of distinct random keys, so every correct sort gives the same deals.
They are stored card-major in the smallest integer type that holds a card
index (uint8 up to 256 cards), for two reasons: the kernel's gather reads a
contiguous index, and a 2,000-game evaluation keeps a heap small enough
that the allocator does not return it to the system and fault it back in on
every evaluation.  Decks compared share deals through :func:`play_deals` and
:func:`simulate_deals`; :func:`simulate` draws its own.

A :class:`SimulationSummary` holds the integer sums the kernel counts; its
rates and means divide them by the games.  Two summaries of one deck, on two
deal tables, add with ``+`` to the summary of both tables.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import astuple, dataclass

import numpy as np

from trumpbench.deck import Deck

# Games drawn at once and played per kernel call; bounds the (games, K, L) tensor.
CHUNK_GAMES = 4096
# Refuse a batch whose deals exceed this, counted as :func:`check_games`
# counts them: 32,521,743 games of 32 cards.
MAX_DEAL_BYTES = 2**30


class Policy(enum.Enum):
    """How an agent estimates its chance of winning with each category."""

    INFORMED = "informed"
    RANGE_ONLY = "range_only"


class Player(enum.Enum):
    A = 0
    B = 1


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
        if sorted(self.hand_a + self.hand_b) != list(range(k)):
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
    """Integer sums over a batch of games, seen from player A."""

    games: int
    wins_a: int
    draws: int
    announcer_changes: int
    tightness: int

    def __add__(self, other: SimulationSummary) -> SimulationSummary:
        return SimulationSummary(*map(operator.add, astuple(self), astuple(other)))

    # Each rate and mean divides one sum by the games, int by int.
    win_rate_a = property(lambda self: self.wins_a / self.games)
    draw_rate = property(lambda self: self.draws / self.games)
    loss_rate_a = property(lambda self: (self.games - self.wins_a - self.draws) / self.games)
    mean_announcer_changes = property(lambda self: self.announcer_changes / self.games)
    mean_tightness = property(lambda self: self.tightness / self.games)


def play_game(deck: Deck, deal: Deal, policies: tuple[Policy, Policy]) -> GameResult:
    """Play one deterministic game; ``policies`` are (player A, player B).

    Each trick the announcer picks the category with the highest win
    estimate on its front card (ties to the lowest index).  Strictly
    greater value takes the trick and the announcement; equal values tie.
    """
    deal.validate(deck.shape.K)
    deals = np.array([deal.hand_a + deal.hand_b]), np.array([deal.starter is Player.A])
    a, b, c = (int(x[0]) for x in play_deals(deck, policies, deals))
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
    # Global ranks keep every comparison, within a category and across
    # categories, in the smallest integer type that holds them.
    distinct, ranks = np.unique(values, return_inverse=True)
    ranks = ranks.reshape(values.shape).astype(np.min_scalar_type(distinct.size - 1))
    # Category-major (L, K, G), so that each category is one contiguous slab.
    vals = np.take(ranks.T, perms.T, axis=1)
    hand_a, hand_b = vals[:, :n_tricks], vals[:, n_tricks:]
    # beats[c, t, g]: +1 if A takes trick t in category c, -1 if B does, 0 on a tie.
    beats = (hand_a > hand_b).astype(np.int8) - (hand_b > hand_a)
    # outcome[p][t, g]: the result of trick t when player p announces.
    outcome = []
    for own, opp, policy in ((hand_a, hand_b, policies[0]), (hand_b, hand_a, policies[1])):
        if policy is Policy.INFORMED:
            # Count of the opponent's remaining cards that own card t beats, per category.
            est = np.zeros(own.shape, dtype=np.min_scalar_type(n_tricks))
            for s in range(n_tricks):
                est[:, : s + 1] += opp[:, s, None] < own[:, : s + 1]
        else:
            est = own  # argmax of (v - lo) / span is argmax of v
        # Running argmax over the categories, ties to the lowest index.  The
        # select is arithmetic: np.where on int8 is several times slower.
        best, chosen = est[0], beats[0]
        for c in range(1, est.shape[0]):
            better = est[c] > best
            best = np.maximum(best, est[c])
            chosen = chosen + better * (beats[c] - chosen)
        outcome.append(chosen)
    # A announces next after a trick A takes, or after a tie A announced:
    # after_p[t] says whether A announces trick t + 1 when p announces trick t.
    after_a, after_b = outcome[0] >= 0, outcome[1] > 0
    handover = after_a ^ after_b
    announcer_a = np.empty((n_tricks + 1, perms.shape[0]), dtype=bool)
    announcer_a[0] = a_starts
    # after_a[t] where A announces, after_b[t] where B does: (a & handover) ^ after_b.
    for t in range(n_tricks):
        np.bitwise_and(announcer_a[t], handover[t], out=announcer_a[t + 1])
        announcer_a[t + 1] ^= after_b[t]
    # The trick goes by the announcer's choice.
    result = outcome[1] + announcer_a[:-1] * (outcome[0] - outcome[1])
    changes = (announcer_a[1:] != announcer_a[:-1]).sum(axis=0)
    return (result > 0).sum(axis=0), (result < 0).sum(axis=0), changes


def check_games(k: int, games: int) -> None:
    """Raise ValueError unless games >= 1 and the deals of ``games`` games
    on K cards fit in ``MAX_DEAL_BYTES``: the bytes that :func:`draw_deals`
    holds, its (K, games) table and starters and one chunk's sort keys."""
    if games < 1:
        raise ValueError("need at least one game")
    card, key = np.min_scalar_type(k - 1).itemsize, np.dtype(_key_type(k)).itemsize
    nbytes = games * (k * card + 1) + min(games, CHUNK_GAMES) * k * key
    if nbytes > MAX_DEAL_BYTES:
        raise ValueError(
            f"{games} games of {k} cards need {nbytes} bytes of deals, more than the "
            f"{MAX_DEAL_BYTES} supported; reduce the games"
        )


def draw_deals(k: int, games: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(perms, a_starts) of ``games`` uniform deals on K cards, as ``_play_batch`` takes them.

    Per chunk of at most ``CHUNK_GAMES`` games, :func:`_card_orders` draws
    each game's hand order, then one starter per game is drawn, A on 0.
    ``perms`` is the (games, K) transpose of a card-major (K, games) table in
    ``np.min_scalar_type(K - 1)``, so ``_play_batch`` gathers along a
    contiguous index.
    """
    check_games(k, games)
    table = np.empty((k, games), dtype=np.min_scalar_type(k - 1))
    a_starts = np.empty(games, dtype=bool)
    for start in range(0, games, CHUNK_GAMES):
        n = min(CHUNK_GAMES, games - start)
        table[:, start : start + n] = _card_orders(k, n, rng, table.dtype).T
        a_starts[start : start + n] = rng.integers(2, size=n) == 0
    return table.T, a_starts


def _key_type(k: int) -> type:
    """The sort key of :func:`_card_orders` on K cards."""
    return np.uint32 if k <= 256 else np.uint64


def _card_orders(k: int, rows: int, rng: np.random.Generator, dtype: np.dtype) -> np.ndarray:
    """(rows, K) uniform random orders of the K card indices, in ``dtype``.

    A uniform order of K cards is the order of K random keys (Knuth, TAOCP
    Vol. 2, 3.4.2).  Each key is a full-range random word (uint32 up to 256
    cards, uint64 above) shifted left by b = ``(K - 1).bit_length()`` bits,
    with its card's index in the low b bits, so the keys are distinct and one
    in-place sort per row orders them.  The rows whose random parts
    (``key >> b``) tie are then redrawn, together and in row order, until
    none ties: given no tie, every order is equally likely, so the orders
    are exactly uniform.
    """
    key_type = _key_type(k)
    bits = (k - 1).bit_length()
    keys = rng.integers(np.iinfo(key_type).max, size=(rows, k), dtype=key_type, endpoint=True)
    keys <<= bits
    keys |= np.arange(k, dtype=key_type)
    keys.sort(axis=1)
    # The cards are the low bits, narrowed first so that the caller's
    # transpose moves a quarter of the keys' bytes up to 256 cards.
    cards = keys.astype(dtype)
    cards &= (1 << bits) - 1
    # Equal neighbours of the flat random parts, less the pairs that
    # straddle two rows: one pass, where a per-row any() costs as much as
    # the sort.
    keys >>= bits
    random = keys.ravel()
    second = np.flatnonzero(random[1:] == random[:-1]) + 1
    tied = np.zeros(rows, dtype=bool)
    tied[second[second % k != 0] // k] = True
    if tied.any():
        cards[tied] = _card_orders(k, np.count_nonzero(tied), rng, dtype)
    return cards


def play_deals(
    deck: Deck, policies: tuple[Policy, Policy], deals: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-game (tricks_a, tricks_b, announcer_changes) of ``deck`` on ``deals`` from
    :func:`draw_deals`, in deal order; played in chunks of at most ``CHUNK_GAMES``."""
    perms, a_starts = deals
    if perms.shape[1] != deck.shape.K:
        raise ValueError(f"deals of {perms.shape[1]} cards do not fit a deck of {deck.shape.K}")
    chunks = []
    for start in range(0, len(perms), CHUNK_GAMES):
        part = slice(start, start + CHUNK_GAMES)
        chunks.append(_play_batch(deck.values, perms[part], a_starts[part], policies))
    tricks_a, tricks_b, changes = zip(*chunks)
    return np.concatenate(tricks_a), np.concatenate(tricks_b), np.concatenate(changes)


def simulate_deals(
    deck: Deck, policies: tuple[Policy, Policy], deals: tuple[np.ndarray, np.ndarray]
) -> SimulationSummary:
    """Sums over the games of :func:`play_deals`."""
    tricks_a, tricks_b, changes = play_deals(deck, policies, deals)
    return SimulationSummary(
        games=len(tricks_a),
        wins_a=int(np.count_nonzero(tricks_a > tricks_b)),
        draws=int(np.count_nonzero(tricks_a == tricks_b)),
        announcer_changes=int(changes.sum()),
        tightness=int(np.abs(2 * tricks_a - deck.shape.K // 2).sum()),
    )


def simulate(
    deck: Deck,
    policies: tuple[Policy, Policy],
    games: int,
    rng: np.random.Generator,
) -> SimulationSummary:
    """Monte Carlo batch: :func:`simulate_deals` on ``games`` fresh deals from ``rng``."""
    return simulate_deals(deck, policies, draw_deals(deck.shape.K, games, rng))
