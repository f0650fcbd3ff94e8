"""Game rules and Monte Carlo batches."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, chisquare

from trumpbench import game
from trumpbench.deck import Deck, DeckShape, random_valid_deck
from trumpbench.game import (
    CHUNK_GAMES,
    Deal,
    GameResult,
    Outcome,
    Player,
    Policy,
    draw_deals,
    play_deals,
    play_game,
    simulate,
    simulate_deals,
)


def random_deal(k: int, rng: np.random.Generator) -> Deal:
    """Uniform shuffle; the first K/2 cards form hand A; uniform starter."""
    perm = rng.permutation(k)
    half = k // 2
    starter = Player.A if rng.integers(2) == 0 else Player.B
    return Deal(tuple(int(i) for i in perm[:half]), tuple(int(i) for i in perm[half:]), starter)


def reference_deals(k: int, games: int, rng: np.random.Generator) -> tuple[list, list, int]:
    """Reference of :func:`draw_deals`, row by row: (hand orders, starters, rows redrawn).

    Per chunk, each row of full-range words orders the cards by Python's
    ``sorted`` over (random part, card) pairs, the random part being the word
    less its top (K - 1).bit_length() bits.  Rows whose random parts tie are
    redrawn together, in row order, until none ties; then the starters.
    """
    key_type = np.uint32 if k <= 256 else np.uint64
    modulus = 2 ** (np.iinfo(key_type).bits - (k - 1).bit_length())
    orders, starters, redrawn = [], [], 0
    for start in range(0, games, CHUNK_GAMES):
        n = min(CHUNK_GAMES, games - start)
        rows, pending = [None] * n, list(range(n))
        while pending:
            words = rng.integers(
                np.iinfo(key_type).max, size=(len(pending), k), dtype=key_type, endpoint=True
            )
            tied = []
            for row, drawn in zip(pending, words.tolist()):
                pairs = sorted((word % modulus, card) for card, word in enumerate(drawn))
                if len({r for r, _ in pairs}) < k:
                    tied.append(row)
                else:
                    rows[row] = [card for _, card in pairs]
            redrawn += len(tied)
            pending = tied
        orders += rows
        starters += (rng.integers(2, size=n) == 0).tolist()
    return orders, starters, redrawn


def _play_hands(
    hand_a: np.ndarray,
    hand_b: np.ndarray,
    announcer_is_a: bool,
    policies: tuple[Policy, Policy],
    shape: DeckShape,
) -> GameResult:
    """Reference: the game-by-game trick loop the batched kernel replaced."""
    n_tricks = hand_a.shape[0]
    lo = shape.lo
    span = shape.hi - shape.lo
    informed_a = policies[0] is Policy.INFORMED
    informed_b = policies[1] is Policy.INFORMED
    tricks_a = tricks_b = ties = changes = 0
    for t in range(n_tricks):
        card_a = hand_a[t]
        card_b = hand_b[t]
        if announcer_is_a:
            if informed_a:
                remaining = hand_b[t:]
                est = (remaining < card_a).sum(axis=0)
            else:
                est = card_a  # argmax of (v - lo) / span is argmax of v
        else:
            if informed_b:
                remaining = hand_a[t:]
                est = (remaining < card_b).sum(axis=0)
            else:
                est = card_b
        cat = int(np.argmax(est))
        va, vb = card_a[cat], card_b[cat]
        if va > vb:
            tricks_a += 1
            if not announcer_is_a:
                changes += 1
                announcer_is_a = True
        elif vb > va:
            tricks_b += 1
            if announcer_is_a:
                changes += 1
                announcer_is_a = False
        else:
            ties += 1

    if tricks_a > tricks_b:
        outcome = Outcome.WIN_A
    elif tricks_a == tricks_b:
        outcome = Outcome.DRAW
    else:
        outcome = Outcome.WIN_B
    return GameResult(
        tricks_a=tricks_a,
        tricks_b=tricks_b,
        ties=ties,
        announcer_changes=changes,
        outcome=outcome,
        tightness=float(abs(2 * tricks_a - n_tricks)),
    )


POLICY_PAIRS = [(pa, pb) for pa in Policy for pb in Policy]


def four_card_deck():
    shape = DeckShape(K=4, L=2)
    return Deck(np.array([[10.0, 1.0], [9.0, 2.0], [1.0, 10.0], [2.0, 9.0]]), shape)


class TestAnnouncedCategory:
    """The category an announcer picks: the informed agent maximises the count
    of the opponent's remaining cards its card beats, the range-only agent
    maximises (v - lo) / (hi - lo), that is its raw value."""

    @staticmethod
    def count_beats_value_deck():
        # Card 0 is highest in category 0, where it beats neither of B's
        # cards; in category 1 it beats both.
        shape = DeckShape(K=4, L=2)
        return Deck(np.array([[9.0, 5.0], [1.0, 1.0], [10.0, 1.0], [10.0, 2.0]]), shape)

    def test_informed_announces_most_beaten_category(self):
        deck = self.count_beats_value_deck()
        deal = Deal((0, 1), (2, 3), Player.A)
        result = play_game(deck, deal, (Policy.INFORMED, Policy.RANGE_ONLY))
        # Trick 1 in category 1 (5 > 1) goes to A; trick 2 (no category
        # beats anything, so category 0) goes to B.
        assert (result.tricks_a, result.tricks_b, result.announcer_changes) == (1, 1, 1)

    def test_range_only_announces_highest_value(self):
        deck = self.count_beats_value_deck()
        deal = Deal((0, 1), (2, 3), Player.A)
        result = play_game(deck, deal, (Policy.RANGE_ONLY, Policy.RANGE_ONLY))
        # Trick 1 in category 0 (9 < 10) goes to B, who then leads with 10.
        assert (result.tricks_a, result.tricks_b, result.announcer_changes) == (0, 2, 1)

    def test_informed_counts_only_remaining_cards(self):
        # At trick 2, card [6, 6] beats one remaining card in each category
        # and the tie goes to category 0 (6 > 5).  Counting B's played card
        # [9, 2] too would favour category 1, which B takes (7 > 6).
        shape = DeckShape(K=6, L=2)
        values = np.array([[10.0, 1.0], [6.0, 6.0], [1.0, 2.0], [9.0, 2.0], [5.0, 7.0], [7.0, 1.0]])
        deal = Deal((0, 1, 2), (3, 4, 5), Player.A)
        result = play_game(Deck(values, shape), deal, (Policy.INFORMED, Policy.INFORMED))
        assert (result.tricks_a, result.tricks_b, result.announcer_changes) == (3, 0, 0)


class TestPlayGame:
    def test_informed_starter_sweeps(self):
        deck = four_card_deck()
        deal = Deal((0, 1), (2, 3), Player.A)
        result = play_game(deck, deal, (Policy.INFORMED, Policy.RANGE_ONLY))
        assert result.tricks_a == 2
        assert result.announcer_changes == 0
        assert result.outcome is Outcome.WIN_A

    def test_range_starter_sweeps(self):
        deck = four_card_deck()
        deal = Deal((0, 1), (2, 3), Player.B)
        result = play_game(deck, deal, (Policy.INFORMED, Policy.RANGE_ONLY))
        assert result.tricks_a == 0
        assert result.announcer_changes == 0
        assert result.outcome is Outcome.WIN_B

    def test_tied_tricks_leave_announcer_and_score_unchanged(self):
        shape = DeckShape(K=4, L=2)
        # Category 1 always preferred by the range-only announcer and always tied.
        deck = Deck(np.array([[1.0, 9.0], [2.0, 9.0], [1.5, 9.0], [2.5, 9.0]]), shape)
        deal = Deal((0, 1), (2, 3), Player.A)
        result = play_game(deck, deal, (Policy.RANGE_ONLY, Policy.RANGE_ONLY))
        assert result.ties == 2
        assert result.tricks_a == 0 and result.tricks_b == 0
        assert result.announcer_changes == 0
        assert result.outcome is Outcome.DRAW

    def test_is_pure_function(self):
        deck = four_card_deck()
        deal = Deal((0, 2), (1, 3), Player.A)
        policies = (Policy.INFORMED, Policy.RANGE_ONLY)
        assert play_game(deck, deal, policies) == play_game(deck, deal, policies)

    def test_invalid_deal_rejected(self):
        deck = four_card_deck()
        with pytest.raises(ValueError):
            play_game(deck, Deal((0, 1), (1, 3), Player.A), (Policy.INFORMED, Policy.INFORMED))

    def test_trick_counts_partition_rounds(self):
        rng = np.random.default_rng(9)
        shape = DeckShape(K=8, L=3)
        for _ in range(300):
            deck = random_valid_deck(shape, rng)
            deal = random_deal(shape.K, rng)
            result = play_game(deck, deal, (Policy.INFORMED, Policy.RANGE_ONLY))
            assert result.tricks_a + result.tricks_b + result.ties == shape.K // 2
            assert 0 <= result.announcer_changes <= shape.K // 2
            assert result.tightness == abs(2 * result.tricks_a - shape.K // 2)

    def test_announcer_changes_match_instrumented_replay(self):
        # Independent replay that tracks the announcer explicitly.
        rng = np.random.default_rng(21)
        shape = DeckShape(K=8, L=3)
        for _ in range(100):
            deck = random_valid_deck(shape, rng)
            deal = random_deal(shape.K, rng)
            result = play_game(deck, deal, (Policy.INFORMED, Policy.RANGE_ONLY))

            announcer = deal.starter
            changes = 0
            for t in range(shape.K // 2):
                my_idx, opp_idx = (deal.hand_a, deal.hand_b) if announcer is Player.A else (
                    deal.hand_b,
                    deal.hand_a,
                )
                mine = deck.values[my_idx[t]]
                if announcer is Player.A:
                    remaining = deck.values[list(opp_idx[t:])]
                    est = [
                        sum(remaining[i][c] < mine[c] for i in range(len(remaining)))
                        / len(remaining)
                        for c in range(shape.L)
                    ]
                else:
                    est = [(v - 1.0) / 9.0 for v in mine]
                cat = max(range(shape.L), key=lambda c: (est[c], -c))
                va = deck.values[deal.hand_a[t]][cat]
                vb = deck.values[deal.hand_b[t]][cat]
                if va == vb:
                    continue
                winner = Player.A if va > vb else Player.B
                if winner is not announcer:
                    changes += 1
                    announcer = winner
            assert result.announcer_changes == changes


class TestSimulate:
    def test_deterministic_given_seed(self):
        deck = random_valid_deck(DeckShape(), np.random.default_rng(4))
        policies = (Policy.INFORMED, Policy.RANGE_ONLY)
        a = simulate(deck, policies, 200, np.random.default_rng(77))
        b = simulate(deck, policies, 200, np.random.default_rng(77))
        assert a == b

    def test_single_game_means(self):
        deck = random_valid_deck(DeckShape(), np.random.default_rng(6))
        policies = (Policy.INFORMED, Policy.RANGE_ONLY)
        summary = simulate(deck, policies, 1, np.random.default_rng(8))
        deals = draw_deals(deck.shape.K, 1, np.random.default_rng(8))
        (tricks_a,), _, (changes,) = play_deals(deck, policies, deals)
        assert summary.mean_announcer_changes == changes
        assert summary.mean_tightness == abs(2 * tricks_a - DeckShape().K // 2)

    def test_decks_on_shared_deals_match_their_own_simulation(self):
        policies = (Policy.INFORMED, Policy.RANGE_ONLY)
        deals = draw_deals(32, CHUNK_GAMES + 5, np.random.default_rng(41))
        for seed in (42, 43):
            deck = random_valid_deck(DeckShape(), np.random.default_rng(seed))
            expected = simulate(deck, policies, CHUNK_GAMES + 5, np.random.default_rng(41))
            assert simulate_deals(deck, policies, deals) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, CHUNK_GAMES + 50),
        st.data(),
        st.sampled_from(POLICY_PAIRS),
        st.integers(0, 2**32 - 1),
    )
    def test_summaries_of_split_deals_add_up_to_the_whole(self, games, data, policies, seed):
        rng = np.random.default_rng(seed)
        deck = random_valid_deck(DeckShape(), rng)
        perms, a_starts = draw_deals(deck.shape.K, games, rng)
        cut = data.draw(st.integers(1, games - 1))
        head = simulate_deals(deck, policies, (perms[:cut], a_starts[:cut]))
        tail = simulate_deals(deck, policies, (perms[cut:], a_starts[cut:]))
        assert head + tail == simulate_deals(deck, policies, (perms, a_starts))

    def test_rates_partition_unity(self):
        deck = random_valid_deck(DeckShape(), np.random.default_rng(10))
        summary = simulate(deck, (Policy.RANGE_ONLY, Policy.RANGE_ONLY), 500, np.random.default_rng(1))
        assert summary.win_rate_a + summary.draw_rate + summary.loss_rate_a == pytest.approx(1.0, abs=1e-12)

    def test_self_play_is_roughly_fair(self):
        # Self-play draws about 10% of games, so A wins about 45%, not 50%;
        # what symmetry fixes is that A wins as often as it loses.  The bound
        # is 4 standard errors of the difference of the two rates.
        games = 20_000
        deck = random_valid_deck(DeckShape(), np.random.default_rng(12))
        summary = simulate(deck, (Policy.RANGE_ONLY, Policy.RANGE_ONLY), games, np.random.default_rng(3))
        win, loss = summary.win_rate_a, summary.loss_rate_a
        stderr = np.sqrt((win + loss - (win - loss) ** 2) / games)
        assert abs(win - loss) < 4 * stderr

    def test_rejects_zero_games(self):
        deck = random_valid_deck(DeckShape(), np.random.default_rng(13))
        with pytest.raises(ValueError):
            simulate(deck, (Policy.INFORMED, Policy.RANGE_ONLY), 0, np.random.default_rng(0))


@st.composite
def integer_games(draw):
    """A small integer-valued deck (so values tie), a deal and a policy pair."""
    k = 2 * draw(st.integers(1, 8))
    l = draw(st.integers(1, 5))
    cell = st.integers(1, 4).map(float)
    rows = draw(st.lists(st.lists(cell, min_size=l, max_size=l), min_size=k, max_size=k))
    perm = draw(st.permutations(range(k)))
    deal = Deal(tuple(perm[: k // 2]), tuple(perm[k // 2 :]), draw(st.sampled_from(Player)))
    return Deck(np.array(rows), DeckShape(K=k, L=l)), deal, draw(st.sampled_from(POLICY_PAIRS))


class TestKernelMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(integer_games())
    def test_play_game_equals_trick_loop(self, game):
        deck, deal, policies = game
        expected = _play_hands(
            deck.values[list(deal.hand_a)],
            deck.values[list(deal.hand_b)],
            deal.starter is Player.A,
            policies,
            deck.shape,
        )
        assert play_game(deck, deal, policies) == expected

    @pytest.mark.parametrize("games", [1, 37, CHUNK_GAMES + 3])
    @pytest.mark.parametrize("policies", POLICY_PAIRS, ids=lambda p: f"{p[0].value}-{p[1].value}")
    def test_simulate_replays_its_seeded_deals(self, games, policies):
        shape = DeckShape(K=8, L=3)
        # Tied values within each category, on scales that differ between
        # categories, so the range-only choice compares across categories.
        values = np.random.default_rng(5).integers(1, 5, size=(8, 3)) * np.array([1.0, 2.0, 2.5])
        deck = Deck(values, shape)
        tricks_a, tricks_b, changes = play_deals(
            deck, policies, draw_deals(shape.K, games, np.random.default_rng(17))
        )
        summary = simulate(deck, policies, games, np.random.default_rng(17))

        orders, starters, _ = reference_deals(shape.K, games, np.random.default_rng(17))
        expected = [
            _play_hands(deck.values[order[:4]], deck.values[order[4:]], a, policies, shape)
            for order, a in zip(orders, starters)
        ]
        assert tricks_a.tolist() == [g.tricks_a for g in expected]
        assert tricks_b.tolist() == [g.tricks_b for g in expected]
        assert changes.tolist() == [g.announcer_changes for g in expected]
        wins = sum(g.outcome is Outcome.WIN_A for g in expected)
        draws = sum(g.outcome is Outcome.DRAW for g in expected)
        assert summary.win_rate_a == wins / games
        assert summary.draw_rate == draws / games
        assert summary.loss_rate_a == (games - wins - draws) / games
        assert summary.mean_announcer_changes == sum(g.announcer_changes for g in expected) / games
        assert summary.mean_tightness == sum(g.tightness for g in expected) / games


class TestDealDraw:
    """The deals :func:`draw_deals` draws and :func:`play_deals` hands to the kernel."""

    def test_hand_orders_and_starters_are_uniform(self):
        # K=4 has 4! = 24 hand orders (hand A, then hand B) and 2 starters.
        # With a fixed seed the test is deterministic; the threshold only
        # says how far from uniform the counts of that seed may look.
        p_threshold = 1e-3
        games = 6 * CHUNK_GAMES
        perms, a_starts = draw_deals(4, games, np.random.default_rng(23))
        assert perms.shape == (games, 4) and a_starts.shape == (games,)
        assert (np.sort(perms, axis=1) == np.arange(4)).all()

        orders = {order: i for i, order in enumerate(itertools.permutations(range(4)))}
        order_counts = np.bincount([orders[tuple(p)] for p in perms.tolist()], minlength=24)
        assert order_counts.min() > 0
        assert chisquare(order_counts).pvalue > p_threshold
        assert chisquare(np.bincount(a_starts, minlength=2)).pvalue > p_threshold

    def test_positions_hold_every_card_uniformly(self):
        # Position x card counts of K=32 deals: a wrong shift or mask in the
        # sort keys skews them, which the 24 orders of K=4 cannot show.  The
        # counts of G uniform orders have covariance G/(K-1) on the
        # (K-1)^2-dimensional space of zero row and column sums, so Pearson's
        # statistic is K/(K-1) times a chi-square of (K-1)^2 degrees of freedom.
        p_threshold = 1e-3
        k, games = 32, 20_000
        perms, _ = draw_deals(k, games, np.random.default_rng(43))
        counts = np.bincount((np.arange(k) * k + perms).ravel(), minlength=k * k)
        expected = games / k
        statistic = ((counts - expected) ** 2 / expected).sum()
        assert chi2.sf(statistic * (k - 1) / k, (k - 1) ** 2) > p_threshold

    @pytest.mark.parametrize("games", [1, CHUNK_GAMES + 3])
    def test_deals_are_row_wise_shuffles_in_a_card_major_table(self, games):
        # Each row is a shuffle of the card indices, drawn chunk by chunk
        # with the starters after each chunk's rows; draw_deals must draw
        # the reference's deals and leave the generator where it leaves it.
        k = 32
        rng, reference_rng = np.random.default_rng(37), np.random.default_rng(37)
        perms, a_starts = draw_deals(k, games, rng)
        assert (np.sort(perms, axis=1) == np.arange(k)).all()
        orders, starters, _ = reference_deals(k, games, reference_rng)
        for start in range(0, games, CHUNK_GAMES):
            part = slice(start, min(start + CHUNK_GAMES, games))
            assert perms[part].tolist() == orders[part]
            assert a_starts[part].tolist() == starters[part]
        assert rng.random() == reference_rng.random()
        # Stored card-major in the smallest type, so the kernel's gather
        # reads a contiguous index.
        assert perms.dtype == np.uint8 and perms.shape == (games, k)
        assert perms.T.flags.c_contiguous

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 150).map(lambda half: 2 * half),
        st.integers(1, CHUNK_GAMES + 50),
        st.integers(0, 2**32 - 1),
    )
    @example(2, 1, 0)
    @example(256, CHUNK_GAMES + 1, 0)
    @example(258, 3, 0)
    def test_deals_sort_random_keys_in_a_card_major_table(self, k, games, seed):
        # draw_deals must draw the reference's deals, chunk by chunk, and
        # leave the generator where the reference leaves it; uint32 keys up
        # to K=256, uint64 above.
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        perms, a_starts = draw_deals(k, games, rng)
        orders, starters, _ = reference_deals(k, games, reference_rng)
        assert perms.tolist() == orders
        assert a_starts.tolist() == starters
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        # Stored card-major in the smallest type, so the kernel's gather
        # reads a contiguous index.
        assert perms.dtype == np.min_scalar_type(k - 1) and perms.shape == (games, k)
        assert perms.T.flags.c_contiguous

    def test_rows_whose_random_parts_tie_are_redrawn(self):
        # 256 cards leave 24 random bits a key, so 40 rows tie now and then:
        # seed 1 ties one row, which both sides redraw.
        perms, a_starts = draw_deals(256, 40, np.random.default_rng(1))
        orders, starters, redrawn = reference_deals(256, 40, np.random.default_rng(1))
        assert redrawn == 1
        assert perms.tolist() == orders and a_starts.tolist() == starters

    def test_kernel_plays_chunks_of_at_most_chunk_games(self, monkeypatch):
        seen = []
        play_batch = game._play_batch

        def record(values, perms, a_starts, policies):
            seen.append(len(a_starts))
            return play_batch(values, perms, a_starts, policies)

        monkeypatch.setattr(game, "_play_batch", record)
        deals = draw_deals(4, 6 * CHUNK_GAMES + 3, np.random.default_rng(23))
        play_deals(four_card_deck(), (Policy.INFORMED, Policy.RANGE_ONLY), deals)
        assert seen == [CHUNK_GAMES] * 6 + [3]

    def test_deals_beyond_max_deal_bytes_fail_before_allocation(self, monkeypatch):
        # Lowered so that nothing large is allocated: 10 games of 4 cards fit
        # exactly, a uint8 card table and a starter a game, and a uint32 key
        # a card of one chunk.
        monkeypatch.setattr(game, "MAX_DEAL_BYTES", 10 * (4 + 1) + 10 * 4 * 4)
        assert draw_deals(4, 10, np.random.default_rng(2))[0].shape == (10, 4)
        message = "11 games of 4 cards need 231 bytes of deals, more than the 210 supported"
        with pytest.raises(ValueError, match=message):
            draw_deals(4, 11, np.random.default_rng(2))
        # Above 256 cards a card takes 2 bytes and a key 8.
        monkeypatch.setattr(game, "MAX_DEAL_BYTES", 2 * (300 * 2 + 1) + 2 * 300 * 8)
        assert draw_deals(300, 2, np.random.default_rng(2))[0].shape == (2, 300)
        with pytest.raises(ValueError, match="3 games of 300 cards need 9003 bytes of deals"):
            draw_deals(300, 3, np.random.default_rng(2))

    @pytest.mark.parametrize("k", [2, 8])
    def test_deals_of_another_card_count_rejected(self, k):
        deals = draw_deals(k, 5, np.random.default_rng(2))
        with pytest.raises(ValueError, match=f"deals of {k} cards do not fit a deck of 4"):
            play_deals(four_card_deck(), (Policy.INFORMED, Policy.RANGE_ONLY), deals)

    def test_games_equal_their_per_chunk_replays(self):
        policies = (Policy.INFORMED, Policy.RANGE_ONLY)
        deck = random_valid_deck(DeckShape(K=8, L=3), np.random.default_rng(29))
        whole = play_deals(deck, policies, draw_deals(8, CHUNK_GAMES + 3, np.random.default_rng(31)))
        rng = np.random.default_rng(31)
        first = play_deals(deck, policies, draw_deals(8, CHUNK_GAMES, rng))
        rest = play_deals(deck, policies, draw_deals(8, 3, rng))
        for got, head, tail in zip(whole, first, rest):
            assert got.tolist() == head.tolist() + tail.tolist()
