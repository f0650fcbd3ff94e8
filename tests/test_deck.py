"""Card dominance, deck validity, genome round trips, and deck and table CSV files."""

import csv
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trumpbench import deck as deck_module
from trumpbench.deck import (
    DeckShape,
    ValidityReport,
    deck_is_valid,
    dominance_matrix,
    dominating_pair_count,
    genome_to_deck,
    load_deck,
    random_valid_deck,
    read_table,
    rescale_values,
    save_deck,
    write_table,
)


def card_dominates(a, b) -> bool:
    """Reference: card ``a`` beats card ``b`` in every category."""
    return bool(np.all(np.asarray(a, dtype=float) > np.asarray(b, dtype=float)))


class TestCardDominance:
    """Card against card, as entries of ``dominance_matrix``."""

    def test_strictly_greater_everywhere(self):
        assert dominance_matrix([[3, 5], [2, 4]]).tolist() == [[False, True], [False, False]]

    def test_incomparable(self):
        assert not dominance_matrix([[3, 5], [5, 3]]).any()

    def test_irreflexive(self):
        assert not dominance_matrix([[3, 5], [3, 5]]).any()

    def test_order_properties_on_random_sets(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = dominance_matrix(rng.uniform(1, 10, size=(6, 3)))
            assert not d.diagonal().any()
            assert not (d & d.T).any()
            # Transitive: wherever i beats j and j beats k, i beats k.
            assert not ((d.astype(int) @ d.astype(int) > 0) & ~d).any()


def pairwise_valid(v: np.ndarray) -> bool:
    """The two deck constraints, checked card against card."""
    k = len(v)
    if any(np.array_equal(v[i], v[j]) for i in range(k) for j in range(i + 1, k)):
        return False
    return not any(
        all(card_dominates(v[i], v[j]) for j in range(k) if j != i) for i in range(k)
    )


class TestDeckValidity:
    def test_dominant_card_detected(self):
        assert not deck_is_valid(np.array([[10, 10], [1, 1], [2, 3]], dtype=float)).valid

    def test_duplicates_detected(self):
        assert not deck_is_valid(np.array([[5, 5], [5, 5], [1, 9]], dtype=float)).valid

    def test_valid_antichain(self):
        assert deck_is_valid(np.array([[10, 1], [1, 10], [5, 5]], dtype=float)).valid

    @pytest.mark.parametrize("values", [[], np.empty((3, 0))], ids=["no-card", "three-cards"])
    def test_matrix_without_categories_rejected(self, values):
        # Without categories no card beats another; such a matrix is no deck.
        for check in (deck_is_valid, dominating_pair_count):
            with pytest.raises(ValueError, match=r"2-D matrix with categories"):
                check(values)

    @settings(max_examples=400, deadline=None)
    @given(
        arrays(
            float,
            st.tuples(st.integers(1, 8), st.integers(1, 4)),
            elements=st.sampled_from([1.0, 2.0, 3.0]),
        )
    )
    def test_matches_pairwise_rule(self, v):
        # A three-value lattice makes ties, duplicates and dominant cards common.
        assert deck_is_valid(v).valid == pairwise_valid(v)


def dominance_matrix_oracle(deck) -> np.ndarray:
    """Reference: the (K, K, L) comparison tensor reduced over categories."""
    v = np.atleast_2d(np.asarray(deck, dtype=float))
    return np.all(v[:, None, :] > v[None, :, :], axis=2)


def deck_is_valid_oracle(deck) -> ValidityReport:
    """Reference: both rules evaluated in full, without early exits."""
    v = np.atleast_2d(np.asarray(deck, dtype=float))
    if len(v) < 2:
        return ValidityReport(valid=len(v) == 0)
    rows = v[np.lexsort(v.T)]
    duplicate = np.any(np.all(rows[1:] == rows[:-1], axis=1))
    top = np.argmax(v, axis=0)
    ranked = np.sort(v, axis=0)
    dominant = np.all(top == top[0]) and np.all(ranked[-1] > ranked[-2])
    return ValidityReport(valid=not (duplicate or dominant))


# Decks on a small integer lattice, where ties, duplicate cards and
# all-dominating cards are common; two-card decks get their own draws.
lattice_decks = arrays(
    float,
    st.tuples(st.one_of(st.just(2), st.integers(0, 12)), st.integers(1, 5)),
    elements=st.integers(0, 3).map(float),
)


@st.composite
def continuous_decks(draw):
    """Decks of distinct continuous first values, as optimizers make them,
    often with one card copied onto another or with two distinct cards
    sharing only their first value."""
    k, l = draw(st.integers(2, 12)), draw(st.integers(1, 5))
    first = arrays(float, k, elements=st.floats(1, 10), unique=True)
    v = np.column_stack([draw(first), draw(arrays(float, (k, l - 1), elements=st.floats(1, 10)))])
    i, j = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
    edit = draw(st.sampled_from(["none", "copy-card", "share-first-value"]))
    if edit == "copy-card":
        v[j] = v[i]
    elif edit == "share-first-value":
        v[j, 0] = v[i, 0]
    return v


@st.composite
def signed_zero_nan_decks(draw):
    """Lattice decks whose first column holds -0.0 beside 0.0, and NaN:
    -0.0 equals 0.0, and NaN equals nothing, not even itself."""
    shape = st.tuples(st.integers(2, 12), st.integers(1, 5))
    v = draw(arrays(float, shape, elements=st.integers(0, 1).map(float)))
    v[:, 0] = draw(arrays(float, len(v), elements=st.sampled_from([-0.0, 0.0, np.nan, 1.0])))
    return v


class TestKernelsMatchOracles:
    @settings(max_examples=200, deadline=None)
    @given(lattice_decks)
    def test_dominance_matrix(self, v):
        out = dominance_matrix(v)
        expected = dominance_matrix_oracle(v)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert np.array_equal(out, expected)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(lattice_decks, continuous_decks(), signed_zero_nan_decks()))
    # Cards equal only through -0.0 == 0.0; distinct cards tied only by
    # -0.0 and 0.0; cards that NaN keeps apart; a NaN beside a real tie.
    @example(np.array([[-0.0, 1.0], [0.0, 1.0], [1.0, 0.0]]))
    @example(np.array([[0.0, 1.0], [-0.0, 0.0], [1.0, 0.5]]))
    @example(np.array([[np.nan, 1.0], [np.nan, 1.0], [1.0, 0.0]]))
    @example(np.array([[np.nan, 1.0], [2.0, 0.0], [2.0, 1.0], [np.nan, 0.5]]))
    def test_deck_is_valid(self, v):
        assert deck_is_valid(v) == deck_is_valid_oracle(v)


class TestDeckShape:
    @pytest.mark.parametrize(
        "lo, hi", [(1.0, np.inf), (-np.inf, 10.0), (np.nan, 10.0), (1.0, np.nan)]
    )
    def test_non_finite_bounds_rejected(self, lo, hi):
        # A non-finite bound leaves no range to draw genes from.
        with pytest.raises(ValueError, match="lo and hi must be finite"):
            DeckShape(lo=lo, hi=hi)


class TestGenomeCodec:
    def test_row_major_layout(self):
        shape = DeckShape(K=2, L=2)
        deck = genome_to_deck(np.array([1.0, 2.0, 3.0, 4.0]), shape)
        assert np.array_equal(deck.values, [[1, 2], [3, 4]])

    def test_inverse(self):
        # Flattening a deck row by row gives the genome that decodes back to it.
        shape = DeckShape()
        deck = random_valid_deck(shape, np.random.default_rng(4))
        assert genome_to_deck(deck.values.reshape(-1), shape) == deck

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            genome_to_deck(np.zeros(5), DeckShape(K=2, L=2))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 5), st.integers(0, 2**31))
    def test_round_trip_is_bijection(self, half_k, l, seed):
        shape = DeckShape(K=2 * half_k, L=l)
        rng = np.random.default_rng(seed)
        genome = rng.uniform(shape.lo, shape.hi, size=shape.genome_length)
        back = genome_to_deck(genome, shape).values.reshape(-1)
        assert np.array_equal(back, genome)


class TestRandomValidDeck:
    def test_deterministic_given_seed(self):
        shape = DeckShape()
        a = random_valid_deck(shape, np.random.default_rng(42))
        b = random_valid_deck(shape, np.random.default_rng(42))
        assert a == b

    def test_all_draws_valid_and_bounded(self):
        shape = DeckShape()
        rng = np.random.default_rng(1)
        for _ in range(200):
            deck = random_valid_deck(shape, rng)
            assert deck_is_valid(deck).valid
            assert deck.values.min() >= shape.lo
            assert deck.values.max() <= shape.hi

    def test_gives_up_after_the_draw_limit(self, monkeypatch):
        monkeypatch.setattr(deck_module, "RANDOM_DECK_TRIES", 3)
        monkeypatch.setattr(deck_module, "deck_is_valid", lambda deck: ValidityReport(valid=False))
        rng = np.random.default_rng(5)
        with pytest.raises(RuntimeError, match=r"no valid deck found in 3 draws for .*K=8, L=2"):
            random_valid_deck(DeckShape(K=8, L=2), rng)
        # Each try draws one whole deck.
        expected = np.random.default_rng(5)
        expected.uniform(size=(3, 8, 2))
        assert rng.bit_generator.state == expected.bit_generator.state

    def test_single_category_fails_before_drawing(self):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"K=32, L=1"):
            random_valid_deck(DeckShape(K=32, L=1), rng)
        assert rng.bit_generator.state == before


class TestDeckFiles:
    def test_round_trip(self, tmp_path):
        shape = DeckShape(K=4, L=3)
        deck = random_valid_deck(shape, np.random.default_rng(3))
        path = tmp_path / "deck.csv"
        save_deck(deck, path)
        assert load_deck(path) == deck

    def test_quoted_names_with_commas_and_quotes(self, tmp_path):
        path = tmp_path / "deck.csv"
        path.write_text('name,a,b\n"Ace, high",1,2\n"say ""hi""",2,1\n')
        assert load_deck(path).values.tolist() == [[1.0, 2.0], [2.0, 1.0]]

    def test_rescale_maps_midpoint(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("name,a,b\nc1,0,1\nc2,200,2\nc3,100,3\nc4,50,4\n")
        deck = load_deck(path, rescale=True)
        # Category min 0 -> 1, max 200 -> 10, midpoint 100 -> 5.5.
        assert deck.values[2, 0] == pytest.approx(5.5)
        assert deck.values[0, 0] == 1.0
        assert deck.values[1, 0] == 10.0

    def test_rescale_constant_category_maps_to_midpoint(self):
        mat = np.array([[3.0, 1.0], [3.0, 2.0]])
        out = rescale_values(mat, 1.0, 10.0)
        assert np.all(out[:, 0] == 5.5)
        assert out[0, 1] == 1.0
        assert out[1, 1] == 10.0

    def test_rescale_preserves_dominance(self):
        rng = np.random.default_rng(11)
        mat = rng.uniform(0, 500, size=(6, 3))
        out = rescale_values(mat, 1.0, 10.0)
        for i in range(6):
            for j in range(6):
                if i != j:
                    assert card_dominates(mat[i], mat[j]) == card_dominates(out[i], out[j])

    def test_short_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,a,b,c,d\ncard,1,2,3\n")
        with pytest.raises(ValueError, match="line 2"):
            load_deck(path)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,a,b\nc1,1,2\nc2,x,4\n")
        with pytest.raises(ValueError, match="line 3"):
            load_deck(path)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,a,b\n\n  \nc1,1,2\nc2,3\n")
        with pytest.raises(ValueError, match="line 5"):
            load_deck(path)

    def test_out_of_range_without_rescale(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("name,a,b\nc1,0,1\nc2,200,2\n")
        with pytest.raises(ValueError, match="rescale"):
            load_deck(path)


# Finite doubles, with the edge cases that a formatting shortcut would
# break (signed zero, subnormals, values near the largest double) and
# integers, which the table writes as doubles.
TABLE_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308]),
    st.integers(-(2**60), 2**60),
)
PLAIN_NAMES = st.from_regex(r"[a-z_][a-z0-9_]{0,6}", fullmatch=True)


@st.composite
def tables(draw, names):
    """(named, header, rows) of a table of 1-4 value columns and 1-5 rows."""
    named = draw(st.booleans())
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(TABLE_VALUES, min_size=width, max_size=width), min_size=1, max_size=5))
    header = [f"v{j}" for j in range(width)]
    if named:
        header = ["name", *header]
        rows = [[draw(names), *row] for row in rows]
    return named, header, rows


class TestTableFiles:
    """write_table then read_table, the one CSV format of decks, fronts and
    the indicator table."""

    @settings(max_examples=200, deadline=None)
    @given(
        table=tables(st.text(st.sampled_from('ab ,"'), max_size=5)),
        gaps=st.lists(st.lists(st.sampled_from(["", "  "]), max_size=2), min_size=6, max_size=6),
        bad=st.integers(0, 4),
    )
    @example(
        table=(
            True,
            ["name", "v0", "v1", "v2"],
            [['say "hi", x', -0.0, 5e-324, 1.7e308], ["", -1.7e308, 3, 2.2250738585072014e-308]],
        ),
        gaps=[["", "  "], [], ["  "], [], [], []],
        bad=1,
    )
    def test_round_trip(self, tmp_path_factory, table, gaps, bad):
        named, header, rows = table
        path = tmp_path_factory.getbasetemp() / "table.csv"
        write_table(path, header, rows)
        values = np.array([[float(x) for x in row[named:]] for row in rows])
        back_header, back = read_table(path, named)
        assert back_header == header
        assert back.tobytes() == values.tobytes()
        if named:
            # Names with commas and quotes are quoted, and read back as written.
            with open(path, encoding="utf-8", newline="") as fh:
                assert [record[0] for record in csv.reader(fh)][1:] == [row[0] for row in rows]

        # Blank lines, empty or of spaces, are skipped but counted.
        lines = []
        for gap, line in zip(gaps, path.read_text(encoding="utf-8").splitlines()):
            lines += [*gap, line]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert read_table(path, named)[1].tobytes() == values.tobytes()
        lineno = [i for i, line in enumerate(lines, 1) if line.strip()][1 + bad % len(rows)]
        lines[lineno - 1] += ",1.0"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        message = f"{path}, line {lineno}: expected {len(header)} fields, got {len(header) + 1}"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_table(path, named)

    @settings(max_examples=100, deadline=None)
    @given(table=tables(PLAIN_NAMES))
    def test_bytes_of_plain_tables(self, tmp_path_factory, table):
        # Names without commas or quotes are written bare: each line is its
        # fields joined by commas, numbers as repr(float), the format every
        # golden digest of a deck, front or indicator table was taken in.
        _, header, rows = table
        path = tmp_path_factory.getbasetemp() / "table.csv"
        write_table(path, header, rows)
        oracle = "".join(
            ",".join(x if isinstance(x, str) else repr(float(x)) for x in row) + "\n"
            for row in [header, *rows]
        )
        assert path.read_bytes() == oracle.encode()
