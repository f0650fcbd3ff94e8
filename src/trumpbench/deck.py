"""Deck and card representation: dominance between cards, deck validity,
the flat genome encoding used by the optimizers, and the one CSV format
that deck, front and indicator-table files are read and written in."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


# Decks random_valid_deck draws before it gives up on a shape.
RANDOM_DECK_TRIES = 10_000


@dataclass(frozen=True)
class DeckShape:
    """Dimensions and value range of a deck: K cards, L categories, values in [lo, hi]."""

    K: int = 32
    L: int = 4
    lo: float = 1.0
    hi: float = 10.0

    def __post_init__(self) -> None:
        if self.K < 2 or self.K % 2 != 0:
            raise ValueError(f"K must be a positive even integer, got {self.K}")
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"lo and hi must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def genome_length(self) -> int:
        return self.K * self.L


@dataclass(frozen=True, eq=False)
class Deck:
    """A full deck as a read-only (K, L) value matrix."""

    values: np.ndarray
    shape: DeckShape = field(default_factory=DeckShape)

    def __post_init__(self) -> None:
        mat = np.array(self.values, dtype=float)
        if mat.ndim != 2 or mat.shape != (self.shape.K, self.shape.L):
            raise ValueError(
                f"deck values must have shape ({self.shape.K}, {self.shape.L}), got {mat.shape}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "values", mat)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Deck):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.values, other.values)


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of the deck constraint check."""

    valid: bool


def card_matrix(deck_or_values) -> np.ndarray:
    """Accept a Deck or a raw (K, L) array of card values, L >= 1, and return the matrix."""
    if isinstance(deck_or_values, Deck):
        return deck_or_values.values
    mat = np.atleast_2d(np.asarray(deck_or_values, dtype=float))
    if mat.ndim != 2 or mat.shape[1] == 0:
        raise ValueError(f"card values must form a 2-D matrix with categories, got {mat.shape}")
    return mat


def dominance_matrix(deck) -> np.ndarray:
    """Boolean (K, K) matrix: entry [i, j] is True iff card i dominates card j."""
    columns = card_matrix(deck).T
    out = columns[0][:, None] > columns[0]
    for c in columns[1:]:
        out &= c[:, None] > c
    return out


def dominating_pair_count(deck) -> int:
    """Number of ordered card pairs (i, j) where card i dominates card j."""
    return int(dominance_matrix(deck).sum())


def deck_is_valid(deck) -> ValidityReport:
    """Check the two deck constraints: unique cards, no all-dominating card.

    A card beats every other card in every category exactly when it holds
    the strict maximum of every category; so a lone card is invalid, and
    so is every one-category deck.  Neither rule compares the cards
    pairwise, so the check is O(K L log K).

    Equal cards share their first value, and equal values sit next to each
    other in the sorted first column (-0.0 beside 0.0; NaN equals nothing).
    So the first column alone is sorted; only when two of its neighbours
    are equal, which is rare in the decks the optimizers make, are the rows
    sorted lexicographically, which puts identical cards next to each
    other.  On one x86-64 core with numpy 2.4, a 32x4 deck takes ~1 us for
    the column sort and ~4 us for the row sort; the whole check ~7 us
    without a first-value tie and ~15 us with one.  Either broken rule
    alone makes the deck invalid, so a duplicate returns at once.  A
    card holding the strict maximum of every category is the first maximum
    of each (np.argmax), so when those first maxima fall on different cards
    no card dominates and the deck is valid; the columns are sorted, to test
    the maxima for strictness, only when they coincide.
    """
    v = card_matrix(deck)
    if len(v) < 2:
        return ValidityReport(valid=len(v) == 0)
    first = np.sort(v[:, 0])
    if (first[1:] == first[:-1]).any():
        rows = v[np.lexsort(v.T)]
        if (rows[1:] == rows[:-1]).all(axis=1).any():
            return ValidityReport(valid=False)
    top = v.argmax(axis=0)
    if (top != top[0]).any():
        return ValidityReport(valid=True)
    ranked = np.sort(v, axis=0)
    return ValidityReport(valid=not (ranked[-1] > ranked[-2]).all())


def genome_to_deck(genome: np.ndarray, shape: DeckShape) -> Deck:
    """Decode a flat genome into a deck, card-major: card k holds genes [k*L, (k+1)*L).

    Validity is not enforced here; run deck_is_valid separately.
    """
    g = np.asarray(genome, dtype=float)
    if g.ndim != 1 or g.size != shape.genome_length:
        raise ValueError(
            f"genome length {g.size} does not match K*L = {shape.genome_length}"
        )
    return Deck(g.reshape(shape.K, shape.L), shape)


def random_valid_deck(shape: DeckShape, rng: np.random.Generator) -> Deck:
    """Draw genes uniformly from [lo, hi], resampling until the deck is valid.

    With one category the highest card beats every other card, so no valid
    deck exists; that shape raises ValueError before anything is drawn.
    """
    if shape.L == 1:
        raise ValueError(f"no valid deck exists for {shape}: with L=1 the highest card dominates")
    for _ in range(RANDOM_DECK_TRIES):
        mat = rng.uniform(shape.lo, shape.hi, size=(shape.K, shape.L))
        deck = Deck(mat, shape)
        if deck_is_valid(deck).valid:
            return deck
    raise RuntimeError(f"no valid deck found in {RANDOM_DECK_TRIES} draws for {shape}")


def format_table(header, rows) -> str:
    """CSV text: the ``header`` row, then one line per row.  A str value is
    written as it is, quoted where CSV needs it; any other value as
    ``repr(float(x))``, which :func:`read_table` reads back bit for bit."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in (header, *rows):
        writer.writerow([x if isinstance(x, str) else repr(float(x)) for x in row])
    return out.getvalue()


def write_table(path, header, rows) -> None:
    """Write the :func:`format_table` text of ``header`` and ``rows`` to ``path``."""
    Path(path).write_text(format_table(header, rows), encoding="utf-8", newline="")


def read_table(path, named: bool) -> tuple[list[str], np.ndarray]:
    """The header and the float matrix of the data rows of a CSV file; with
    ``named``, the first column holds names and is skipped.  Blank lines are
    skipped but counted.  A wrong field count, a non-numeric or non-finite
    value, or no data row raises ValueError naming the file and line."""
    header, rows = None, []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for fields in reader:
            # A blank line reads as no field, or as one field of whitespace.
            if len(fields) < 2 and not (fields and fields[0].strip()):
                continue
            if header is None:
                header = fields
                continue
            where = f"{path}, line {reader.line_num}"
            if len(fields) != len(header):
                raise ValueError(f"{where}: expected {len(header)} fields, got {len(fields)}")
            try:
                row = [float(x) for x in (fields[1:] if named else fields)]
            except ValueError as exc:
                raise ValueError(f"{where}: non-numeric value ({exc})") from None
            if not all(map(math.isfinite, row)):
                raise ValueError(f"{where}: non-finite value")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: needs a header and at least one data row")
    return header, np.array(rows)


def save_deck(deck: Deck, path) -> None:
    """Write a deck CSV: header ``name,cat_1,...,cat_L``, then one row per
    card, named ``card_00``, ``card_01``, ..., with full round-trip precision."""
    header = ["name", *(f"cat_{j + 1}" for j in range(deck.shape.L))]
    write_table(path, header, ([f"card_{i:02d}", *row] for i, row in enumerate(deck.values)))


def load_deck(path, shape: DeckShape | None = None, rescale: bool = False) -> Deck:
    """Read a deck CSV, optionally rescaling each category onto [lo, hi].

    With ``rescale`` the per-category minimum maps to lo and the maximum to
    hi; a constant category maps to the midpoint.  Without it, values must
    already lie inside the shape's range.  Every error names the file.
    """
    _, mat = read_table(path, named=True)
    k, n_cat = mat.shape
    if shape is None:
        try:
            shape = DeckShape(K=k, L=n_cat)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    elif shape.K != k or shape.L != n_cat:
        raise ValueError(
            f"{path}: file holds {k} cards x {n_cat} categories, expected "
            f"{shape.K} x {shape.L}"
        )
    if rescale:
        mat = rescale_values(mat, shape.lo, shape.hi)
    elif np.any(mat < shape.lo) or np.any(mat > shape.hi):
        raise ValueError(
            f"{path}: values outside [{shape.lo}, {shape.hi}]; pass rescale=True "
            "to normalize them"
        )
    return Deck(mat, shape)


def rescale_values(mat: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Affinely map each column onto [lo, hi]; constant columns go to the midpoint."""
    mat = np.asarray(mat, dtype=float)
    cmin = mat.min(axis=0)
    cmax = mat.max(axis=0)
    span = cmax - cmin
    out = np.empty_like(mat)
    mid = 0.5 * (lo + hi)
    for j in range(mat.shape[1]):
        if span[j] == 0.0:
            out[:, j] = mid
        else:
            out[:, j] = lo + (mat[:, j] - cmin[j]) * (hi - lo) / span[j]
    return out
