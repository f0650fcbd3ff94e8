"""The three deck fitness functions, all minimization-oriented.

* dominance fitness: single objective counting how far cards are from
  being mutually non-dominated (optimum -(K-1) when no card is dominated);
* balance objectives: three simulation-based measures (negated informed
  win rate, negated mean announcer changes, mean tightness), derived from
  the integer sums of a :class:`~trumpbench.game.SimulationSummary`;
* surrogate objectives: two simulation-free measures (negated dominated
  hypervolume of the card set, negated spread of the category means).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from trumpbench.deck import DeckShape, card_matrix, dominance_matrix
from trumpbench.game import SimulationSummary
from trumpbench.hv import union_box_volume


class ObjectiveKind(enum.Enum):
    """Which fitness function drives an optimization run."""

    DOMINANCE = "D"
    BALANCE = "B"
    SURROGATE = "S"

    @property
    def n_objectives(self) -> int:
        return {"D": 1, "B": 3, "S": 2}[self.value]


@dataclass(frozen=True)
class ObjectiveVector:
    """An m-dimensional fitness value."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError("objective values must form a 1-D vector")
        # One pass of math.isfinite over the Python floats costs less than
        # numpy's isfinite and all on a vector of one to three values.
        if not all(map(math.isfinite, v.tolist())):
            raise ValueError("objective values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def dominance_fitness(deck) -> ObjectiveVector:
    """Average count, per card, of other cards that fail to dominate it, negated.

    Equals -(K-1) exactly when no card in the deck is dominated by another.
    """
    dom = dominance_matrix(deck)
    k = dom.shape[0]
    # Summed over cards j, the number of other cards NOT dominating card j.
    non_dominating = k * (k - 1) - np.count_nonzero(dom)
    value = -float(non_dominating) / k
    return ObjectiveVector(np.array([value]))


def balance_objectives(summary: SimulationSummary) -> ObjectiveVector:
    """Simulation-based deck quality: (-win rate, -mean announcer changes, mean tightness).

    Each value is one of the summary's sums over its games.  The summary
    must come from an (informed, range-only) pairing so the win rate refers
    to the knowledgeable agent.  This is the one place a B vector is made.
    """
    values = np.array(
        [
            -summary.win_rate_a,
            -summary.mean_announcer_changes,
            summary.mean_tightness,
        ]
    )
    return ObjectiveVector(values)


def deck_hypervolume(deck) -> float:
    """Volume jointly covered by the boxes from the origin to the deck's cards.

    Every card must lie strictly above the origin in every category.
    """
    vals = card_matrix(deck)
    if not np.all(vals > 0):
        raise ValueError("every card must lie strictly above the origin")
    return union_box_volume(vals)


def surrogate_objectives(deck, shape: DeckShape) -> ObjectiveVector:
    """Simulation-free deck quality: (-card hypervolume, -sd of category means).

    The spread term is the sample standard deviation (divisor L-1) of the
    per-category mean values.
    """
    hv = deck_hypervolume(deck)
    means = card_matrix(deck).mean(axis=0)
    sd = float(np.std(means, ddof=1)) if means.size > 1 else 0.0
    return ObjectiveVector(np.array([-hv, -sd]))
