"""Correctness gate: reference implementations and output checks.

Every check returns a list of failure messages (empty when it passes), so
the workload can count failures without stopping.  Checks compare values,
never hashes of outputs, so a change that only redraws random numbers
still passes.
"""

from __future__ import annotations

import math

import numpy as np

HV_RTOL = 1e-9


def reference_game(values, hand_a, hand_b, a_starts: bool, informed: tuple[bool, bool], lo, hi):
    """Play one game card by card with plain Python, as the rules state them.

    Each trick the announcer picks the category with the best win estimate
    for its front card, lowest index on ties.  An informed agent estimates
    the share of the opponent's remaining cards its card beats; a range-only
    agent estimates (v - lo) / (hi - lo).  A strictly higher value wins the
    trick and the next announcement; equal values score for nobody and keep
    the announcer.  Tightness is |2 * tricks_a - tricks per game|.
    """
    rows = [[float(x) for x in row] for row in values]
    cards_a = [rows[i] for i in hand_a]
    cards_b = [rows[i] for i in hand_b]
    n_tricks = len(cards_a)
    announcer_a = a_starts
    tricks_a = tricks_b = ties = changes = 0
    for t in range(n_tricks):
        own, opp_hand, is_informed = (
            (cards_a[t], cards_b[t:], informed[0])
            if announcer_a
            else (cards_b[t], cards_a[t:], informed[1])
        )
        best_cat, best_est = 0, None
        for c in range(len(own)):
            if is_informed:
                est = sum(1 for card in opp_hand if card[c] < own[c]) / len(opp_hand)
            else:
                est = (own[c] - lo) / (hi - lo)
            if best_est is None or est > best_est:
                best_cat, best_est = c, est
        va, vb = cards_a[t][best_cat], cards_b[t][best_cat]
        if va > vb:
            tricks_a += 1
            changes += not announcer_a
            announcer_a = True
        elif vb > va:
            tricks_b += 1
            changes += announcer_a
            announcer_a = False
        else:
            ties += 1
    outcome = "win_a" if tricks_a > tricks_b else "draw" if tricks_a == tricks_b else "win_b"
    return {
        "tricks_a": tricks_a,
        "tricks_b": tricks_b,
        "ties": ties,
        "announcer_changes": changes,
        "outcome": outcome,
        "tightness": float(abs(2 * tricks_a - n_tricks)),
    }


def check_game(result, expected: dict, label: str) -> list[str]:
    """Compare a program GameResult field by field with the reference."""
    got = {
        "tricks_a": result.tricks_a,
        "tricks_b": result.tricks_b,
        "ties": result.ties,
        "announcer_changes": result.announcer_changes,
        "outcome": result.outcome.value,
        "tightness": float(result.tightness),
    }
    return [
        f"{label}: {key} is {got[key]!r}, reference gives {expected[key]!r}"
        for key in expected
        if got[key] != expected[key]
    ]


def reference_union_volume(points) -> float:
    """Volume of the union of origin-anchored boxes, by coordinate compression.

    The distinct coordinates of each axis cut space into a grid; a cell is
    covered when some point reaches its upper corner on every axis, and the
    volume is the summed size of covered cells.  Memory is the product of
    distinct coordinates per axis, fine for a 32-card deck.
    """
    pts = np.asarray(points, dtype=float)
    axes = [np.unique(pts[:, d]) for d in range(pts.shape[1])]
    covered = np.zeros(tuple(len(a) for a in axes), dtype=bool)
    for p in pts:
        upper = tuple(slice(0, int(np.searchsorted(a, x)) + 1) for a, x in zip(axes, p))
        covered[upper] = True
    volume = covered.astype(float)
    for d, a in enumerate(axes):
        widths = np.diff(a, prepend=0.0)
        volume = np.tensordot(volume, widths, axes=([0], [0]))
    return float(volume)


def check_close(value: float, expected: float, label: str, rtol: float = HV_RTOL) -> list[str]:
    if math.isfinite(value) and abs(value - expected) <= rtol * max(abs(expected), 1e-300):
        return []
    return [f"{label}: program gives {float(value)!r}, reference gives {float(expected)!r}"]


def check_rates(summary, label: str) -> list[str]:
    """Win, draw and loss rates each in [0, 1] and summing to 1."""
    rates = (summary.win_rate_a, summary.draw_rate, summary.loss_rate_a)
    failures = [f"{label}: rate {r!r} outside [0, 1]" for r in rates if not 0.0 <= r <= 1.0]
    if abs(sum(rates) - 1.0) > 1e-12:
        failures.append(f"{label}: rates {rates!r} do not sum to 1")
    return failures


def check_equal_vectors(stored, recomputed, label: str) -> list[str]:
    stored = np.asarray(stored, dtype=float)
    recomputed = np.asarray(recomputed, dtype=float)
    if stored.shape == recomputed.shape and np.allclose(stored, recomputed, rtol=1e-12, atol=0.0):
        return []
    return [f"{label}: stored {stored.tolist()} but recomputed {recomputed.tolist()}"]


def check_eaf_test(result, label: str) -> list[str]:
    failures = []
    if not 0.0 <= result.p_value <= 1.0:
        failures.append(f"{label}: p-value {result.p_value!r} outside [0, 1]")
    if result.reject != (result.p_value < result.alpha):
        failures.append(
            f"{label}: reject={result.reject} but p={result.p_value!r}, alpha={result.alpha!r}"
        )
    return failures


def check_surface(eaf_value, group, surface_points, level: float, label: str) -> list[str]:
    """Every surface point must be attained by at least ``level`` of the runs."""
    return [
        f"{label}: point {z.tolist()} attained by {v!r} < {level!r}"
        for z in surface_points
        if (v := eaf_value(group, z)) < level - 1e-12
    ]
