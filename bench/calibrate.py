"""Calibration kernel: fixed work that measures how fast the box runs now.

The shared box this benchmark was written on changes speed by up to 1.6x
for seconds to minutes at a time, and everything slows together:
imports, the game loop, numpy calls.  The kernel below does a fixed amount
of the same kinds of work (a pure-Python game loop and small numpy calls)
and uses none of the program's code, so its time tracks the box and not
the change under test.  run.py runs it between jobs and reports end-to-end
times at a fixed reference speed.
"""

from __future__ import annotations

import time

import numpy as np

from gate import reference_game

_RNG = np.random.default_rng(1603_03795)
_VALUES = _RNG.integers(1, 11, size=(32, 4)).astype(float)
_DEALS = [
    (perm[:16].tolist(), perm[16:].tolist(), bool(i % 2))
    for i, perm in enumerate(_RNG.permutation(32) for _ in range(25))
]
PYTHON_PASSES = 20
NUMPY_PASSES = 30


def calibration_seconds() -> float:
    """Wall time of one pass of the fixed kernel (0.10 to 0.17 s on the 2-core box)."""
    t0 = time.perf_counter()
    for _ in range(PYTHON_PASSES):
        for hand_a, hand_b, a_starts in _DEALS:
            reference_game(_VALUES, hand_a, hand_b, a_starts, (True, False), 1.0, 10.0)
    for _ in range(NUMPY_PASSES):
        for hand_a, hand_b, _ in _DEALS:
            cards_a, cards_b = _VALUES[hand_a], _VALUES[hand_b]
            for t in range(len(hand_a)):
                int(np.argmax((cards_b[t:] < cards_a[t]).sum(axis=0)))
    return time.perf_counter() - t0
