"""The exact hypervolume kernel: the volume of the union of the boxes
``[0, p_i]`` spanned from the origin by points with nonnegative coordinates.

This module owns only that algorithm.  The card hypervolume of a deck
(:mod:`trumpbench.objectives`) and the minimization API with its policy for
points outside the reference point (:mod:`trumpbench.indicators`) map their
inputs onto it.
"""

from __future__ import annotations

import numpy as np


def union_box_volume(points: np.ndarray) -> float:
    """Volume of the union of axis-aligned boxes spanned from the origin.

    ``points`` is an (n, m) array of box corners with all coordinates >= 0.
    Exact for any dimension via a recursive sweep over the last coordinate;
    cost grows as O(n^(m-1) log n), intended for m <= 4 at the sizes used
    here.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array")
    n, m = pts.shape
    if n == 0:
        return 0.0
    if np.any(pts < 0):
        raise ValueError("union_box_volume requires nonnegative coordinates")
    if m == 1:
        return float(pts[:, 0].max())
    if m == 2:
        return _volume_2d(pts)
    return float(_volume_sweep(pts))


def _volume_2d(pts: np.ndarray) -> float:
    # Staircase sweep: sort by x descending, accumulate the running max y.
    order = np.argsort(-pts[:, 0], kind="stable")
    x = pts[order, 0]
    y = np.maximum.accumulate(pts[order, 1])
    widths = x - np.append(x[1:], 0.0)
    return float(widths @ y)


def _volume_sweep(pts: np.ndarray) -> float:
    # Slice along the last coordinate; each slab contributes its height
    # times the (m-1)-dimensional volume of the boxes reaching that high.
    last = pts[:, -1]
    order = np.argsort(-last, kind="stable")
    sorted_last = last[order]
    proj = pts[order, :-1]
    heights = sorted_last - np.append(sorted_last[1:], 0.0)
    vol = 0.0
    for i in range(len(order)):
        h = heights[i]
        if h == 0.0:
            continue
        prefix = proj[: i + 1]
        if prefix.shape[1] == 2:
            vol += h * _volume_2d(prefix)
        else:
            vol += h * _volume_sweep(prefix)
    return vol

