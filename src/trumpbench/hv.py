"""The exact hypervolume kernel: the volume of the union of the boxes
``[0, p_i]`` spanned from the origin by points with nonnegative coordinates.

This module owns only that algorithm.  The card hypervolume of a deck
(:mod:`trumpbench.objectives`) and the minimization API with its policy for
points outside the reference point (:mod:`trumpbench.indicators`) map their
inputs onto it.

The volume is a sweep: slice along the last coordinate, and add each slab's
height times the volume of the boxes reaching above it, one dimension down.
The slabs bottom out in 2-D staircases, one per slab of a 3-D prefix.  The
3-D and 4-D cases build all the staircases of a set at once, one row of a
batch each (m >= 5 recurses down to the 4-D case).  The result is bit for
bit that of the plain recursion, one 2-D sweep per slab, because the batch
keeps its summation order:

* slab terms are added left to right from 0.0 (``np.add.accumulate``), as a
  Python loop of ``+=`` adds them, never pairwise as ``np.sum`` does;
* each staircase area is one BLAS dot product of exactly its own length.
  OpenBLAS groups the terms of a dot into FMA and SIMD lanes by the length,
  so zero-padding the rows to a common length, ``(w * y).sum(1)``,
  ``einsum`` or a matrix-vector product each change the last bit of some
  areas.  The rows are therefore grouped by length, with one ``np.vecdot``
  call, that is one BLAS dot per row, for each group.
"""

from __future__ import annotations

import numpy as np

# Cells of the (staircases x points) block built at a time: working memory
# stays O(n^2) however many staircases a set has.
_BLOCK_CELLS = 1 << 16


def union_box_volume(points: np.ndarray) -> float:
    """Volume of the union of axis-aligned boxes spanned from the origin.

    ``points`` is an (n, m) array of box corners with all coordinates >= 0.
    Exact for any dimension.  m <= 2 takes O(n log n) time; m = 3 builds
    n staircases and m = 4 about n^2 / 2, each in O(n) after sorting, so
    O(n^2) and O(n^3) time; each further dimension multiplies by n.  Working
    memory is O(n^2) for every m.
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
    # times the (m-1)-dimensional volume of the boxes reaching that high,
    # that is of a prefix of the points in descending order.
    if pts.shape[1] == 3:
        return _prefix_volumes_3d(pts, np.array([len(pts) - 1]))[0]
    last = pts[:, -1]
    order = np.argsort(-last, kind="stable")
    sorted_last = last[order]
    proj = pts[order, :-1]
    heights = sorted_last - np.append(sorted_last[1:], 0.0)
    slabs = np.flatnonzero(heights != 0.0)
    if proj.shape[1] == 3:
        volumes = _prefix_volumes_3d(proj, slabs)
    else:
        volumes = np.array([_volume_sweep(proj[: i + 1]) for i in slabs])
    return _sum_in_order(heights[slabs] * volumes)


def _sum_in_order(terms: np.ndarray) -> np.ndarray:
    # Sums along the last axis, left to right from 0.0.
    padded = np.zeros(terms.shape[:-1] + (terms.shape[-1] + 1,))
    padded[..., 1:] = terms
    return np.add.accumulate(padded, axis=-1)[..., -1]


def _prefix_volumes_3d(pts: np.ndarray, prefixes: np.ndarray) -> np.ndarray:
    """The 3-D volume of ``pts[: i + 1]`` for each ``i`` in ``prefixes``,
    equal to the sweep over z of each prefix on its own."""
    zorder = np.argsort(-pts[:, 2], kind="stable")
    z = pts[zorder, 2]
    # The z slabs of each prefix, one row per prefix: each of its points in
    # z order (``top``, a z rank) with the height down to the next one.
    member = zorder <= prefixes[:, None]
    row, top = np.nonzero(member)
    length = np.cumsum(member, axis=1)[row, top]
    heights = z[top]
    heights[:-1] -= z[top[1:]]
    ends = np.cumsum(prefixes + 1) - 1
    heights[ends] = z[top[ends]]  # the lowest slab reaches down to 0
    # A slab of zero height adds nothing; the rest go by staircase length.
    kept = np.flatnonzero(heights != 0.0)
    kept = kept[np.argsort(length[kept], kind="stable")]
    areas = _staircase_areas(pts, zorder, prefixes[row[kept]], top[kept], length[kept])
    terms = np.zeros(member.shape)
    terms[row[kept], top[kept]] = heights[kept] * areas
    return _sum_in_order(terms)


def _staircase_areas(
    pts: np.ndarray, zorder: np.ndarray, prefix: np.ndarray, top: np.ndarray, length: np.ndarray
) -> np.ndarray:
    """2-D area of each slab's points, those with index <= ``prefix`` and z
    rank <= ``top``, for slabs of nondecreasing ``length`` (point count)."""
    n = len(pts)
    # Descending x; ties keep the z order, as in each slab's own sweep.
    ranks = np.argsort(-pts[zorder, 0], kind="stable")
    index = zorder[ranks]
    x, y = pts[index, 0], pts[index, 1]
    areas = np.empty(len(length))
    step = max(1, _BLOCK_CELLS // n)
    for start in range(0, len(length), step):
        block = slice(start, start + step)
        # Row r marks slab r's points; the running max of y sees only those.
        inside = (ranks <= top[block, None]) & (index <= prefix[block, None])
        run = np.maximum.accumulate(np.where(inside, y, -np.inf), axis=1)[inside]
        left = x[np.nonzero(inside)[1]]
        widths = left.copy()
        widths[:-1] -= left[1:]
        ends = np.cumsum(length[block]) - 1
        widths[ends] = left[ends]  # the last step reaches down to 0
        # One dot per staircase, of its own length: see the module docstring.
        first, cell = start, 0
        for s, c in enumerate(np.bincount(length[block]).tolist()):
            if c == 0:
                continue
            cells = slice(cell, cell + c * s)
            np.vecdot(
                widths[cells].reshape(c, s), run[cells].reshape(c, s), out=areas[first : first + c]
            )
            first += c
            cell += c * s
    return areas
