"""The exact hypervolume kernel: the volume of the union of the boxes
``[0, p_i]`` spanned from the origin by points with nonnegative coordinates.

This module owns only that algorithm.  The card hypervolume of a deck
(:mod:`trumpbench.objectives`) and the minimization API with its policy for
points outside the reference point (:mod:`trumpbench.indicators`) map their
inputs onto it.

One call measures any number of subsets of one point set, given as the rows
of a (subsets x points) membership mask; a single set is the one full row.
The volume is a sweep: slice along the last coordinate, and add each slab's
height times the volume of the boxes reaching above it, one dimension down.
Every subset's slabs are themselves subsets, so each dimension is one
batched call on the one below (a subset of a 4-D set has one 3-D subset per
slab, a prefix of its points in descending order of the last coordinate).
The slabs bottom out in 2-D staircases, one per subset in 2-D and one per
z slab of each subset in 3-D, all of them rows of one batch.  Each subset's
volume is bit for bit that of the plain recursion on that subset alone, one
2-D sweep per slab, because the batch keeps its summation order:

* slab terms are added left to right from 0.0 (``np.add.accumulate``), as a
  Python loop of ``+=`` adds them, never pairwise as ``np.sum`` does; a
  point outside a subset adds a term 0.0, which changes no partial sum;
* each staircase area is ``np.add.reduceat`` of its own width-times-height
  products: numpy adds a segment's first product to the pairwise sum of the
  rest, in plain C adds with no FMA and no BLAS, grouped by the segment's
  length alone.  An area is therefore the same at any offset of the flat
  array of all staircases' cells, batched or alone, and on every CPU; a
  BLAS dot would group its terms by the kernel OpenBLAS picks for the CPU.
* points tied in a coordinate keep their order in the set, so a subset's
  points meet in the same order as in the subset's own sweep.

The staircases' running maxima of y add no arithmetic either.  All cells of
a block of staircases are one flat array, and each cell's key is its
staircase's position in the block times n plus its point's rank in y.  A
staircase's keys all exceed those of the staircases before it, so one
``np.maximum.accumulate`` over the keys restarts at every staircase, and the
y read back from the winning rank is one of the inputs: a max only selects,
so each step height is the float the subset's own sweep takes.
"""

from __future__ import annotations

import numpy as np

# Cells of the (staircases x points) block built at a time, and of the
# (slabs x points) masks of a batch of subsets in 4-D and up: working memory
# stays O(n^2) however many staircases and subsets there are.
_BLOCK_CELLS = 1 << 16


def union_box_volume(points: np.ndarray, member: np.ndarray | None = None) -> float | np.ndarray:
    """Volume of the union of axis-aligned boxes spanned from the origin.

    ``points`` is an (n, m) array of box corners with all coordinates >= 0.
    Without ``member`` the result is the volume of all n boxes, a float.
    With ``member``, an (s, n) boolean mask, it is the array of the s
    volumes of the subsets ``points[member[i]]``, each bit for bit the
    volume of that subset measured on its own.

    Exact for any dimension.  For one set, m <= 2 takes O(n log n) time;
    m = 3 builds n staircases and m = 4 about n^2 / 2, each in O(n) after
    sorting, so O(n^2) and O(n^3) time; each further dimension multiplies
    by n, and s subsets take s times as long.  Working memory is
    O(n^2 + s n) for every m.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array")
    if np.any(pts < 0):
        raise ValueError("union_box_volume requires nonnegative coordinates")
    if member is None:
        return float(_volumes(pts, np.ones((1, len(pts)), dtype=bool))[0])
    member = np.asarray(member, dtype=bool)
    if member.ndim != 2 or member.shape[1] != len(pts):
        raise ValueError(f"member must be a (subsets, {len(pts)}) mask")
    return _volumes(pts, member)


def _volumes(pts: np.ndarray, member: np.ndarray) -> np.ndarray:
    n, m = pts.shape
    if n == 0:
        return np.zeros(len(member))
    if m == 1:
        return np.where(member, pts[:, 0], 0.0).max(axis=1)
    if m == 2:
        return _staircase_areas(pts, member, np.arange(len(member)), np.full(len(member), n - 1))
    step = max(1, _BLOCK_CELLS // (n * n))
    if m >= 4 and len(member) > step:
        return np.concatenate([_volumes(pts, member[i : i + step]) for i in range(0, len(member), step)])
    # Slice along the last coordinate.  Each subset has a slab below each of
    # its points in descending order (``top``, a rank in that order), down to
    # its next point or to 0; the slab's boxes are the subset's points of
    # rank <= top.
    order = np.argsort(-pts[:, -1], kind="stable")
    last = pts[order, -1]
    proj = pts[order, :-1]
    inside = member[:, order]
    row, top = np.nonzero(inside)
    heights = last[top]
    heights[:-1] -= last[top[1:]]
    counts = np.bincount(row)
    ends = np.cumsum(counts[counts > 0]) - 1
    heights[ends] = last[top[ends]]  # the lowest slab reaches down to 0
    # A slab of zero height adds nothing.
    kept = np.flatnonzero(heights != 0.0)
    row, top = row[kept], top[kept]
    if m == 3:
        volumes = _staircase_areas(proj, inside, row, top)
    else:
        volumes = _volumes(proj, inside[row] & (np.arange(n) <= top[:, None]))
    # Each subset's slab terms, summed left to right from 0.0.
    terms = np.zeros((len(inside), n + 1))
    terms[row, top + 1] = heights[kept] * volumes
    return np.add.accumulate(terms, axis=1)[:, -1]


def _staircase_areas(pts: np.ndarray, member: np.ndarray, row: np.ndarray, top: np.ndarray) -> np.ndarray:
    """2-D area of each staircase r: of the points i of (n, 2) ``pts`` with
    ``member[row[r], i]`` and ``i <= top[r]``; 0.0 for one with no point.

    Step heights come from an integer running max (see the module
    docstring): y is only ever selected, never computed, so the heights are
    bit for bit those of a float running max over each staircase alone.
    One ``np.add.reduceat`` then sums each staircase's products as its own
    segment, so an area depends only on the staircase, not on the block.
    """
    n = len(pts)
    # Descending x; ties keep the order of ``pts``, as in each set's own sweep.
    ranks = np.argsort(-pts[:, 0], kind="stable")
    x, y = pts[ranks, 0], pts[ranks, 1]
    # Ascending y; of equal values the later point ranks higher, so a running
    # max of ranks keeps the one ``np.maximum`` keeps (equal floats differ at
    # most in the sign of a zero).
    by_y = np.argsort(y, kind="stable")
    y_of_rank = y[by_y]
    rank_of_y = np.empty(n, dtype=np.intp)
    rank_of_y[by_y] = np.arange(n)
    length = np.cumsum(member, axis=1)[row, top]
    member = member[:, ranks]
    # ``np.add.reduceat`` gives an empty segment its first cell, not 0.0, so
    # staircases without a point keep their zero.
    stairs = np.flatnonzero(length)
    areas = np.zeros(len(row))
    step = max(1, _BLOCK_CELLS // n)
    for start in range(0, len(stairs), step):
        block = stairs[start : start + step]
        # Row r marks staircase r's points: flat cell r * n + i for point i.
        inside = np.take(member, row[block], axis=0)
        inside &= ranks <= top[block, None]
        size = length[block]
        base = np.repeat(np.arange(0, len(block) * n, n), size)
        col = np.flatnonzero(inside) - base
        # The key r * n + (rank of y) exceeds every key of the rows before r,
        # so one running max over the flat cells restarts at each staircase.
        run = y_of_rank[np.maximum.accumulate(base + rank_of_y[col]) - base]
        left = x[col]
        widths = left.copy()
        widths[:-1] -= left[1:]
        ends = np.cumsum(size)
        widths[ends - 1] = left[ends - 1]  # the last step reaches down to 0
        # Each staircase's area sums its own cells: see the module docstring.
        widths *= run
        areas[block] = np.add.reduceat(widths, ends - size)
    return areas
