"""Minimization fronts: the hypervolume API, unary quality indicators and
the shared normalization onto [1, 2] used before comparing optimizer output.

:func:`hypervolume` and :func:`hv_contributions` measure minimization
fronts of any dimension on the kernel :func:`trumpbench.hv.union_box_volume`,
and both reject a point that does not strictly dominate the reference point
instead of dropping it.  SMS-EMOA's 2-D selection scores its front by exact
exclusive rectangles of its own (:mod:`trumpbench.moea`), under the same check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from trumpbench.deck import read_table, write_table
from trumpbench.hv import union_box_volume

# The [1, 2] indicator frame: reference point 2 + REF_OFFSET per objective,
# ideal point IDEAL_MARGIN below the best value, R2 weights on a lattice of
# R2_SUBDIVISIONS.
REF_OFFSET = 0.1
IDEAL_MARGIN = 0.01
R2_SUBDIVISIONS = 20
# Bound on the (rows, points) comparison masks of prune_to_front.
PRUNE_BLOCK_ELEMENTS = 1 << 20


@dataclass(frozen=True, eq=False)
class FrontStack:
    """Fronts stacked row-wise in one array: front i is
    ``points[starts[i]:starts[i + 1]]``, the last one running to the end.

    :func:`prune_to_front` builds one.  :func:`hypervolume`,
    :func:`eps_indicator` and :func:`r2_indicator` share one signature:
    their ``front`` is a FrontStack, measured in one batch with an array of
    one value per front, or one front, a :class:`FrontSet` or a point
    array, measured as a stack of one with a float.
    """

    points: np.ndarray
    starts: np.ndarray

    def _ends(self) -> np.ndarray:
        return np.append(self.starts[1:], len(self.points))

    def __getitem__(self, i: int) -> FrontStack:
        """Front ``i`` as a stack of one."""
        return FrontStack(self.points[self.starts[i] : self._ends()[i]], np.zeros(1, dtype=int))

    def member(self) -> np.ndarray:
        """The (fronts, points) mask of each front's rows."""
        rows = np.arange(len(self.points))
        return (rows >= self.starts[:, None]) & (rows < self._ends()[:, None])


def sorted_rows(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The order that sorts the rows of a 2-D array lexicographically,
    first column first, and which ordered rows differ from the row before:
    ``codes[order[fresh]]`` is ``np.unique(codes, axis=0)``, by one lexsort
    and a neighbour compare."""
    order = np.lexsort(codes.T[::-1])
    ordered = codes[order]
    # Neighbours compared one column at a time: a short-axis any() over
    # an (n, width) mask reduces its rows one by one.
    fresh = np.zeros(len(ordered), dtype=bool)
    fresh[:1] = True
    for column in ordered.T:
        fresh[1:] |= column[1:] != column[:-1]
    return order, fresh


def prune_to_front(points: np.ndarray, labels: np.ndarray | None = None) -> FrontStack:
    """The front of each labelled set of points: its unique points that no
    other point with the same label weakly dominates.

    Weak dominance: a <= b in every coordinate with a != b.  Exact
    duplicates are collapsed to one representative.  ``labels`` gives each
    point's set as an integer; without it all points form one set.  The
    fronts come in increasing label order, each sorted row by row, first
    coordinate first, as ``np.unique(axis=0)`` sorts.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    if n == 0:
        return FrontStack(pts.copy(), np.zeros(1, dtype=int))
    labels = np.zeros(n, dtype=int) if labels is None else np.asarray(labels)
    order, fresh = sorted_rows(np.column_stack([labels, pts]))
    uniq, labels = pts[order[fresh]], labels[order[fresh]]
    n = uniq.shape[0]
    # A block of rows is compared with all n points one coordinate at a
    # time, so the (block, n) masks hold at most PRUNE_BLOCK_ELEMENTS.
    block = max(1, PRUNE_BLOCK_ELEMENTS // n)
    keep = np.empty(n, dtype=bool)
    for start in range(0, n, block):
        rows = uniq[start : start + block]
        le = labels == labels[start : start + block, None]
        lt = np.zeros_like(le)
        for col, row in zip(uniq.T, rows.T):
            le &= col <= row[:, None]
            lt |= col < row[:, None]
        # Points of a set are unique, so <= everywhere and < somewhere is weak dominance.
        keep[start : start + block] = ~(le & lt).any(axis=1)
    labels = labels[keep]
    return FrontStack(uniq[keep], np.flatnonzero(np.append(True, labels[1:] != labels[:-1])))


@dataclass(frozen=True, eq=False)
class FrontSet:
    """A mutually non-dominated point set tagged with its originating run.

    Its points are read-only, so :meth:`volume` measures its hypervolume
    once per reference point and returns the stored value after that: a
    reference front that every front of an analysis is compared with is
    measured once, not once per front.
    """

    points: np.ndarray
    origin: str = ""
    _volumes: dict[bytes, float] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        pruned = prune_to_front(self.points).points
        pruned.setflags(write=False)
        object.__setattr__(self, "points", pruned)

    @classmethod
    def _of_front(cls, points: np.ndarray, origin: str = "") -> FrontSet:
        """A FrontSet of float points that are already what :func:`prune_to_front`
        returns: unique, mutually non-dominated and sorted as
        ``np.unique(axis=0)`` sorts. They are not pruned again, and the set
        takes ``points`` over, read-only."""
        front = cls.__new__(cls)
        points.setflags(write=False)
        object.__setattr__(front, "points", points)
        object.__setattr__(front, "origin", origin)
        object.__setattr__(front, "_volumes", {})
        return front

    @property
    def m(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def volume(self, ref) -> float:
        """Hypervolume w.r.t. ``ref``, measured at the first call for ``ref``."""
        key = np.asarray(ref, dtype=float).tobytes()
        if key not in self._volumes:
            self._volumes[key] = hypervolume(self, ref)
        return self._volumes[key]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrontSet):
            return NotImplemented
        return self.origin == other.origin and np.array_equal(self.points, other.points)


def _stack(fronts) -> FrontStack:
    """A FrontStack as it is; one front, a FrontSet or a point array, as a stack of one."""
    if isinstance(fronts, FrontStack):
        return fronts
    points = fronts.points if isinstance(fronts, FrontSet) else fronts
    return FrontStack(np.atleast_2d(np.asarray(points, dtype=float)), np.zeros(1, dtype=int))


def _per_front(values: np.ndarray, fronts):
    """One value per front of a FrontStack; a float for a single front."""
    return values if isinstance(fronts, FrontStack) else float(values[0])


def _boxes(points, ref) -> np.ndarray:
    """``ref - points``; every point must strictly dominate ``ref``."""
    ref = np.asarray(ref, dtype=float)
    outside = int((~np.all(points < ref, axis=1)).sum())
    if outside:
        raise ValueError(f"{outside} point(s) do not strictly dominate the reference point")
    return ref - points


def hypervolume(front, ref) -> float | np.ndarray:
    """Exact hypervolume of a minimization front w.r.t. ``ref``, any m.

    ``front`` is one front or a FrontStack (see :class:`FrontStack`).
    """
    stack = _stack(front)
    return _per_front(union_box_volume(_boxes(stack.points, ref), stack.member()), front)


def hv_contributions(points, ref) -> np.ndarray:
    """Per-point hypervolume contribution of a minimization front.

    contribution[i] = HV(points) - HV(points without i), with the total and
    the n leave-one-out volumes measured in one batch.  The subtraction's
    error is absolute, about one ulp of HV(points), so a contribution smaller
    than that reads 0.0, and two near-twins can tie at 0.0 although one
    weakly dominates the other.  SMS-EMOA's 2-D selection therefore takes
    exact rectangles instead (:func:`trumpbench.moea._exclusive_areas_2d`),
    whose error is relative to each contribution.
    """
    boxes = _boxes(np.atleast_2d(np.asarray(points, dtype=float)), ref)
    n = boxes.shape[0]
    volumes = union_box_volume(boxes, np.vstack([np.ones(n, dtype=bool), ~np.eye(n, dtype=bool)]))
    contrib = volumes[0] - volumes[1:]
    # Exact arithmetic would never go negative; guard against float noise.
    np.maximum(contrib, 0.0, out=contrib)
    return contrib


def hv_indicator(front: FrontSet, refset: FrontSet, ref) -> float:
    """Hypervolume missed by ``front`` relative to ``refset`` (smaller is better)."""
    return refset.volume(ref) - hypervolume(front, ref)


def eps_indicator(front, refset) -> float | np.ndarray:
    """Additive epsilon: smallest shift making ``front`` weakly dominate ``refset``.

    ``front`` is one front or a FrontStack (see :class:`FrontStack`), and
    ``refset`` is one front.
    """
    stack = _stack(front)
    a = stack.points
    r = _stack(refset).points
    if a.shape[0] == 0 or r.shape[0] == 0:
        raise ValueError("epsilon indicator needs non-empty sets")
    if a.shape[1] != r.shape[1]:
        raise ValueError("sets must share the objective count")
    # worst[a, r] = max_j a_j - r_j, the shift point a needs to cover r:
    # a running maximum over the objective columns, in the order a
    # reduction along a length-m axis takes them.
    worst = np.subtract.outer(a[:, 0], r[:, 0])
    for j in range(1, a.shape[1]):
        np.maximum(worst, np.subtract.outer(a[:, j], r[:, j]), out=worst)
    # For each reference point: the best achievable worst-coordinate shift.
    return _per_front(np.minimum.reduceat(worst, stack.starts, axis=0).max(axis=1), front)


@functools.cache
def simplex_lattice_weights(m: int, subdivisions: int = R2_SUBDIVISIONS) -> np.ndarray:
    """All nonnegative weight vectors with components k/subdivisions summing
    to 1, in lexicographic order.

    Built once per (m, subdivisions) and returned read-only: every R2 of an
    analysis or an OCD run shares one lattice.
    """
    if m < 1 or subdivisions < 1:
        raise ValueError("need m >= 1 and subdivisions >= 1")
    # Stars and bars: each choice of m - 1 bar positions among
    # subdivisions + m - 1 slots splits the units into m counts, and
    # ``combinations`` lists the choices in the lexicographic order of the counts.
    slots = subdivisions + m - 1
    choices = list(combinations(range(slots), m - 1))
    bars = np.array(choices, dtype=int).reshape(len(choices), m - 1)
    edges = np.hstack([np.full((len(bars), 1), -1), bars, np.full((len(bars), 1), slots)])
    weights = (np.diff(edges, axis=1) - 1) / subdivisions
    weights.setflags(write=False)
    return weights


def r2_indicator(front, weights: np.ndarray, ideal) -> float | np.ndarray:
    """Mean over weight vectors of the best weighted Tchebycheff utility.

    ``front`` is one front or a FrontStack (see :class:`FrontStack`).
    """
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    if w.shape[0] == 0:
        raise ValueError("need at least one weight vector")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    # np.allclose's tolerance in one comparison, which NaN and inf fail.
    if not np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-8 + 1e-5):
        raise ValueError("each weight vector must sum to 1")
    stack = _stack(front)
    a = stack.points
    if a.shape[0] == 0:
        raise ValueError("front must be non-empty")
    if a.shape[1] != w.shape[1]:
        raise ValueError("weight vectors must have one component per objective")
    ideal = np.asarray(ideal, dtype=float)
    dist = np.abs(a - ideal)  # (nA, m)
    # utility[a, w] = max_j w_j * |a_j - ideal_j|: a running maximum over
    # the objective columns, in the order a length-m reduction takes them.
    utility = np.multiply.outer(dist[:, 0], w[:, 0])
    for j in range(1, w.shape[1]):
        np.maximum(utility, np.multiply.outer(dist[:, j], w[:, j]), out=utility)
    # Each front's best utilities form one C-contiguous row, so its mean is
    # the pairwise sum of that row alone: the same bits as a single front's.
    best = np.minimum.reduceat(utility, stack.starts, axis=0)
    return _per_front(best.mean(axis=1), front)


def indicator_block(front: FrontSet, refset: FrontSet) -> dict[str, float]:
    """hv, eps and r2 of ``front`` in the [1, 2] frame against ``refset``."""
    ref_point = np.full(refset.m, 2.0 + REF_OFFSET)
    weights = simplex_lattice_weights(refset.m)
    ideal = refset.points.min(axis=0) - IDEAL_MARGIN
    return {
        "hv": hv_indicator(front, refset, ref_point),
        "eps": eps_indicator(front, refset),
        "r2": r2_indicator(front, weights, ideal),
    }


@dataclass(frozen=True)
class NormalizeTransform:
    """Per-objective affine map sending observed min to 1 and max to 2."""

    lo: np.ndarray
    span: np.ndarray

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.ones_like(pts)
        nz = self.span > 0
        out[:, nz] = 1.0 + (pts[:, nz] - self.lo[nz]) / self.span[nz]
        return out


def fit_normalize_transform(points: np.ndarray) -> NormalizeTransform:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lo = pts.min(axis=0)
    span = pts.max(axis=0) - lo
    return NormalizeTransform(lo=lo, span=span)


def write_front_csv(front: FrontSet, path) -> None:
    """Write one point per row under a ``f1,...,fm`` header."""
    write_table(path, [f"f{j + 1}" for j in range(front.m)], front.points)


def read_front_csv(path, origin: str | None = None) -> FrontSet:
    """Read a front file written by write_front_csv."""
    _, points = read_table(path, named=False)
    return FrontSet(points, origin=origin if origin is not None else str(path))
