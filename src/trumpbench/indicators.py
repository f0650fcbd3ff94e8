"""Minimization fronts: the hypervolume API, unary quality indicators and
the shared normalization onto [1, 2] used before comparing optimizer output.

:func:`hypervolume` and :func:`hv_contributions` are the only hypervolume
entry points for minimization fronts.  Both run on the kernel
:func:`trumpbench.hv.union_box_volume`, and both reject a point that does
not strictly dominate the reference point instead of dropping it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np

from trumpbench.deck import read_csv_rows
from trumpbench.hv import union_box_volume

# The [1, 2] indicator frame: reference point 2 + REF_OFFSET per objective,
# ideal point IDEAL_MARGIN below the best value, R2 weights on a lattice of
# R2_SUBDIVISIONS.
REF_OFFSET = 0.1
IDEAL_MARGIN = 0.01
R2_SUBDIVISIONS = 20
# Bound on the (rows, points) comparison masks of prune_to_front.
PRUNE_BLOCK_ELEMENTS = 1 << 20


def prune_to_front(points: np.ndarray) -> np.ndarray:
    """Unique points of a set that are not weakly dominated by another point.

    Weak dominance: a <= b in every coordinate with a != b.  Exact
    duplicates are collapsed to one representative.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 0:
        return pts.copy()
    uniq = np.unique(pts, axis=0)
    n = uniq.shape[0]
    # A block of rows is compared with all n points one coordinate at a
    # time, so the (block, n) masks hold at most PRUNE_BLOCK_ELEMENTS.
    block = max(1, PRUNE_BLOCK_ELEMENTS // n)
    keep = np.empty(n, dtype=bool)
    for start in range(0, n, block):
        rows = uniq[start : start + block]
        le = np.ones((rows.shape[0], n), dtype=bool)
        lt = np.zeros_like(le)
        for col, row in zip(uniq.T, rows.T):
            le &= col <= row[:, None]
            lt |= col < row[:, None]
        # Points are unique, so <= everywhere and < somewhere is weak dominance.
        keep[start : start + block] = ~(le & lt).any(axis=1)
    return uniq[keep]


@dataclass(frozen=True, eq=False)
class FrontSet:
    """A mutually non-dominated point set tagged with its originating run."""

    points: np.ndarray
    origin: str = ""

    def __post_init__(self) -> None:
        pruned = prune_to_front(self.points)
        pruned.setflags(write=False)
        object.__setattr__(self, "points", pruned)

    @property
    def m(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrontSet):
            return NotImplemented
        return self.origin == other.origin and np.array_equal(self.points, other.points)


def _boxes(points, ref) -> np.ndarray:
    """``ref - points``; every point must strictly dominate ``ref``."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ref = np.asarray(ref, dtype=float)
    outside = int((~np.all(pts < ref, axis=1)).sum())
    if outside:
        raise ValueError(f"{outside} point(s) do not strictly dominate the reference point")
    return ref - pts


def hypervolume(points, ref) -> float:
    """Exact hypervolume of a minimization front w.r.t. ``ref``, any m."""
    return union_box_volume(_boxes(points, ref))


def hv_contributions(points, ref) -> np.ndarray:
    """Per-point hypervolume contribution of a minimization front.

    contribution[i] = HV(points) - HV(points without i).
    """
    boxes = _boxes(points, ref)
    total = union_box_volume(boxes)
    n = boxes.shape[0]
    contrib = np.empty(n)
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        mask[i] = False
        contrib[i] = total - union_box_volume(boxes[mask])
        mask[i] = True
    # Exact arithmetic would never go negative; guard against float noise.
    np.maximum(contrib, 0.0, out=contrib)
    return contrib


def hv_indicator(front: FrontSet, refset: FrontSet, ref) -> float:
    """Hypervolume missed by ``front`` relative to ``refset`` (smaller is better)."""
    return hypervolume(refset.points, ref) - hypervolume(front.points, ref)


def eps_indicator(front: FrontSet, refset: FrontSet) -> float:
    """Additive epsilon: smallest shift making ``front`` weakly dominate ``refset``."""
    a = front.points
    r = refset.points
    if a.shape[0] == 0 or r.shape[0] == 0:
        raise ValueError("epsilon indicator needs non-empty sets")
    if a.shape[1] != r.shape[1]:
        raise ValueError("sets must share the objective count")
    # For each reference point: the best achievable worst-coordinate shift.
    diffs = a[:, None, :] - r[None, :, :]
    return float(diffs.max(axis=2).min(axis=0).max())


def eps_dominance_check(front: FrontSet, refset: FrontSet) -> bool:
    """True iff every reference point is weakly dominated by some front point."""
    a = front.points
    r = refset.points
    le = np.all(a[:, None, :] <= r[None, :, :], axis=2)
    return bool(le.any(axis=0).all())


def simplex_lattice_weights(m: int, subdivisions: int = R2_SUBDIVISIONS) -> np.ndarray:
    """All nonnegative weight vectors with components k/subdivisions summing to 1."""
    if m < 1 or subdivisions < 1:
        raise ValueError("need m >= 1 and subdivisions >= 1")
    rows = []
    for combo in combinations_with_replacement(range(m), subdivisions):
        counts = np.bincount(np.array(combo), minlength=m)
        rows.append(counts / subdivisions)
    return np.unique(np.array(rows), axis=0)


def r2_indicator(front: FrontSet, weights: np.ndarray, ideal) -> float:
    """Mean over weight vectors of the best weighted Tchebycheff utility."""
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    if w.shape[0] == 0:
        raise ValueError("need at least one weight vector")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    if not np.allclose(w.sum(axis=1), 1.0):
        raise ValueError("each weight vector must sum to 1")
    a = front.points
    if a.shape[0] == 0:
        raise ValueError("front must be non-empty")
    ideal = np.asarray(ideal, dtype=float)
    dist = np.abs(a - ideal)  # (nA, m)
    # utility[w, a] = max_j w_j * |a_j - ideal_j|
    utility = (w[:, None, :] * dist[None, :, :]).max(axis=2)
    return float(utility.min(axis=1).mean())


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
    m = front.m
    lines = [",".join(f"f{j + 1}" for j in range(m))]
    for row in front.points:
        lines.append(",".join(repr(float(x)) for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_front_csv(path, origin: str | None = None) -> FrontSet:
    """Read a front file written by write_front_csv."""
    records = read_csv_rows(path)
    if len(records) < 2:
        raise ValueError(f"{path}: front file needs a header and at least one point")
    (_, header), *records = records
    rows = []
    for lineno, fields in records:
        if len(fields) != len(header):
            raise ValueError(f"{path}, line {lineno}: expected {len(header)} values")
        try:
            rows.append([float(x) for x in fields])
        except ValueError as exc:
            raise ValueError(f"{path}, line {lineno}: non-numeric value ({exc})") from None
    return FrontSet(np.array(rows), origin=origin if origin is not None else str(path))
