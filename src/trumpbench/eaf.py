"""Empirical attainment functions over groups of optimizer runs.

The attainment function of a run group maps a goal point to the fraction
of runs whose front reaches it (some front point weakly dominates it).
Because these functions are piecewise constant with breakpoints only at
observed coordinates, surfaces and the two-group test statistic are exact
when evaluated on the grid of componentwise coordinate combinations.

That grid is never built whole. Along the last objective a run's
attainment of a cell of the other m-1 objectives only grows, so it is
fixed by one number: the first layer (index of a distinct last
coordinate) at which the run reaches the cell. ``_first_layers`` holds
these numbers for every run and cell in the smallest unsigned dtype,
built with one ``np.minimum.at`` of each point's layer into its cell and
a running minimum along each of the m-1 grid axes, by log-step doubling.
``MAX_FIELD_BYTES`` bounds it before anything is allocated. A surface
cell is eligible from the layer where enough runs reach it, and the
patterns of a cell are the sets of runs that reach it by each run's
first layer there. The surface's first eligible points that no step
down one grid axis beats are its minimal points, unique and already in
the order ``np.unique(axis=0)`` gives, so its ``FrontSet`` is not pruned
again.

The two-group permutation test needs only the distinct attainment
patterns of the grid cells, one 0/1 row over the runs each. A permuted
statistic depends only on which runs a permutation puts in the first
group. The permutations are drawn in blocks of at most ``BLOCK_ELEMENTS``
entries, and each distinct split of the runs in a block is scored once:
2,000 permutations of 6 + 6 runs are one block, which holds about 820 of
the 924 possible splits. Each block of at most ``BLOCK_ELEMENTS``
(patterns, splits) entries is one float32 product of the patterns and
the splits' 0/1 membership columns. Its entries and partial sums count
at most ``runs`` ones, and float32 holds every integer below 2^24
exactly, so up to ``MAX_RUNS`` runs they are the exact integers an
integer product gives, and BLAS computes them. They become float64
before any subtraction or division.

A split scores the largest |ca/nₐ − (t − ca)/n_b| over the patterns,
where t is a pattern's total of runs and ca how many of them the first
group holds. The pattern rows are sorted by their total, and for each
total only the smallest and the largest ca of its rows are scored, one
minimum and one maximum over its segment of rows. That is exact,
not a bound: for a fixed t the score is V-shaped in ca, so an inner ca
scores strictly less than one of the two extremes. The exact scores are
multiples of 1/(nₐ·n_b), so distinct ones lie at least that far apart,
far beyond the rounding of a float64 score, and the rounded inner score
stays below the rounded extreme. The extremes are computed with the same
operations as every row's score would be, so the maximum is the same
float.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from trumpbench.indicators import FrontSet, sorted_rows

# Refuse an input whose first-layer field (runs x cells x itemsize) exceeds this.
MAX_FIELD_BYTES = 2**27
# Refuse a permutation test whose null distribution (one float64 per
# permutation) exceeds 128 MiB.
MAX_PERMUTATIONS = 2**24
# Refuse a permutation test of 2^24 runs or more: its float32 counts are
# exact integers below 2^24.
MAX_RUNS = 2**24 - 1
# Entries of one (permutations, runs) or (patterns, splits) block of the
# permutation test, and of one (cells, runs, runs) block of its patterns.
BLOCK_ELEMENTS = 2**18


@dataclass(frozen=True)
class RunGroup:
    """The fronts of repeated optimizer runs under one label."""

    fronts: tuple[FrontSet, ...]
    label: str

    def __post_init__(self) -> None:
        if len(self.fronts) < 1:
            raise ValueError("a run group needs at least one run")
        first = self.fronts[0]
        odd = [f for f in self.fronts if f.m != first.m]
        if odd:
            raise ValueError(
                f"fronts disagree on objective count: {first.origin} has {first.m}, "
                f"{odd[0].origin} has {odd[0].m}"
            )

    @property
    def m(self) -> int:
        return self.fronts[0].m

    def __len__(self) -> int:
        return len(self.fronts)


@dataclass(frozen=True)
class EAFTestResult:
    """Two-group attainment comparison via random label permutations."""

    statistic: float
    critical_value: float
    p_value: float
    permutations: int
    alpha: float
    reject: bool
    seed: int | None = None


def eaf_value(group: RunGroup, z) -> float:
    """Fraction of the group's runs whose front weakly dominates ``z``."""
    z = np.asarray(z, dtype=float)
    if z.shape != (group.m,):
        raise ValueError(f"goal point must have {group.m} coordinates")
    attained = sum(bool(np.all(f.points <= z, axis=1).any()) for f in group.fronts)
    return attained / len(group)


def _axes(point_sets: list[np.ndarray]) -> list[np.ndarray]:
    stacked = np.vstack(point_sets)
    return [np.unique(stacked[:, d]) for d in range(stacked.shape[1])]


def _first_layers(point_sets: list[np.ndarray], axes: list[np.ndarray]) -> np.ndarray:
    """First attaining layer of each run at each cell of the first m-1 axes.

    Returns a (runs, len(axes[0]), ..., len(axes[m-2])) array in the
    smallest unsigned dtype: entry [r, c] is the lowest k such that run r
    has a point <= cell c in the first m-1 coordinates and <= axes[-1][k]
    in the last, or len(axes[-1]) when run r attains c at no layer.
    """
    never = len(axes[-1])
    dtype = np.min_scalar_type(never)
    shape = (len(point_sets),) + tuple(len(a) for a in axes[:-1])
    nbytes = dtype.itemsize * math.prod(shape)
    if nbytes > MAX_FIELD_BYTES:
        raise ValueError(
            f"attainment needs a first-layer field of {nbytes} bytes, more than the "
            f"{MAX_FIELD_BYTES} supported; reduce the runs or distinct coordinates"
        )
    points = np.vstack(point_sets)
    runs = np.repeat(np.arange(len(point_sets)), [len(p) for p in point_sets])
    cells = [np.searchsorted(a, points[:, d]) for d, a in enumerate(axes)]
    field = np.full(shape, never, dtype=dtype)
    np.minimum.at(field, (runs, *cells[:-1]), cells[-1].astype(dtype))
    # A run reaches a cell at the lowest layer of its points in the cell's
    # lower quadrant: a running minimum along each grid axis, by log-step
    # doubling. After the shift s, each cell holds the minimum of the 2s
    # cells up to it along the axis. Each shift is one np.minimum of the
    # flat field and the flat field moved by s cells of the axis, into a
    # scratch field; the first s cells along the axis, which that pairs
    # across a row, are copied over, and then the two fields swap. One
    # contiguous np.minimum runs a SIMD loop, where np.minimum.accumulate
    # runs a scalar loop on these dtypes.
    scratch = np.empty_like(field)
    for axis in range(1, field.ndim):
        lead = (slice(None),) * axis
        stride = math.prod(field.shape[axis + 1 :])
        shift = 1
        while shift < field.shape[axis]:
            flat, out = field.reshape(-1), scratch.reshape(-1)
            np.minimum(flat[shift * stride :], flat[: -shift * stride], out=out[shift * stride :])
            head = lead + (slice(shift),)
            scratch[head] = field[head]
            field, scratch = scratch, field
            shift *= 2
    return field


def _distinct_rows(codes: np.ndarray) -> np.ndarray:
    """Distinct rows of a 2-D code array in lexicographic order, first
    column first, as ``np.unique(codes, axis=0)`` gives them."""
    order, fresh = sorted_rows(codes)
    return codes[order[fresh]]


def attainment_surface(group: RunGroup, level: float) -> FrontSet:
    """Minimal goal points attained by at least ``level`` of the runs, and
    by one run at least.

    Evaluated on the grid of componentwise combinations of coordinates
    occurring in the group; the result is a mutually non-dominated set.
    """
    if not 0.0 < level <= 1.0:
        raise ValueError("level must lie in (0, 1]")
    fronts = [f.points for f in group.fronts]
    axes = _axes(fronts)
    field = _first_layers(fronts, axes)
    # A cell counts from the layer where the rank-th of its runs reaches it;
    # a level below 1/n still needs one run.
    rank = max(1, math.ceil(level * len(group) - 1e-9))
    layer = np.partition(field, rank - 1, axis=0)[rank - 1, ...]
    # The eligible region is upward closed, so a cell's first eligible point
    # is minimal exactly when no single-coordinate step down the grid axes
    # is eligible at its layer or below. The points are then mutually
    # non-dominated, one per cell, and np.argwhere lists the cells in the
    # order np.unique(axis=0) sorts their points, so they are not pruned
    # again: pruning takes time quadratic in their count.
    minimal = layer < len(axes[-1])
    for d in range(layer.ndim):
        lead = (slice(None),) * d
        minimal[lead + (slice(1, None),)] &= layer[lead + (slice(1, None),)] < layer[lead + (slice(None, -1),)]
    index = np.argwhere(minimal).T
    points = np.column_stack([a[i] for a, i in zip(axes, index)] + [axes[-1][layer[minimal]]])
    return FrontSet._of_front(points, origin=f"{group.label}_{level:g}")


def _pattern_matrix(groups: list[RunGroup]) -> np.ndarray:
    """Distinct per-cell attainment patterns across all runs, (patterns, runs).

    Collapsing identical grid cells keeps the permutation test exact while
    shrinking it to at most 2^runs patterns. Run s's first layer at a cell
    gives the pattern of the runs whose first layer there is no later; the
    layers below every run's first layer give the empty pattern.
    """
    fronts = [f.points for g in groups for f in g.fronts]
    axes = _axes(fronts)
    field = _first_layers(fronts, axes)
    # A cell with the first layers of its predecessor along a grid axis
    # adds no pattern.
    fresh = np.ones(field.shape[1:], dtype=bool)
    for d in range(1, field.ndim):
        lead = (slice(None),) * d
        fresh[lead[1:] + (slice(1, None),)] &= (
            field[lead + (slice(1, None),)] != field[lead + (slice(None, -1),)]
        ).any(axis=0)
    runs = len(fronts)
    columns = np.ascontiguousarray(field.reshape(runs, -1)[:, fresh.reshape(-1)].T)
    # Codes hold 8 runs a byte, run r at bit r % 8 of byte r // 8.
    width = -(-runs // 8)
    codes = []
    if (columns.min(axis=1) > 0).any():
        codes.append(np.zeros((1, width), dtype=np.uint8))
    step = max(1, BLOCK_ELEMENTS // (runs * 8 * width))
    for block in (columns[i : i + step] for i in range(0, len(columns), step)):
        # [c, s, r]: run r reaches cell c by run s's first layer there. The
        # rows are padded to whole bytes, because np.packbits packs one flat
        # array about 50x faster than it packs short rows.
        attained = np.zeros((len(block), runs, 8 * width), dtype=bool)
        np.less_equal(block[:, None, :], block[:, :, None], out=attained[:, :, :runs])
        packed = np.packbits(attained, bitorder="little").reshape(len(block), runs, width)
        codes.append(_distinct_rows(packed[block < len(axes[-1])]))
    distinct = _distinct_rows(np.vstack(codes))
    return np.unpackbits(distinct, axis=1, count=runs, bitorder="little").astype(bool)


def _drawn_splits(
    rng: np.random.Generator, rows: int, n_a: int, n_total: int
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct splits of ``rows`` random run orders, as a 0/1
    (splits, runs) mask of the first ``n_a`` runs of an order, and for each
    order the index of its split.

    Each order is the one ``rng.permutation(n_total)`` would draw, and the
    generator ends in the same state: the orders are shuffled row by row
    in place, in one call.
    """
    orders = np.tile(np.arange(n_total), (rows, 1))
    rng.permuted(orders, axis=1, out=orders)
    drawn = np.zeros(orders.shape, dtype=bool)
    np.put_along_axis(drawn, orders[:, :n_a], True, axis=1)
    # The first run is the highest bit of the first byte, so the packed
    # rows sort as the membership rows do.
    packed = np.packbits(drawn, axis=1)
    order, fresh = sorted_rows(packed)
    inverse = np.empty(rows, dtype=np.intp)
    inverse[order] = np.cumsum(fresh) - 1
    return np.unpackbits(packed[order[fresh]], axis=1, count=n_total), inverse


def _by_total(patterns: np.ndarray) -> tuple[np.ndarray, list[slice]]:
    """The 0/1 pattern rows as float32, sorted by their total, and the
    segment of rows of each total, as :func:`_statistics` takes them."""
    totals = patterns.sum(axis=1)
    order = np.argsort(totals, kind="stable")
    bounds = np.flatnonzero(np.diff(totals[order], prepend=-1, append=-1)).tolist()
    return patterns[order].astype(np.float32), [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def _statistics(patterns: np.ndarray, segments: list[slice], splits: np.ndarray, n_a: int) -> np.ndarray:
    """Largest attainment difference of each row of ``splits``, a 0/1
    (splits, runs) mask of the ``n_a`` runs that form the first group.

    ``patterns`` is the 0/1 pattern matrix as float32, its rows sorted by
    their total, and ``segments`` the rows of each total. One float32
    product gives the first group's counts. Each count is a sum of at most
    ``runs`` ones, below 2^24, so it is the exact integer. The counts and
    totals become float64 before any subtraction, and each mean is a count
    divided by its group size, as ``np.mean`` of the boolean pattern rows
    computes it. Only the smallest and largest count of each total are
    scored, which gives the same maximum (see the module docstring).
    """
    n_b = patterns.shape[1] - n_a
    counts = patterns @ splits.T.astype(np.float32)
    # One reduction per segment of contiguous rows: np.minimum.reduceat
    # along axis 0 took 7x as long on (463, 829) counts.
    counts_a = np.vstack(
        [counts[s].min(axis=0) for s in segments] + [counts[s].max(axis=0) for s in segments], dtype=float
    )
    totals = patterns.sum(axis=1, dtype=float)[[s.start for s in segments] * 2, None]
    counts_b = totals - counts_a
    counts_a /= n_a
    counts_b /= n_b
    counts_a -= counts_b
    return np.abs(counts_a, out=counts_a).max(axis=0)


def check_permutations(permutations: int) -> None:
    """Raise ValueError unless 1 <= permutations <= ``MAX_PERMUTATIONS``."""
    if permutations < 1:
        raise ValueError("need at least one permutation")
    if permutations > MAX_PERMUTATIONS:
        raise ValueError(
            f"{permutations} permutations are more than the {MAX_PERMUTATIONS} supported"
        )


def eaf_test(
    group_a: RunGroup,
    group_b: RunGroup,
    permutations: int = 10_000,
    alpha: float = 0.05,
    seed: int | None = None,
) -> EAFTestResult:
    """Compare two attainment functions with a KS-style permutation test.

    The statistic is the largest absolute attainment difference over the
    joint evaluation grid; its null distribution comes from random
    reassignments of run labels with group sizes preserved. Each distinct
    split of the runs in a block of drawn permutations is scored once, by
    float32 products that are exact up to ``MAX_RUNS`` runs (see the module
    docstring), so every result equals that of scoring each permutation
    with an integer product.
    """
    if len(group_a) < 2 or len(group_b) < 2:
        raise ValueError("both groups need at least two runs")
    if group_a.m != group_b.m:
        raise ValueError(
            f"groups must share the objective count: {group_a.fronts[0].origin} has "
            f"{group_a.m}, {group_b.fronts[0].origin} has {group_b.m}"
        )
    check_permutations(permutations)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    n_a = len(group_a)
    n_total = n_a + len(group_b)
    if n_total > MAX_RUNS:
        raise ValueError(f"{n_total} runs are more than the {MAX_RUNS} supported")
    rng = np.random.default_rng(seed)

    patterns, segments = _by_total(_pattern_matrix([group_a, group_b]))
    observed = float(_statistics(patterns, segments, (np.arange(n_total) < n_a)[None, :], n_a)[0])
    null_stats = np.empty(permutations)
    rows = max(1, BLOCK_ELEMENTS // n_total)
    columns = max(1, BLOCK_ELEMENTS // len(patterns))
    for start in range(0, permutations, rows):
        splits, inverse = _drawn_splits(rng, min(rows, permutations - start), n_a, n_total)
        scores = [
            _statistics(patterns, segments, splits[i : i + columns], n_a) for i in range(0, len(splits), columns)
        ]
        null_stats[start : start + len(inverse)] = np.concatenate(scores)[inverse]
    # Free the last block: for many permutations null_stats is the peak.
    del splits, inverse, scores

    p_value = float(np.mean(null_stats >= observed - 1e-12))
    critical_value = _critical_value(null_stats, alpha)
    reject = p_value < alpha
    if reject != (observed > critical_value + 1e-12):
        raise AssertionError("inconsistent permutation-test decision rule")
    return EAFTestResult(
        statistic=observed,
        critical_value=critical_value,
        p_value=p_value,
        permutations=permutations,
        alpha=alpha,
        reject=reject,
        seed=seed,
    )


def _critical_value(null_stats: np.ndarray, alpha: float) -> float:
    """Smallest observed null value whose strict upper tail is below alpha.

    Sorts ``null_stats`` in place. The tail only shrinks along the sorted
    null values, so a binary search finds the first such value, each tail
    counted by ``np.searchsorted``; no array of the distribution's size is
    made.
    """
    null_stats.sort()
    ordered = null_stats
    n = ordered.size
    first = bisect.bisect_left(
        range(n), True, key=lambda i: n - np.searchsorted(ordered, ordered[i] + 1e-12, side="right") < alpha * n
    )
    return float(ordered[min(first, n - 1)])

