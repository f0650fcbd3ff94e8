"""Empirical attainment functions over groups of optimizer runs.

The attainment function of a run group maps a goal point to the fraction
of runs whose front reaches it (some front point weakly dominates it).
Because these functions are piecewise constant with breakpoints only at
observed coordinates, surfaces and the two-group test statistic are exact
when evaluated on the grid of componentwise coordinate combinations.

That grid is never built whole. One sweep visits the distinct values of
the last objective in increasing order and keeps a single slab over the
other m-1 objectives: each slab cell holds the set of runs that attain
it, as bits in ceil(runs/64) uint64 words. When the sweep reaches a
point's last coordinate, the point sets its run's bit in its upper
quadrant of the slab, so after each value the slab is one layer of the
grid. Memory is that of one slab (and its predecessor), whatever the run
count; ``MAX_SLAB_BYTES`` bounds it before anything is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from trumpbench.indicators import FrontSet

# Refuse a sweep whose slab (cells x code words x 8 bytes) exceeds this.
MAX_SLAB_BYTES = 2**27
# Entries of one (patterns, permutations) block of the permutation test.
BLOCK_ELEMENTS = 2**18


@dataclass(frozen=True)
class RunGroup:
    """The fronts of repeated optimizer runs under one label."""

    fronts: tuple[FrontSet, ...]
    label: str

    def __post_init__(self) -> None:
        if len(self.fronts) < 1:
            raise ValueError("a run group needs at least one run")
        dims = {f.m for f in self.fronts}
        if len(dims) != 1:
            raise ValueError(f"fronts disagree on objective count: {sorted(dims)}")

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


def _slabs(point_sets: list[np.ndarray], axes: list[np.ndarray]):
    """Run codes of each grid layer, one per distinct last coordinate, in order.

    Each yielded slab has shape (len(axes[0]), ..., len(axes[m-2]), words):
    bit r of a cell's code is set when run r has a point <= the cell in
    the first m-1 coordinates and <= the layer's value in the last. The
    same array is updated in place between yields.
    """
    words = -(-len(point_sets) // 64)
    shape = tuple(len(a) for a in axes[:-1]) + (words,)
    nbytes = 8 * int(np.prod(shape))
    if nbytes > MAX_SLAB_BYTES:
        raise ValueError(
            f"attainment sweep needs a slab of {nbytes} bytes, more than the "
            f"{MAX_SLAB_BYTES} supported; reduce the runs or distinct coordinates"
        )
    points = np.vstack(point_sets)
    runs = np.repeat(np.arange(len(point_sets)), [len(p) for p in point_sets])
    cells = np.column_stack([np.searchsorted(a, points[:, d]) for d, a in enumerate(axes)])
    slab = np.zeros(shape, dtype=np.uint64)
    for k in range(len(axes[-1])):
        for i in np.flatnonzero(cells[:, -1] == k):
            quadrant = tuple(slice(j, None) for j in cells[i, :-1])
            slab[quadrant + (runs[i] // 64,)] |= np.uint64(1) << np.uint64(runs[i] % 64)
        yield slab


def _distinct_rows(codes: np.ndarray) -> np.ndarray:
    """Distinct rows of a 2-D code array, by a lexsort and a neighbour compare."""
    ordered = codes[np.lexsort(codes.T)]
    fresh = np.ones(len(ordered), dtype=bool)
    fresh[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return ordered[fresh]


def attainment_surface(group: RunGroup, level: float) -> FrontSet:
    """Minimal goal points attained by at least ``level`` of the runs.

    Evaluated on the grid of componentwise combinations of coordinates
    occurring in the group; the result is a mutually non-dominated set.
    """
    if not 0.0 < level <= 1.0:
        raise ValueError("level must lie in (0, 1]")
    fronts = [f.points for f in group.fronts]
    axes = _axes(fronts)
    needed = level * len(group) - 1e-9
    found = []
    before = np.False_  # no cell is eligible below the first layer
    for k, slab in enumerate(_slabs(fronts, axes)):
        eligible = np.bitwise_count(slab).sum(axis=-1) >= needed
        # The eligible region is upward closed, so a cell is minimal exactly
        # when no single-coordinate step down, the last one included, stays
        # eligible.
        minimal = eligible & ~before
        for d in range(eligible.ndim):
            lead = (slice(None),) * d
            minimal[lead + (slice(1, None),)] &= ~eligible[lead + (slice(None, -1),)]
        idx = np.argwhere(minimal)
        last = np.full(len(idx), axes[-1][k])
        found.append(np.column_stack([a[i] for a, i in zip(axes, idx.T)] + [last]))
        before = eligible
    return FrontSet(np.vstack(found), origin=f"{group.label}_{level:g}")


def _pattern_matrix(groups: list[RunGroup]) -> np.ndarray:
    """Distinct per-cell attainment patterns across all runs, (patterns, runs).

    Collapsing identical grid cells keeps the permutation test exact while
    shrinking it to at most 2^runs patterns. A cell's code only changes
    when a point reaches it, so after the first layer only the codes of
    changed cells can be new.
    """
    fronts = [f.points for g in groups for f in g.fronts]
    codes = []
    before = None
    for slab in _slabs(fronts, _axes(fronts)):
        cells = slab.reshape(-1, slab.shape[-1])
        changed = cells if before is None else cells[(cells != before).any(axis=1)]
        codes.append(_distinct_rows(changed))
        before = cells.copy()
    distinct = _distinct_rows(np.vstack(codes))
    runs = np.arange(len(fronts))
    bits = distinct[:, runs // 64] >> (runs % 64).astype(np.uint64)
    return (bits & np.uint64(1)).astype(bool)


def _statistics(patterns: np.ndarray, orders: np.ndarray, n_a: int) -> np.ndarray:
    """Largest attainment difference of each row of ``orders``, whose first
    ``n_a`` runs form the first group.

    The counts are exact integers, and each mean is a count divided by its
    group size, as ``np.mean`` of the boolean pattern rows computes it.
    """
    n_b = patterns.shape[1] - n_a
    members = np.zeros((patterns.shape[1], len(orders)), dtype=patterns.dtype)
    members[orders[:, :n_a], np.arange(len(orders))[:, None]] = 1
    counts_a = patterns @ members
    counts_b = patterns.sum(axis=1, keepdims=True) - counts_a
    return np.abs(counts_a / n_a - counts_b / n_b).max(axis=0)


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
    reassignments of run labels with group sizes preserved. The
    permutations are scored in blocks of one matrix product each.
    """
    if len(group_a) < 2 or len(group_b) < 2:
        raise ValueError("both groups need at least two runs")
    if group_a.m != group_b.m:
        raise ValueError("groups must share the objective count")
    if permutations < 1:
        raise ValueError("need at least one permutation")
    rng = np.random.default_rng(seed)

    patterns = _pattern_matrix([group_a, group_b]).astype(np.int64)
    n_a = len(group_a)
    n_total = n_a + len(group_b)
    observed = float(_statistics(patterns, np.arange(n_total)[None, :], n_a)[0])
    null_stats = np.empty(permutations)
    block = max(1, BLOCK_ELEMENTS // len(patterns))
    for start in range(0, permutations, block):
        orders = np.array([rng.permutation(n_total) for _ in range(min(block, permutations - start))])
        null_stats[start : start + len(orders)] = _statistics(patterns, orders, n_a)

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
    """Smallest observed null value whose strict upper tail is below alpha."""
    n = null_stats.size
    for c in np.unique(null_stats):
        if np.sum(null_stats > c + 1e-12) < alpha * n:
            return float(c)
    return float(null_stats.max())


def set_strictly_dominates(first, second) -> bool:
    """True iff every point of ``second`` is strictly dominated by some point of ``first``."""
    a = np.atleast_2d(np.asarray(first.points if isinstance(first, FrontSet) else first, float))
    b = np.atleast_2d(np.asarray(second.points if isinstance(second, FrontSet) else second, float))
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("set dominance needs non-empty sets")
    strictly = np.all(a[:, None, :] < b[None, :, :], axis=2)
    return bool(strictly.any(axis=0).all())
