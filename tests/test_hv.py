"""Exact hypervolume kernel and the minimization API on it, against hand
values, Monte Carlo box unions, the plain recursive sweep, each subset
measured on its own and the leave-one-out loop."""

import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trumpbench import hv
from trumpbench.deck import DeckShape, random_valid_deck
from trumpbench.hv import union_box_volume
from trumpbench.indicators import hv_contributions, hypervolume


def oracle_volume(points) -> float:
    """The sweep with one 2-D staircase per slab, for m >= 3: slice along
    the last coordinate, recurse on the prefix above each slab of nonzero
    height, and add the slab terms one by one.  ``union_box_volume`` must
    equal it bit for bit, because SMS-EMOA ties and the pinned reports
    depend on the last bits of the S objective."""
    return float(_oracle_sweep(np.asarray(points, dtype=float)))


def _oracle_2d(pts: np.ndarray) -> float:
    """Area of one 2-D staircase: ``np.add.reduceat`` of its width-times-
    height products as a single segment, the sum the kernel takes of every
    staircase wherever it sits in a batch."""
    order = np.argsort(-pts[:, 0], kind="stable")
    x = pts[order, 0]
    y = np.maximum.accumulate(pts[order, 1])
    widths = x - np.append(x[1:], 0.0)
    return float(np.add.reduceat(widths * y, [0])[0])


def _oracle_sweep(pts: np.ndarray) -> float:
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
            vol += h * _oracle_2d(prefix)
        else:
            vol += h * _oracle_sweep(prefix)
    return vol


def oracle_any(points) -> float:
    """``oracle_volume`` for any m >= 2, and 0.0 for no point."""
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        return 0.0
    return _oracle_2d(pts) if pts.shape[1] == 2 else oracle_volume(pts)


def contributions_loop(points, ref) -> np.ndarray:
    """The leave-one-out loop that the batched contributions replaced: the
    total and each point's removal, one volume each."""
    boxes = np.asarray(ref, dtype=float) - np.asarray(points, dtype=float)
    total = union_box_volume(boxes)
    n = boxes.shape[0]
    contrib = np.empty(n)
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        mask[i] = False
        contrib[i] = total - union_box_volume(boxes[mask])
        mask[i] = True
    np.maximum(contrib, 0.0, out=contrib)
    return contrib


def mc_union_volume(points: np.ndarray, rng: np.random.Generator, samples: int = 1_000_000) -> float:
    """Monte Carlo oracle: fraction of the bounding box covered by the union."""
    points = np.asarray(points, dtype=float)
    upper = points.max(axis=0)
    draws = rng.uniform(0.0, upper, size=(samples, points.shape[1]))
    covered = np.zeros(samples, dtype=bool)
    for p in points:
        covered |= np.all(draws <= p, axis=1)
    return covered.mean() * float(np.prod(upper))


def test_single_box():
    assert union_box_volume(np.array([[10.0, 10.0]])) == 100.0


def test_two_overlapping_boxes():
    assert union_box_volume(np.array([[10.0, 1.0], [1.0, 10.0]])) == 19.0


def test_contained_box_adds_nothing():
    assert union_box_volume(np.array([[10.0, 10.0], [2.0, 2.0]])) == 100.0


def test_three_dim_hand_value():
    # 2x2x2 and 1x1x3 boxes overlap in a 1x1x2 block: 8 + 3 - 2 = 9.
    pts = np.array([[2.0, 2.0, 2.0], [1.0, 1.0, 3.0]])
    assert union_box_volume(pts) == pytest.approx(9.0)


def test_permutation_invariant():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.5, 4.0, size=(8, 3))
    base = union_box_volume(pts)
    for _ in range(5):
        assert union_box_volume(rng.permutation(pts)) == pytest.approx(base, rel=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_matches_monte_carlo(dim):
    rng = np.random.default_rng(100 + dim)
    for _ in range(3):
        pts = rng.uniform(0.5, 5.0, size=(10, dim))
        exact = union_box_volume(pts)
        approx = mc_union_volume(pts, rng, samples=400_000)
        assert exact == pytest.approx(approx, rel=0.01)


def test_min_orientation_hand_values():
    assert hypervolume(np.array([[2.0, 2.0]]), np.array([4.0, 4.0])) == 4.0
    front = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
    assert hypervolume(front, np.array([4.0, 4.0])) == 6.0
    assert hypervolume(np.array([[1.0, 1.0, 1.0]]), np.array([2.0, 2.0, 2.0])) == 1.0


def test_contributions_hand_values():
    front = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
    contrib = hv_contributions(front, np.array([4.0, 4.0]))
    assert contrib == pytest.approx([1.0, 1.0, 1.0])


def test_contribution_of_singleton_is_full_volume():
    contrib = hv_contributions(np.array([[1.0, 2.0]]), np.array([3.0, 4.0]))
    assert contrib == pytest.approx([4.0])


def test_duplicate_points_contribute_zero():
    front = np.array([[1.0, 3.0], [1.0, 3.0], [3.0, 1.0]])
    contrib = hv_contributions(front, np.array([4.0, 4.0]))
    assert contrib[0] == 0.0
    assert contrib[1] == 0.0


@pytest.mark.parametrize("measure", [hypervolume, hv_contributions], ids=lambda f: f.__name__)
def test_contributions_reject_point_outside_ref(measure):
    front = np.array([[1.0, 1.0], [5.0, 1.0], [4.0, 0.0]])
    with pytest.raises(ValueError, match="2 point"):
        measure(front, np.array([4.0, 4.0]))


@st.composite
def lattice_sets(draw):
    """1-40 points in 3-5 dimensions on the lattice {0, 1, 2, 3} times a
    per-coordinate step, with repeated rows: ties, zero coordinates and
    zero-height slabs are common, and the steps make the areas round."""
    m = draw(st.sampled_from([3, 4, 5]))
    n = draw(st.integers(1, 40))
    rows = draw(st.lists(st.tuples(*[st.integers(0, 3)] * m), min_size=1, max_size=n))
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=n, max_size=n))
    steps = draw(st.tuples(*[st.sampled_from([1.0, 0.1, 2.0 / 3.0, 1.7])] * m))
    return np.array([rows[i] for i in picks], dtype=float) * np.array(steps)


@st.composite
def subset_batches(draw):
    """(points, member): 1-12 lattice points in 2-4 dimensions, as in
    ``lattice_sets``, and 1-6 subsets of them, each empty, a singleton, the
    whole set or any mix."""
    m = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(1, 12))
    rows = draw(st.lists(st.tuples(*[st.integers(0, 3)] * m), min_size=1, max_size=n))
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=n, max_size=n))
    steps = draw(st.tuples(*[st.sampled_from([1.0, 0.1, 2.0 / 3.0, 1.7])] * m))
    pts = np.array([rows[i] for i in picks], dtype=float) * np.array(steps)
    subset = st.one_of(
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.integers(0, n - 1).map(lambda i: [j == i for j in range(n)]),
        st.just([True] * n),
    )
    member = np.array(draw(st.lists(subset, min_size=1, max_size=6)), dtype=bool)
    return pts, member


class TestSubsetVolumes:
    @settings(max_examples=200, deadline=None)
    @given(subset_batches())
    def test_each_subset_as_measured_alone(self, case):
        pts, member = case
        volumes = union_box_volume(pts, member)
        assert volumes.tolist() == [union_box_volume(pts[row]) for row in member]
        assert volumes.tolist() == [oracle_any(pts[row]) for row in member]

    def test_batches_of_subsets_in_four_dimensions(self, monkeypatch):
        # More subsets than one block holds are measured a block at a time.
        monkeypatch.setattr(hv, "_BLOCK_CELLS", 200)
        rng = np.random.default_rng(12)
        pts = rng.integers(0, 3, size=(9, 4)).astype(float)
        member = rng.random((7, 9)) < 0.6
        volumes = union_box_volume(pts, member)
        assert volumes.tolist() == [oracle_any(pts[row]) for row in member]

    @pytest.mark.parametrize("cells", [1, 30], ids=["one-staircase-per-block", "split-length-groups"])
    def test_staircase_blocks(self, monkeypatch, cells):
        # The running max's keys restart in every block of staircases: with
        # one cell per block each staircase is a block of its own, and with
        # 30 cells a block holds 3 of the 10-point staircases, so each group
        # of 4 equal lengths (4 copies of one subset) spans two blocks.
        monkeypatch.setattr(hv, "_BLOCK_CELLS", cells)
        rng = np.random.default_rng(7)
        for _ in range(5):
            pts = rng.integers(0, 4, size=(10, 3)) * np.array([1.0, 0.1, 1.7])
            pts[rng.random(pts.shape) < 0.2] = 0.0
            assert len(np.unique(pts[:, 1])) < len(pts)  # tied y values
            member = np.vstack([np.ones((4, 10), dtype=bool), rng.random((3, 10)) < 0.7])
            volumes = union_box_volume(pts, member)
            assert volumes.tolist() == [oracle_any(pts[row]) for row in member]
            assert union_box_volume(pts) == oracle_volume(pts)

    def test_rejects_mask_of_wrong_width(self):
        with pytest.raises(ValueError, match="member must be a"):
            union_box_volume(np.ones((3, 2)), np.ones((2, 4), dtype=bool))


class TestContributionsMatchLoop:
    @settings(max_examples=150, deadline=None)
    @given(subset_batches())
    def test_lattice_fronts(self, case):
        pts, _ = case
        ref = pts.max(axis=0) + 1.0
        assert hv_contributions(pts, ref).tolist() == contributions_loop(pts, ref).tolist()

    def test_random_fronts(self):
        rng = np.random.default_rng(31)
        for m in (2, 3, 4):
            for n in (1, 2, 5, 11, 20):
                pts = rng.uniform(0.0, 1.0, size=(n, m))
                ref = np.full(m, 1.1)
                assert hv_contributions(pts, ref).tolist() == contributions_loop(pts, ref).tolist()


class TestMatchesRecursiveSweep:
    @settings(max_examples=300, deadline=None)
    @given(lattice_sets())
    def test_lattice_sets(self, pts):
        assert union_box_volume(pts) == oracle_volume(pts)

    @pytest.mark.parametrize("categories", [2, 3, 4])
    def test_random_valid_decks(self, categories):
        # A single set, and the same set as two subsets of one batch.
        shape = DeckShape(L=categories)
        rng = np.random.default_rng(20 + categories)
        for _ in range(20):
            values = random_valid_deck(shape, rng).values
            assert union_box_volume(values) == oracle_any(values)
            both = np.ones((2, len(values)), dtype=bool)
            assert union_box_volume(values, both).tolist() == [oracle_any(values)] * 2

    def test_five_dimensions(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 7, 12):
            pts = rng.uniform(0.0, 3.0, size=(n, 5))
            assert union_box_volume(pts) == oracle_volume(pts)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 8193])
def test_pairwise_sum_boundaries(n):
    # numpy's pairwise sum changes its grouping at 8 and 128 terms: one
    # staircase of n points, alone and as the middle row of a batch.
    rng = np.random.default_rng(n)
    pts = rng.uniform(0.1, 1.0, size=(n, 2))
    pts[:, 1] = np.sort(pts[:, 1])[np.argsort(np.argsort(-pts[:, 0]))]  # every point a step
    expected = oracle_any(pts)
    assert union_box_volume(pts) == expected
    member = np.vstack([rng.random(n) < 0.5, np.ones(n, dtype=bool), rng.random(n) < 0.3])
    assert union_box_volume(pts, member)[1] == expected


def kernel_probe() -> bytes:
    """Raw float64 bytes of the volumes of 50 seeded random 32x4 decks and of
    the contributions of a seeded 2-D and 3-D front."""
    rng = np.random.default_rng(2016)
    parts = [np.array([union_box_volume(random_valid_deck(DeckShape(), rng).values) for _ in range(50)])]
    for m, n in ((2, 200), (3, 60)):
        front = rng.uniform(0.1, 1.0, size=(n, m))
        front /= np.linalg.norm(front, axis=1, keepdims=True)
        parts.append(hv_contributions(front, np.full(m, 1.1)))
    return np.concatenate(parts).tobytes()


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="OpenBLAS x86-64 kernels")
@pytest.mark.parametrize("coretype", ["Prescott", "Haswell"])
def test_volumes_do_not_depend_on_the_blas_kernel(coretype):
    # OpenBLAS reads OPENBLAS_CORETYPE when numpy loads, so each kernel
    # needs a fresh interpreter.
    src = Path(hv.__file__).resolve().parents[1]
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); from test_hv import kernel_probe; "
        "sys.stdout.write(kernel_probe().hex())"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(Path(__file__).parent)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert bytes.fromhex(out) == kernel_probe()


def test_working_set_stays_quadratic():
    # 256 points in 4-D: an (n, n, n) float tensor alone would take 134 MB.
    pts = np.random.default_rng(3).uniform(size=(256, 4))
    tracemalloc.start()
    try:
        union_box_volume(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
