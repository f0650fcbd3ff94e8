"""Quality indicators, normalization and front-file round trips."""

import numpy as np
import pytest

from trumpbench.indicators import (
    FrontSet,
    eps_dominance_check,
    eps_indicator,
    hv_indicator,
    hypervolume,
    normalize_sets,
    prune_to_front,
    r2_indicator,
    read_front_csv,
    simplex_lattice_weights,
    write_front_csv,
)

from tests.test_hv import mc_union_volume


class TestPruning:
    def test_weakly_dominated_points_removed(self):
        pts = np.array([[1.0, 2.0], [1.0, 3.0], [2.0, 1.0], [1.5, 2.5]])
        front = prune_to_front(pts)
        assert sorted(map(tuple, front)) == [(1.0, 2.0), (2.0, 1.0)]

    def test_duplicates_collapse(self):
        pts = np.array([[1.0, 2.0], [1.0, 2.0], [2.0, 1.0]])
        assert prune_to_front(pts).shape == (2, 2)

    def test_front_set_prunes_on_construction(self):
        fs = FrontSet(np.array([[1.0, 1.0], [2.0, 2.0]]), "run")
        assert len(fs) == 1


class TestHypervolume:
    def test_hand_values(self):
        assert hypervolume(np.array([[2.0, 2.0]]), np.array([4.0, 4.0])) == 4.0
        front = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
        assert hypervolume(front, np.array([4.0, 4.0])) == 6.0
        assert hypervolume(np.array([[1.0, 1.0, 1.0]]), np.array([2.0, 2.0, 2.0])) == 1.0
        assert hypervolume(np.zeros((1, 4)), np.ones(4)) == 1.0

    def test_adding_nondominated_point_increases(self):
        rng = np.random.default_rng(13)
        ref = np.array([1.0, 1.0, 1.0])
        for _ in range(20):
            pts = prune_to_front(rng.uniform(0, 1, size=(6, 3)))
            base = hypervolume(pts, ref)
            extra = rng.uniform(0, 1, size=3)
            dominated = np.any(np.all(pts <= extra, axis=1) & np.any(pts < extra, axis=1))
            grown = hypervolume(np.vstack([pts, extra]), ref)
            if dominated:
                assert grown == pytest.approx(base)
            else:
                assert grown > base

    @pytest.mark.parametrize("dim", [3, 4])
    def test_matches_monte_carlo(self, dim):
        rng = np.random.default_rng(29)
        ref = np.full(dim, 5.0)
        for _ in range(5):
            pts = rng.uniform(0.0, 4.5, size=(8, dim))
            exact = hypervolume(pts, ref)
            approx = mc_union_volume(ref - pts, rng, samples=300_000)
            assert exact == pytest.approx(approx, rel=0.01)


class TestHvIndicator:
    def test_zero_against_self(self):
        ref = np.array([4.0, 4.0])
        fs = FrontSet(np.array([[1.0, 3.0], [3.0, 1.0]]), "a")
        assert hv_indicator(fs, fs, ref) == 0.0

    def test_missing_point_costs_its_contribution(self):
        ref = np.array([4.0, 4.0])
        full = FrontSet(np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]]), "ref")
        partial = FrontSet(np.array([[1.0, 3.0], [3.0, 1.0]]), "a")
        assert hv_indicator(partial, full, ref) == pytest.approx(1.0)


class TestEpsIndicator:
    def test_identical_sets(self):
        fs = FrontSet(np.array([[1.0, 2.0], [2.0, 1.0]]), "a")
        assert eps_indicator(fs, fs) == 0.0

    def test_uniform_shift(self):
        base = np.array([[1.0, 2.0], [2.0, 1.0]])
        shifted = FrontSet(base + 0.5, "a")
        assert eps_indicator(shifted, FrontSet(base, "r")) == pytest.approx(0.5)

    def test_negative_when_strictly_better(self):
        a = FrontSet(np.array([[0.0, 0.0]]), "a")
        r = FrontSet(np.array([[1.0, 1.0]]), "r")
        assert eps_indicator(a, r) == pytest.approx(-1.0)

    def test_nonpositive_implies_weak_dominance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = FrontSet(rng.uniform(0, 1, size=(5, 2)), "a")
            r = FrontSet(rng.uniform(0, 1, size=(4, 2)), "r")
            if eps_indicator(a, r) <= 0:
                assert eps_dominance_check(a, r)


class TestR2Indicator:
    def test_ideal_front_scores_zero(self):
        fs = FrontSet(np.array([[0.0, 0.0]]), "a")
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert r2_indicator(fs, w, np.zeros(2)) == 0.0

    def test_two_weight_hand_value(self):
        fs = FrontSet(np.array([[1.0, 2.0]]), "a")
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert r2_indicator(fs, w, np.zeros(2)) == pytest.approx(1.5)

    def test_adding_points_never_hurts(self):
        rng = np.random.default_rng(7)
        w = simplex_lattice_weights(2, 10)
        for _ in range(20):
            pts = rng.uniform(1, 2, size=(5, 2))
            base = r2_indicator(FrontSet(pts, "a"), w, np.zeros(2))
            more = r2_indicator(FrontSet(np.vstack([pts, rng.uniform(1, 2, 2)]), "a"), w, np.zeros(2))
            assert more <= base + 1e-12

    def test_invariant_under_permutations(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(1, 2, size=(6, 3))
        w = simplex_lattice_weights(3, 6)
        base = r2_indicator(FrontSet(pts, "a"), w, np.zeros(3))
        shuffled = r2_indicator(FrontSet(pts[::-1], "a"), w[::-1], np.zeros(3))
        assert shuffled == pytest.approx(base, rel=1e-12)


class TestWeights:
    def test_lattice_sizes(self):
        assert simplex_lattice_weights(2, 20).shape == (21, 2)
        assert simplex_lattice_weights(3, 20).shape == (231, 3)

    def test_rows_sum_to_one(self):
        w = simplex_lattice_weights(3, 12)
        assert np.allclose(w.sum(axis=1), 1.0)
        assert np.all(w >= 0)


class TestNormalization:
    def test_midpoint_maps_to_midpoint(self):
        sets = [FrontSet(np.array([[5.0, 1.0], [9.0, 0.0]]), "a")]
        normalized, transform = normalize_sets(sets)
        assert transform.apply(np.array([[7.0, 0.5]]))[0, 0] == pytest.approx(1.5)

    def test_extremes_hit_one_and_two(self):
        sets = [
            FrontSet(np.array([[5.0, 2.0]]), "a"),
            FrontSet(np.array([[9.0, 1.0]]), "b"),
        ]
        normalized, _ = normalize_sets(sets)
        stacked = np.vstack([s.points for s in normalized])
        assert stacked.min(axis=0) == pytest.approx([1.0, 1.0])
        assert stacked.max(axis=0) == pytest.approx([2.0, 2.0])

    def test_constant_dimension_maps_to_one(self):
        sets = [FrontSet(np.array([[3.0, 1.0], [3.0, 2.0]]), "a")]
        normalized, _ = normalize_sets(sets)
        assert np.all(normalized[0].points[:, 0] == 1.0)

    def test_dominance_preserved(self):
        rng = np.random.default_rng(17)
        pts = rng.uniform(0, 10, size=(10, 3))
        sets = [FrontSet(pts[:5], "a"), FrontSet(pts[5:], "b")]
        _, transform = normalize_sets(sets)
        mapped = transform.apply(pts)
        for i in range(10):
            for j in range(10):
                assert np.all(pts[i] < pts[j]) == np.all(mapped[i] < mapped[j])

    def test_indicators_invariant_under_affine_rescale(self):
        rng = np.random.default_rng(23)
        raw_a = rng.uniform(0, 1, size=(6, 2))
        raw_r = rng.uniform(0, 1, size=(6, 2))
        scale = np.array([3.0, 0.25])
        shift = np.array([-7.0, 40.0])

        def pipeline(a_pts, r_pts):
            (a, r), _ = normalize_sets([FrontSet(a_pts, "a"), FrontSet(r_pts, "r")])
            ref = np.full(2, 2.1)
            w = simplex_lattice_weights(2, 20)
            ideal = r.points.min(axis=0) - 0.01
            return (
                hv_indicator(a, r, ref),
                eps_indicator(a, r),
                r2_indicator(a, w, ideal),
            )

        base = pipeline(raw_a, raw_r)
        scaled = pipeline(raw_a * scale + shift, raw_r * scale + shift)
        assert scaled == pytest.approx(base, abs=1e-12)


class TestFrontFiles:
    def test_round_trip(self, tmp_path):
        fs = FrontSet(np.array([[1.25, 2.5], [2.0, 1.0]]), "run-3")
        path = tmp_path / "front.csv"
        write_front_csv(fs, path)
        back = read_front_csv(path, origin="run-3")
        assert back == fs

    def test_header_present(self, tmp_path):
        fs = FrontSet(np.array([[1.0, 2.0, 3.0]]), "x")
        path = tmp_path / "front.csv"
        write_front_csv(fs, path)
        assert path.read_text().splitlines()[0] == "f1,f2,f3"

    def test_quoted_fields(self, tmp_path):
        path = tmp_path / "front.csv"
        path.write_text('"f1","f2"\n"1.25",2.5\n2.0,"1.0"\n')
        back = read_front_csv(path, origin="run-3")
        assert back == FrontSet(np.array([[1.25, 2.5], [2.0, 1.0]]), "run-3")

    def test_bad_row_raises(self, tmp_path):
        path = tmp_path / "front.csv"
        path.write_text("f1,f2\n1.0\n")
        with pytest.raises(ValueError, match="line 2"):
            read_front_csv(path)
