"""Experiment pipeline: orchestration, report structure, determinism."""

import json

import numpy as np
import pytest

from trumpbench.deck import DeckShape
from trumpbench.experiments import (
    Approach,
    ExperimentConfig,
    balance_metric_study,
    compare_to_reference_decks,
    derive_seed,
    make_evaluator,
    run_experiment,
)
from trumpbench.indicators import read_front_csv
from trumpbench.moea import VariationParams
from trumpbench.objectives import ObjectiveKind
from trumpbench.ocd import OCDParams
from trumpbench.synth import deck_with_dominating_pairs, nondominated_deck


def mini_config(**kw):
    defaults = dict(
        approaches=(
            Approach(ObjectiveKind.SURROGATE, 5),
            Approach(ObjectiveKind.DOMINANCE, 5),
        ),
        runs=2,
        games=50,
        shape=DeckShape(K=8, L=2),
        master_seed=1234,
        max_evals=300,
        ocd=OCDParams(window=5),
        permutations=200,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestConfig:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            mini_config(
                approaches=(
                    Approach(ObjectiveKind.SURROGATE, 5),
                    Approach(ObjectiveKind.SURROGATE, 5),
                )
            )

    @pytest.mark.parametrize(
        "setting",
        [
            {"games": 0},
            {"surface_level": 0.0},
            {"surface_level": 1.5},
            {"permutations": 0},
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"workers": 0},
        ],
    )
    def test_invalid_setting_rejected_by_the_config(self, setting):
        # Caught when the config is built, so no optimizer run is wasted.
        with pytest.raises(ValueError):
            mini_config(**setting)

    def test_boundary_settings_accepted(self):
        config = mini_config(games=1, surface_level=1.0, permutations=1, alpha=0.5, workers=1)
        assert config.surface_level == 1.0

    def test_hash_of_default_config_is_stable(self):
        assert ExperimentConfig().config_hash() == "4bf71bb1b5760e97"

    def test_hash_ignores_output_dir(self):
        a = mini_config(output_dir=None)
        b = mini_config(output_dir="/somewhere/else")
        assert a.config_hash() == b.config_hash()

    def test_hash_ignores_workers_but_not_settings(self):
        base = mini_config()
        assert mini_config(workers=2).config_hash() == base.config_hash()
        assert mini_config(max_evals=301).config_hash() != base.config_hash()
        assert mini_config(ocd=OCDParams(window=6)).config_hash() != base.config_hash()

    def test_run_config_carries_experiment_settings(self):
        config = mini_config()
        approach = config.approaches[0]
        run = config.run_config(approach, 1)
        assert (run.objective, run.mu) == (approach.kind, approach.mu)
        assert run.seed == derive_seed(config.master_seed, approach.label, 1)
        assert (run.shape, run.ocd, run.max_evals, run.games) == (
            config.shape, config.ocd, config.max_evals, config.games
        )

    def test_seed_derivation_is_stable(self):
        assert derive_seed(1, "S10", 0) == derive_seed(1, "S10", 0)
        assert derive_seed(1, "S10", 0) != derive_seed(1, "S10", 1)
        assert derive_seed(1, "S10", 0) != derive_seed(2, "S10", 0)


class TestEvaluators:
    def test_dominance_evaluator(self):
        shape = DeckShape()
        deck = nondominated_deck(shape, np.random.default_rng(0))
        ev = make_evaluator(ObjectiveKind.DOMINANCE, shape, 10)
        assert ev(deck, np.random.default_rng(0))[0] == pytest.approx(-31.0)

    def test_balance_evaluator_uses_rng(self):
        shape = DeckShape()
        deck = nondominated_deck(shape, np.random.default_rng(0))
        ev = make_evaluator(ObjectiveKind.BALANCE, shape, 40)
        a = ev(deck, np.random.default_rng(5))
        b = ev(deck, np.random.default_rng(5))
        c = ev(deck, np.random.default_rng(6))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestRunExperiment:
    def test_report_structure(self, tmp_path):
        config = mini_config(output_dir=str(tmp_path / "out"))
        report = run_experiment(config)

        for label in ("S5", "D5"):
            slot = report.approaches[label]
            assert slot.complete
            assert len(slot.run_artifacts) == 2
            assert slot.union_points.shape[1] == 3
            assert slot.front_normalized is not None
            assert slot.surface_normalized is not None
            assert set(slot.indicators_front) == {"hv", "eps", "r2"}
            assert slot.rank_front >= 1
        # D contributes exactly one deck per run.
        assert len(report.approaches["D5"].union_points) == 2
        assert "D5_vs_S5" in report.eaf_tests

        out = tmp_path / "out"
        assert (out / "report.json").is_file()
        assert (out / "indicators.csv").is_file()
        assert (out / "runs" / "S5" / "run_000.json").is_file()
        front = read_front_csv(out / "fronts" / "S5_front.csv")
        assert front.m == 3

    def test_front_is_nondominated_subset_of_union(self, tmp_path):
        config = mini_config()
        report = run_experiment(config)
        slot = report.approaches["S5"]
        union_norm = report.transform.apply(slot.union_points)
        front = slot.front_normalized.points
        for p in front:
            assert any(np.allclose(p, q) for q in union_norm)
            dominated = np.any(
                np.all(union_norm <= p, axis=1) & np.any(union_norm < p, axis=1)
            )
            assert not dominated

    def test_deterministic_report_json(self, tmp_path):
        config_a = mini_config(output_dir=str(tmp_path / "a"))
        config_b = mini_config(output_dir=str(tmp_path / "b"))
        run_experiment(config_a)
        run_experiment(config_b)
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()

    def test_worker_pool_report_matches_serial(self, tmp_path):
        run_experiment(mini_config(output_dir=str(tmp_path / "serial")))
        run_experiment(mini_config(output_dir=str(tmp_path / "pool"), workers=2))
        assert (tmp_path / "serial" / "report.json").read_bytes() == (
            tmp_path / "pool" / "report.json"
        ).read_bytes()

    def test_failed_approach_marked_incomplete(self):
        # An impossible evaluation budget triggers per-run config errors.
        config = mini_config(max_evals=3)
        report = run_experiment(config)
        assert all(not slot.complete for slot in report.approaches.values())
        assert all(slot.errors for slot in report.approaches.values())

    def test_single_approach_front_indicator_zero(self):
        config = mini_config(
            approaches=(Approach(ObjectiveKind.SURROGATE, 5),), runs=3
        )
        report = run_experiment(config)
        slot = report.approaches["S5"]
        # With one approach the reference set is its own union's front.
        assert slot.indicators_front["hv"] == pytest.approx(0.0, abs=1e-12)
        assert slot.indicators_front["eps"] <= 1e-12


class TestCompareReferenceDecks:
    def test_empty_deck_list_is_noop(self):
        report = run_experiment(mini_config())
        augmented = compare_to_reference_decks([], report, games=20, seed=1)
        assert augmented.reference_decks == []

    def test_decks_are_placed_and_scored(self):
        shape = DeckShape(K=8, L=2)
        report = run_experiment(mini_config())
        decks = [
            ("good", nondominated_deck(shape, np.random.default_rng(1))),
            ("bad", deck_with_dominating_pairs(shape, 10)),
        ]
        augmented = compare_to_reference_decks(decks, report, games=30, seed=2)
        assert len(augmented.reference_decks) == 2
        good, bad = augmented.reference_decks
        assert good["dominance_fitness"] == pytest.approx(-7.0)
        assert bad["dominance_fitness"] > good["dominance_fitness"]
        assert len(good["balance"]) == 3
        assert "normalized" in good


class TestBalanceMetricStudy:
    def test_table_shape_and_monotonicity(self):
        deck = nondominated_deck(DeckShape(), np.random.default_rng(5))
        table = balance_metric_study(deck, sizes=[50, 200], repeats=10, alpha=0.05, seed=3)
        metrics = {row.metric for row in table.rows}
        assert metrics == {"win_rate", "announcer_changes", "tightness"}
        win_rows = table.for_metric("win_rate")
        assert win_rows[0].halfwidth_q95 > win_rows[1].halfwidth_q95

    def test_deterministic(self):
        deck = nondominated_deck(DeckShape(K=8, L=2), np.random.default_rng(5))
        t1 = balance_metric_study(deck, [30], 5, 0.05, seed=9)
        t2 = balance_metric_study(deck, [30], 5, 0.05, seed=9)
        assert t1 == t2
