"""Experiment pipeline: orchestration, report structure, determinism."""

import itertools
import json
import os
import re
import time
from concurrent.futures import Executor, Future

import numpy as np
import pytest

from trumpbench import experiments
from trumpbench.deck import DeckShape, genome_to_deck
from trumpbench.experiments import (
    Approach,
    ExperimentConfig,
    balance_metric_study,
    derive_seed,
    execute_run,
    make_evaluator,
    run_experiment,
)
from trumpbench.indicators import read_front_csv
from trumpbench.moea import VariationParams
from trumpbench.objectives import ObjectiveKind
from trumpbench.ocd import OCDParams
from trumpbench.synth import deck_with_dominating_pairs

from tests.test_indicators import strictly_dominates_brute


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

    def test_empty_approach_list_rejected(self):
        with pytest.raises(ValueError, match="need at least one approach"):
            mini_config(approaches=())

    @pytest.mark.parametrize(
        "setting",
        [
            {"games": 0},
            {"surface_level": 0.0},
            {"surface_level": 1.5},
            {"permutations": 0},
            {"permutations": 10**12},
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"workers": 0},
            # Beyond game.MAX_DEAL_BYTES: the replay deals of an experiment
            # of S and D runs, which draw no deals themselves.
            {"games": 2**50},
        ],
    )
    def test_invalid_setting_rejected_by_the_config(self, setting):
        # Caught when the config is built, so no optimizer run is wasted.
        with pytest.raises(ValueError):
            mini_config(**setting)

    @pytest.mark.parametrize(
        "setting, label, message",
        [
            ({"approaches": (Approach(ObjectiveKind.SURROGATE, 1),)}, "S1", "population size"),
            ({"max_evals": 5}, "S5", "evaluation budget"),
            ({"shape": DeckShape(K=8, L=1)}, "S5", "no valid deck exists"),
        ],
    )
    def test_invalid_run_setting_names_the_approach(self, monkeypatch, setting, label, message):
        def no_run(config):
            raise AssertionError(f"a run started with a bad setting: {config}")

        monkeypatch.setattr(experiments, "execute_run", no_run)
        with pytest.raises(ValueError, match=f"^approach {label}: {message}"):
            run_experiment(mini_config(**setting))

    def test_boundary_settings_accepted(self):
        config = mini_config(games=1, surface_level=1.0, permutations=1, alpha=0.5, workers=1)
        assert config.surface_level == 1.0

    def test_hash_of_default_config_is_stable(self):
        assert ExperimentConfig().config_hash() == "3aff70cd55952118"

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
        deck = deck_with_dominating_pairs(shape, 0)
        ev = make_evaluator(ObjectiveKind.DOMINANCE, shape, 10)
        assert ev(deck, np.random.default_rng(0))[0] == pytest.approx(-31.0)

    def test_balance_evaluator_uses_rng(self):
        shape = DeckShape()
        deck = deck_with_dominating_pairs(shape, 0)
        ev = make_evaluator(ObjectiveKind.BALANCE, shape, 40)
        a = ev(deck, np.random.default_rng(5))
        b = ev(deck, np.random.default_rng(5))
        c = ev(deck, np.random.default_rng(6))
        assert a == b
        assert a != c


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

    def test_output_dir_of_another_experiment_is_refused(self, tmp_path):
        # Writing S5 runs into D5's directory would leave D5's runs and
        # fronts beside a report that lists S5 alone.
        out = tmp_path / "out"
        run_experiment(mini_config(output_dir=str(out), runs=3))
        before = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
        other = mini_config(output_dir=str(out), approaches=(Approach(ObjectiveKind.SURROGATE, 5),))
        with pytest.raises(ValueError, match=f"holds experiment {mini_config(runs=3).config_hash()}"):
            run_experiment(other)
        assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == before

    @pytest.mark.parametrize("report", [b"{not json", b"[]", b'{"seed": 1}', b"\xff"])
    def test_output_dir_with_an_unreadable_report_is_refused(self, tmp_path, report):
        (tmp_path / "report.json").write_bytes(report)
        with pytest.raises(ValueError, match="cannot read the config hash of"):
            run_experiment(mini_config(output_dir=str(tmp_path)))
        assert [path.name for path in tmp_path.iterdir()] == ["report.json"]

    @pytest.mark.parametrize("leftover", ["runs/D5/run_000.json", "fronts/D5_front.csv", "indicators.csv"])
    def test_output_dir_with_artifacts_but_no_report_is_refused(self, tmp_path, leftover):
        # report.json is written last: an experiment that died before it
        # leaves artifacts of a config no one can read back.
        (tmp_path / leftover).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / leftover).write_text("")
        top = tmp_path / leftover.split("/")[0]
        with pytest.raises(ValueError, match=re.escape(f"holds {top} but no report.json")):
            run_experiment(mini_config(output_dir=str(tmp_path)))
        assert [path for path in tmp_path.rglob("*") if path.is_file()] == [tmp_path / leftover]

    def test_output_dir_of_the_same_experiment_is_rewritten(self, tmp_path):
        out = tmp_path / "out"
        run_experiment(mini_config(output_dir=str(out)))
        first = (out / "report.json").read_bytes()
        run_experiment(mini_config(output_dir=str(out), workers=2))
        assert (out / "report.json").read_bytes() == first

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

    def test_eaf_tests_match_dense_grid_values(self, tmp_path):
        # The eaf_tests block of report.json as the dense-grid
        # implementation that the sweep replaced writes it (grid_eaf_test in
        # tests/test_eaf.py), re-pinned when the S5 runs moved: when
        # staircase areas became np.add.reduceat sums, and when the
        # variation operators took np.float_power; and when B deals came to
        # be drawn by sorting random keys, which moved the B5 runs and the
        # common deals every front is replayed on.
        approaches = tuple(
            Approach(kind, 5)
            for kind in (ObjectiveKind.SURROGATE, ObjectiveKind.DOMINANCE, ObjectiveKind.BALANCE)
        )
        run_experiment(mini_config(approaches=approaches, runs=3, output_dir=str(tmp_path)))
        report = json.loads((tmp_path / "report.json").read_text())
        common = {"alpha": 0.05, "critical_value": 1.0, "permutations": 200, "reject": False}
        assert report["eaf_tests"] == {
            "B5_vs_D5": {**common, "p_value": 0.245, "seed": 3407220621908119944, "statistic": 1.0},
            "B5_vs_S5": {
                **common, "p_value": 1.0, "seed": 8162290882414918802, "statistic": 0.33333333333333337
            },
            "D5_vs_S5": {**common, "p_value": 0.285, "seed": 1915316874147300777, "statistic": 1.0},
        }

    def test_set_relations_name_no_union(self, tmp_path):
        # A union and its front have the same relations with every set, and
        # each set is named as indicators.csv names it.
        approaches = tuple(
            Approach(kind, 5)
            for kind in (ObjectiveKind.SURROGATE, ObjectiveKind.DOMINANCE, ObjectiveKind.BALANCE)
        )
        config = mini_config(approaches=approaches, runs=3, master_seed=1, output_dir=str(tmp_path))
        report = run_experiment(config)
        names = {name for relation in report.set_relations for name in relation.values()}
        assert names
        assert not any(name.endswith("_union") for name in names)
        rows = (tmp_path / "indicators.csv").read_text().splitlines()[1:]
        assert names <= {row.split(",")[0] for row in rows}

    def test_killed_worker_fails_only_its_run(self, tmp_path, monkeypatch):
        config = mini_config(output_dir=str(tmp_path), workers=2)
        doomed = config.run_config(config.approaches[1], 1).seed  # submitted last
        so_ea_run = experiments.so_ea_run

        def dies_on_the_doomed_seed(run_config, evaluator):
            if run_config.seed == doomed:
                time.sleep(1.5)  # the other runs finish first
                os._exit(1)
            return so_ea_run(run_config, evaluator)

        # Pool workers are forked, so they inherit the patched module.
        monkeypatch.setattr(experiments, "so_ea_run", dies_on_the_doomed_seed)
        report = run_experiment(config)

        assert report.approaches["S5"].complete
        assert len(report.approaches["S5"].run_artifacts) == 2
        d5 = report.approaches["D5"]
        assert not d5.complete
        assert [art["seed"] for art in d5.run_artifacts] == [config.run_config(config.approaches[1], 0).seed]
        assert len(d5.errors) == 1
        assert d5.errors[0].startswith(f"seed {doomed}: BrokenProcessPool: ")
        written = json.loads((tmp_path / "report.json").read_text())
        assert written["approaches"]["D5"]["errors"] == d5.errors
        assert (tmp_path / "runs" / "D5" / "run_000.json").is_file()

    def test_killed_run_with_one_worker_fails_only_that_run(self, monkeypatch):
        # One worker is a pool of one process too, so a run that kills its
        # process fails that run, not the experiment.
        config = mini_config(workers=1)
        doomed = config.run_config(config.approaches[1], 1).seed  # submitted last
        so_ea_run = experiments.so_ea_run

        def dies_on_the_doomed_seed(run_config, evaluator):
            if run_config.seed == doomed:
                os._exit(1)
            return so_ea_run(run_config, evaluator)

        monkeypatch.setattr(experiments, "so_ea_run", dies_on_the_doomed_seed)
        report = run_experiment(config)

        assert report.approaches["S5"].complete
        d5 = report.approaches["D5"]
        assert [art["seed"] for art in d5.run_artifacts] == [config.run_config(config.approaches[1], 0).seed]
        assert len(d5.errors) == 1
        assert d5.errors[0].startswith(f"seed {doomed}: BrokenProcessPool: ")

    @pytest.mark.parametrize("workers, processes", [(1, 1), (3, 3), (64, 4)])
    def test_pool_starts_no_more_processes_than_runs(self, monkeypatch, workers, processes):
        # The executor forks all its processes up front, so a stand-in that
        # runs each job in this process records the size it was asked for.
        sizes = []

        class RecordingPool(Executor):
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        report = run_experiment(mini_config(workers=workers))
        assert sizes == [processes]
        assert all(result.complete for result in report.approaches.values())

    def test_failed_approach_marked_incomplete(self, tmp_path, monkeypatch):
        def broken_run(config, evaluator):
            raise RuntimeError("optimizer broke")

        monkeypatch.setattr(experiments, "so_ea_run", broken_run)
        config = mini_config(output_dir=str(tmp_path))
        report = run_experiment(config)
        d5 = report.approaches["D5"]
        seeds = [derive_seed(config.master_seed, "D5", idx) for idx in range(config.runs)]
        assert d5.errors == [f"seed {s}: RuntimeError: optimizer broke" for s in seeds]
        assert not d5.complete
        assert report.approaches["S5"].complete
        written = json.loads((tmp_path / "report.json").read_text())
        assert written["approaches"]["D5"]["errors"] == d5.errors

    def test_surface_artifacts_are_named_by_their_level(self, tmp_path):
        run_experiment(mini_config(surface_level=0.75, output_dir=str(tmp_path)))
        assert sorted(path.name for path in (tmp_path / "fronts").glob("*_surface*.csv")) == [
            "D5_surface75.csv",
            "S5_surface75.csv",
        ]
        report = json.loads((tmp_path / "report.json").read_text())
        assert {"surface75", "surface50"} & set(report["approaches"]["S5"]) == {"surface75"}
        rows = (tmp_path / "indicators.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["D5_p", "D5_75", "S5_p", "S5_75"]

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
        report = run_experiment(mini_config(), reference_decks=[])
        assert report.reference_decks == []

    def test_decks_are_placed_and_scored(self):
        shape = DeckShape(K=8, L=2)
        decks = [
            ("good", deck_with_dominating_pairs(shape, 0)),
            ("bad", deck_with_dominating_pairs(shape, 10)),
        ]
        report = run_experiment(mini_config(), reference_decks=decks)
        assert len(report.reference_decks) == 2
        good, bad = report.reference_decks
        assert good["dominance_fitness"] == pytest.approx(-7.0)
        assert bad["dominance_fitness"] > good["dominance_fitness"]
        assert len(good["balance"]) == 3
        assert "normalized" in good

    @pytest.mark.parametrize("decks", [0, 2])
    def test_deals_are_drawn_once_per_comparison(self, monkeypatch, decks):
        # The reference decks play the games the fronts were replayed on.
        calls = []
        draw_deals = experiments.draw_deals

        def counted(*args):
            calls.append(args[:2])
            return draw_deals(*args)

        monkeypatch.setattr(experiments, "draw_deals", counted)
        shape = DeckShape(K=8, L=2)
        reference = [(f"deck{i}", deck_with_dominating_pairs(shape, i)) for i in range(decks)]
        run_experiment(mini_config(), reference_decks=reference)
        assert calls == [(8, 50)]

    def test_front_deck_placed_as_reference_keeps_its_balance(self):
        config = mini_config()
        artifact, error = execute_run(config.run_config(config.approaches[0], 0))
        assert error is None
        decks = [
            (f"front{i}", genome_to_deck(ind["genome"], config.shape))
            for i, ind in enumerate(artifact["front"])
        ]
        report = run_experiment(config, reference_decks=decks)
        own_points = report.approaches["S5"].run_points[0]
        assert [entry["balance"] for entry in report.reference_decks] == own_points.tolist()

    def test_deck_of_another_shape_fails_before_any_run(self, tmp_path, monkeypatch):
        def no_run(config):
            raise AssertionError("a run started before the decks were checked")

        monkeypatch.setattr(experiments, "execute_run", no_run)
        config = mini_config(output_dir=str(tmp_path / "out"))
        decks = [("wide", deck_with_dominating_pairs(DeckShape(), 0))]
        with pytest.raises(ValueError, match="reference deck wide has shape"):
            run_experiment(config, reference_decks=decks)
        assert not (tmp_path / "out").exists()


class TestStrictVerdicts:
    def test_verdicts_are_strict_dominance_of_the_reported_points(self, tmp_path):
        # Both verdicts against a brute-force oracle over report.json's own
        # points. Each approach's first-run front deck, placed as a reference
        # deck, lands on a point of its own union, so its own front weakly
        # but not strictly dominates it.
        approaches = tuple(
            Approach(kind, 5)
            for kind in (ObjectiveKind.SURROGATE, ObjectiveKind.DOMINANCE, ObjectiveKind.BALANCE)
        )
        config = mini_config(approaches=approaches, runs=3, master_seed=1, output_dir=str(tmp_path))
        decks = [(f"pairs{i}", deck_with_dominating_pairs(config.shape, i)) for i in (0, 5, 10)]
        for approach in approaches:
            artifact, error = execute_run(config.run_config(approach, 0))
            assert error is None
            deck = genome_to_deck(artifact["front"][0]["genome"], config.shape)
            decks.append((f"{approach.label}_run0", deck))
        run_experiment(config, reference_decks=decks)
        report = json.loads((tmp_path / "report.json").read_text())

        def weakly_dominates(first, second):
            return all(any(all(x <= y for x, y in zip(a, b)) for a in first) for b in second)

        sets = {}
        for label, slot in report["approaches"].items():
            sets[f"{label}_p"] = slot["front"]
            sets[f"{label}_50"] = slot["surface50"]
        pairs = list(itertools.permutations(sorted(sets), 2))
        strict = [(a, b) for a, b in pairs if strictly_dominates_brute(sets[a], sets[b])]
        assert strict
        assert strict != [(a, b) for a, b in pairs if weakly_dominates(sets[a], sets[b])]
        assert report["set_relations"] == [{"dominator": a, "dominated": b} for a, b in strict]

        fronts = {label: slot["front"] for label, slot in sorted(report["approaches"].items())}
        weak_differs = False
        for entry in report["reference_decks"]:
            point = [entry["normalized"]]
            expected = [label for label, front in fronts.items() if strictly_dominates_brute(front, point)]
            assert entry["dominated_by"] == expected
            weak = [label for label, front in fronts.items() if weakly_dominates(front, point)]
            weak_differs |= expected != weak
        assert weak_differs
        assert any(entry["dominated_by"] for entry in report["reference_decks"])


class TestBalanceMetricStudy:
    def test_table_shape_and_monotonicity(self):
        deck = deck_with_dominating_pairs(DeckShape(), 0)
        text = balance_metric_study(deck, sizes=[50, 200], repeats=10, alpha=0.05, seed=3)
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert {metric for _, metric, _ in rows} == {"win_rate", "announcer_changes", "tightness"}
        win_widths = [float(width) for _, metric, width in rows if metric == "win_rate"]
        assert win_widths[0] > win_widths[1]

    def test_deterministic(self):
        deck = deck_with_dominating_pairs(DeckShape(K=8, L=2), 0)
        t1 = balance_metric_study(deck, [30], 5, 0.05, seed=9)
        t2 = balance_metric_study(deck, [30], 5, 0.05, seed=9)
        assert t1 == t2

    def test_one_repeat_fails_before_any_deal(self, monkeypatch):
        def no_deals(*args):
            raise AssertionError("deals were drawn before the repeats were checked")

        monkeypatch.setattr(experiments, "draw_deals", no_deals)
        deck = deck_with_dominating_pairs(DeckShape(K=8, L=2), 0)
        with pytest.raises(ValueError, match="need at least two repeats"):
            balance_metric_study(deck, [30], 1, 0.05, seed=0)

    @pytest.mark.parametrize(
        "sizes, alpha, message",
        [
            ([], 0.05, "need at least one sample size"),
            ([30], 0.0, r"alpha must lie in \(0, 1\)"),
            ([30], float("nan"), r"alpha must lie in \(0, 1\)"),
            ([30, 2**50], 0.05, f"{2**50} games of 8 cards need"),
        ],
        ids=["no-size", "alpha-0", "alpha-nan", "size-beyond-deal-bytes"],
    )
    def test_bad_argument_fails_before_any_deal(self, monkeypatch, sizes, alpha, message):
        def no_deals(*args):
            raise AssertionError("deals were drawn before the arguments were checked")

        monkeypatch.setattr(experiments, "draw_deals", no_deals)
        deck = deck_with_dominating_pairs(DeckShape(K=8, L=2), 0)
        with pytest.raises(ValueError, match=message):
            balance_metric_study(deck, sizes, 2, alpha, seed=0)
