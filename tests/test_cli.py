"""CLI subcommands: behavior and byte-identical reproducibility."""

import json

import numpy as np
import pytest

from trumpbench.cli import main, parse_config_file
from trumpbench.deck import DeckShape, load_deck, save_deck
from trumpbench.experiments import ExperimentConfig
from trumpbench.indicators import FrontSet, read_front_csv, write_front_csv
from trumpbench.synth import nondominated_deck


@pytest.fixture()
def deck_file(tmp_path):
    deck = nondominated_deck(DeckShape(), np.random.default_rng(3))
    path = tmp_path / "deck.csv"
    save_deck(deck, path)
    return path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


class TestSimulate:
    def test_summary_json(self, deck_file, capsys):
        out = run_cli(
            capsys, "simulate", "--deck", deck_file, "--games", 200, "--seed", 5
        )
        record = json.loads(out)
        assert record["games"] == 200
        assert 0.0 <= record["win_rate_p4"] <= 1.0
        assert record["policies"] == "p4p0"

    def test_self_play_policies_flag(self, deck_file, capsys):
        out = run_cli(
            capsys,
            "simulate", "--deck", deck_file, "--games", 400, "--seed", 5,
            "--policies", "p0p0",
        )
        record = json.loads(out)
        assert abs(record["win_rate_p4"] - 0.5) < 0.1

    def test_byte_identical_reruns(self, deck_file, capsys):
        args = ("simulate", "--deck", deck_file, "--games", 100, "--seed", 9)
        assert run_cli(capsys, *args) == run_cli(capsys, *args)


class TestOptimize:
    def test_artifact_written(self, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        run_cli(
            capsys,
            "optimize", "--objective", "D", "--mu", 5, "--evals", 200, "--seed", 3,
            "--out", out_dir, "--cards", 8, "--categories", 2,
        )
        path = out_dir / "run_D5_seed3.json"
        artifact = json.loads(path.read_text())
        assert artifact["config"]["objective"] == "D"
        assert artifact["config"]["seed"] == 3
        assert artifact["n_evals"] <= 200
        assert len(artifact["population"]) == 5
        assert artifact["front"]

    def test_byte_identical_reruns(self, tmp_path, capsys):
        blobs = []
        for sub in ("a", "b"):
            out_dir = tmp_path / sub
            run_cli(
                capsys,
                "optimize", "--objective", "S", "--mu", 4, "--evals", 120, "--seed", 8,
                "--out", out_dir, "--cards", 8, "--categories", 2,
            )
            blobs.append((out_dir / "run_S4_seed8.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_invalid_config_reports_failed_run(self, tmp_path, capsys):
        code = main(
            ["optimize", "--objective", "S", "--mu", "50", "--evals", "40",
             "--out", str(tmp_path / "runs")]
        )
        assert code == 1
        assert "run failed: ValueError" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()


class TestExperimentCommand:
    def write_config(self, tmp_path, out_name):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "approaches = S4, D4\n"
            "runs = 2\n"
            "games = 30\n"
            "evals = 150\n"
            "seed = 77\n"
            "k = 8\n"
            "l = 2\n"
            "ocd_window = 5\n"
            "permutations = 100\n"
            f"out = {tmp_path / out_name}\n"
        )
        return cfg

    def test_runs_and_writes_report(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "out")
        out = run_cli(capsys, "experiment", "--config", cfg)
        assert "complete" in out
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert set(report["approaches"]) == {"S4", "D4"}

    def test_byte_identical_report(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "out1")
        run_cli(capsys, "experiment", "--config", cfg)
        run_cli(capsys, "experiment", "--config", cfg, "--out", tmp_path / "out2")
        a = (tmp_path / "out1" / "report.json").read_bytes()
        b = (tmp_path / "out2" / "report.json").read_bytes()
        assert a == b

    def test_config_parser(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# comment line\n"
            "approaches = B10\n"
            "runs = 3\n"
            "pm = 0.05\n"
            "eta_c = 15\n"
        )
        config = parse_config_file(cfg)
        assert config.approaches[0].label == "B10"
        assert config.runs == 3
        assert config.variation.pm == 0.05
        assert config.variation.eta_c == 15.0

    def test_config_parser_defaults_come_from_dataclasses(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("approaches = S10, D10\n")
        assert parse_config_file(cfg) == ExperimentConfig()

    def test_config_parser_rejects_unknown_key(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("approaches = D10\n# budget\nevlas = 100\n")
        with pytest.raises(ValueError, match=r"line 3: unknown key 'evlas'"):
            parse_config_file(cfg)


class TestIndicatorsCommand:
    def test_csv_output(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        for i in range(3):
            write_front_csv(
                FrontSet(rng.uniform(1, 2, size=(4, 2)), f"f{i}"),
                tmp_path / f"front_{i}.csv",
            )
        write_front_csv(
            FrontSet(np.array([[1.0, 1.2], [1.2, 1.0]]), "ref"), tmp_path / "ref.csv"
        )
        out = run_cli(
            capsys,
            "indicators", "--fronts", str(tmp_path / "front_*.csv"),
            "--refset", tmp_path / "ref.csv",
        )
        lines = out.strip().splitlines()
        assert lines[0] == "front,hv,eps,r2"
        assert len(lines) == 4

    def test_three_objective_values_are_plain_numbers(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        for name in ("front", "ref"):
            write_front_csv(FrontSet(rng.uniform(1, 2, size=(5, 3)), name), tmp_path / f"{name}.csv")
        out = run_cli(
            capsys,
            "indicators", "--fronts", str(tmp_path / "front.csv"),
            "--refset", tmp_path / "ref.csv",
        )
        row = out.strip().splitlines()[1].split(",")
        assert [float(cell) for cell in row[1:]]


class TestEafCommand:
    def make_groups(self, tmp_path):
        rng = np.random.default_rng(11)
        for grp, shift in (("a", 0.0), ("b", 0.5)):
            for i in range(3):
                write_front_csv(
                    FrontSet(rng.uniform(0, 1, size=(3, 2)) + shift, f"{grp}{i}"),
                    tmp_path / f"{grp}_{i}.csv",
                )

    def test_surfaces_and_test_json(self, tmp_path, capsys):
        self.make_groups(tmp_path)
        out = run_cli(
            capsys,
            "eaf", "--group-a", str(tmp_path / "a_*.csv"),
            "--group-b", str(tmp_path / "b_*.csv"),
            "--level", 0.5, "--permutations", 200, "--alpha", 0.05,
            "--seed", 4, "--out", tmp_path / "eaf",
        )
        record = json.loads(out)
        assert set(record) == {
            "statistic", "critical_value", "p_value", "permutations", "alpha",
            "reject", "seed",
        }
        assert (tmp_path / "eaf" / "surface_a.csv").is_file()
        assert (tmp_path / "eaf" / "surface_b.csv").is_file()
        disk = json.loads((tmp_path / "eaf" / "eaf_test.json").read_text())
        assert disk == record

    def test_byte_identical_outputs(self, tmp_path, capsys):
        self.make_groups(tmp_path)
        outs = []
        for sub in ("e1", "e2"):
            run_cli(
                capsys,
                "eaf", "--group-a", str(tmp_path / "a_*.csv"),
                "--group-b", str(tmp_path / "b_*.csv"),
                "--permutations", 150, "--seed", 6, "--out", tmp_path / sub,
            )
            outs.append(
                (tmp_path / sub / "eaf_test.json").read_bytes()
                + (tmp_path / sub / "surface_a.csv").read_bytes()
            )
        assert outs[0] == outs[1]


class TestSampleSizeCommand:
    def test_table_csv(self, deck_file, tmp_path, capsys):
        out = run_cli(
            capsys,
            "sample-size", "--deck", deck_file, "--sizes", "30,60",
            "--repeats", 4, "--seed", 2, "--out", tmp_path / "table.csv",
        )
        lines = out.strip().splitlines()
        assert lines[0] == "size,metric,halfwidth_q95"
        assert len(lines) == 7  # two sizes x three metrics
        assert (tmp_path / "table.csv").read_text() == out


class TestMakeDecks:
    def test_decks_written_and_loadable(self, tmp_path, capsys):
        run_cli(capsys, "make-decks", "--out", tmp_path / "decks")
        files = sorted((tmp_path / "decks").glob("*.csv"))
        assert len(files) == 8
        deck = load_deck(files[0])
        assert deck.shape.K == 32


class TestCommandErrors:
    """A bad argument or a missing file ends any command with one line on
    stderr and exit status 1, not a traceback."""

    def fails(self, capsys, *argv):
        code = main([str(a) for a in argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        return captured.err

    def test_simulate_without_games(self, deck_file, capsys):
        err = self.fails(capsys, "simulate", "--deck", deck_file, "--games", 0)
        assert err.startswith("trumpbench simulate: need at least one game")

    def test_simulate_missing_deck(self, tmp_path, capsys):
        err = self.fails(capsys, "simulate", "--deck", tmp_path / "absent.csv")
        assert err.startswith("trumpbench simulate: ")
        assert "absent.csv" in err

    def test_sample_size_rejects_size_one_before_simulating(self, deck_file, capsys, monkeypatch):
        def no_games(*args, **kwargs):
            raise AssertionError("simulated before the sizes were checked")

        monkeypatch.setattr("trumpbench.experiments.play_random_games", no_games)
        err = self.fails(capsys, "sample-size", "--deck", deck_file, "--sizes", "30,1")
        assert err.startswith("trumpbench sample-size: every sample size must be at least 2")

    def test_eaf_glob_without_match(self, tmp_path, capsys):
        err = self.fails(
            capsys,
            "eaf", "--group-a", str(tmp_path / "a_*.csv"), "--group-b", str(tmp_path / "b_*.csv"),
            "--out", tmp_path / "eaf",
        )
        assert err.startswith("trumpbench eaf: no front files match")
        assert not (tmp_path / "eaf").exists()

    def test_indicators_glob_without_match(self, tmp_path, capsys):
        err = self.fails(
            capsys,
            "indicators", "--fronts", str(tmp_path / "front_*.csv"),
            "--refset", tmp_path / "ref.csv",
        )
        assert err.startswith("trumpbench indicators: no front files match")

    def test_experiment_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("approaches = D4\nevlas = 100\n")
        err = self.fails(capsys, "experiment", "--config", cfg)
        assert err.startswith("trumpbench experiment: ")
        assert "line 2: unknown key 'evlas'" in err

    def test_experiment_invalid_setting_fails_before_any_run(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"approaches = D4\nk = 8\nl = 2\nsurface_level = 0\nout = {tmp_path / 'out'}\n"
        )
        err = self.fails(capsys, "experiment", "--config", cfg)
        assert err.startswith("trumpbench experiment: surface_level must lie in (0, 1]")
        assert not (tmp_path / "out").exists()
