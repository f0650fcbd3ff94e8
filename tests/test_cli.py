"""CLI subcommands: behavior and byte-identical reproducibility."""

import hashlib
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


# SHA-256 of the artifacts of one experiment with placed reference decks, as
# written by the two-pass report code (which wrote report.json a second time
# after placing the decks).
EXPERIMENT_GOLDEN = {
    "report.json": "d27bda52d3551ab846573889333bfbce54d7a14945d965867c4bbbfde252c439",
    "indicators.csv": "4787292d44ade67452e58cb0f5201b7162b64eed3e502ef733b4173a021390c7",
    "fronts/B4_front.csv": "c7f030e2828c8cf133af1e29c5838a7b92c7161380d56973dc9e808349495570",
    "fronts/B4_surface50.csv": "c7f030e2828c8cf133af1e29c5838a7b92c7161380d56973dc9e808349495570",
    "fronts/B4_union.csv": "7dc95d977723d1e64fd5e19710fc20ddbd3a56b0cea50d148e9640f9d22ba325",
    "fronts/D4_front.csv": "060a83fb8a381a1932ca34f43495edbbc47ef0dbc6db15a667224a925759b903",
    "fronts/D4_surface50.csv": "060a83fb8a381a1932ca34f43495edbbc47ef0dbc6db15a667224a925759b903",
    "fronts/D4_union.csv": "08b12771c6d47a724d756719b3c72ba9c5d29f496e23d8e8d230d7b1d4d2847e",
    "fronts/S4_front.csv": "a4d666313ef5023f38d20745e7e070d306c03563e8c1c9d2362cd4d4d7b6cb71",
    "fronts/S4_surface50.csv": "a4d666313ef5023f38d20745e7e070d306c03563e8c1c9d2362cd4d4d7b6cb71",
    "fronts/S4_union.csv": "d36e98846996ac76bc909544d75336bb9d1e64cecadabf6107c9f7d06a7bad15",
}


def test_experiment_with_reference_decks_matches_golden_bytes(tmp_path, capsys):
    run_cli(capsys, "make-decks", "--out", tmp_path / "decks")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "approaches = S4,D4,B4\nruns = 2\ngames = 200\nevals = 150\n"
        "k = 8\nl = 2\nseed = 7\npermutations = 200\n"
    )
    out = tmp_path / "out"
    run_cli(
        capsys,
        "experiment", "--config", cfg, "--out", out,
        "--reference-decks", str(tmp_path / "decks" / "*.csv"),
    )
    report = json.loads((out / "report.json").read_text())
    assert [deck["name"] for deck in report["reference_decks"]] == [
        f"synthetic_{i:02d}" for i in range(1, 9)
    ]
    paths = [out / "report.json", out / "indicators.csv", *sorted((out / "fronts").glob("*.csv"))]
    digests = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in paths
    }
    assert digests == EXPERIMENT_GOLDEN


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


# SHA-256 of eaf_test.json, surface_a.csv and surface_b.csv as written by the
# dense-grid implementation that the sweep replaced.
EAF_GOLDEN = {
    # seed, runs per group, points per run, m, integer coordinates below, permutations, test seed
    (2024, 40, 4, 3, 6, 300, 5): (
        "dd065c942a39df9b4e5260dcf6e060e52fbe86b00ade0c6a95c64de93becc205",
        "36e25b12bafb5abb74420f8585cc0008ce3d128ee9ce1e5afac0831549b16cc3",
        "a35da19e1e5adeaebd10e73bbcda5408679d3be0113494d8541d77f5515239cc",
    ),
    (7, 5, 6, 3, None, 500, 8): (
        "33567ee83effb08789cc04eaec37bc0a89ffc603e0fea9b95c366e9a2f53e330",
        "9e2a9d2d22726c09b4f3737976c04805470d97a7714e438d6fa0d1652a21cafc",
        "9bf871fbd4ab5d460a160782d9ae9bb43ec67437a34f190f53d1b2c74f907856",
    ),
    (11, 6, 8, 2, None, 400, 3): (
        "53731309f8106c0622c492f15b7272288cf8d70886d5eeaaf0d67c405990f898",
        "b307828c5c308eb63c585912318f6c133b66b0e8289b45662e69b089990f6fb9",
        "97b63837167673ace4346ef9088953428dce345358cbe9f72faafef74a027e1e",
    ),
}


@pytest.mark.parametrize("case", list(EAF_GOLDEN))
def test_eaf_outputs_match_dense_grid_bytes(tmp_path, capsys, case):
    seed, runs, points, m, high, permutations, test_seed = case
    rng = np.random.default_rng(seed)
    for grp, shift in (("a", 0), ("b", 1)):
        for i in range(runs):
            if high is None:
                pts = rng.uniform(0, 1, size=(points, m)) + 0.2 * shift
            else:
                pts = rng.integers(shift, high + shift, size=(points, m)).astype(float)
            write_front_csv(FrontSet(pts, f"{grp}{i}"), tmp_path / f"{grp}_{i:02d}.csv")
    run_cli(
        capsys,
        "eaf", "--group-a", str(tmp_path / "a_*.csv"), "--group-b", str(tmp_path / "b_*.csv"),
        "--permutations", permutations, "--seed", test_seed, "--out", tmp_path / "eaf",
    )
    digests = tuple(
        hashlib.sha256((tmp_path / "eaf" / name).read_bytes()).hexdigest()
        for name in ("eaf_test.json", "surface_a.csv", "surface_b.csv")
    )
    assert digests == EAF_GOLDEN[case]


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

    def test_experiment_unparsable_value_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("approaches = D4\nruns = abc\n")
        err = self.fails(capsys, "experiment", "--config", cfg)
        assert err.startswith(f"trumpbench experiment: {cfg}, line 2: invalid value for 'runs'")

    def test_experiment_reference_glob_without_match_fails_before_any_run(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"approaches = D4\nk = 8\nl = 2\nout = {tmp_path / 'out'}\n")
        err = self.fails(
            capsys,
            "experiment", "--config", cfg, "--reference-decks", str(tmp_path / "decks" / "*.csv"),
        )
        assert err.startswith("trumpbench experiment: no deck files match")
        assert not (tmp_path / "out").exists()
