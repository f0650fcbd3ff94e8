"""CLI subcommands: behavior and byte-identical reproducibility."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trumpbench import cli
from trumpbench.cli import RUN_SECTIONS, SETTINGS, main, parse_config_file
from trumpbench.deck import DeckShape, deck_is_valid, dominating_pair_count, load_deck, save_deck
from trumpbench.experiments import ExperimentConfig
from trumpbench.indicators import (
    FrontSet,
    fit_normalize_transform,
    indicator_block,
    read_front_csv,
    write_front_csv,
)
from trumpbench.moea import EAConfig
from trumpbench.objectives import ObjectiveKind
from trumpbench.synth import deck_with_dominating_pairs


@pytest.fixture()
def deck_file(tmp_path):
    deck = deck_with_dominating_pairs(DeckShape(), 0)
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
        assert abs(record["win_rate_p0"] - 0.5) < 0.1
        assert "loss_rate_p0" in record and "win_rate_p4" not in record

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
        assert capsys.readouterr().err == (
            "trumpbench optimize: evaluation budget must exceed the population size\n"
        )
        assert not (tmp_path / "runs").exists()

    def test_run_that_fails_reports_failed_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "execute_run", lambda config: (None, "RuntimeError: boom"))
        code = main(["optimize", "--objective", "D", "--out", str(tmp_path / "runs")])
        assert code == 1
        assert capsys.readouterr().err == "run failed: RuntimeError: boom\n"
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

    @pytest.mark.parametrize(
        "text, line, key",
        [
            ("runs = 2\nruns = 3\n", 2, "runs"),
            ("K = 8\nevals = 100\nk = 10\n", 3, "k"),
        ],
    )
    def test_config_parser_rejects_repeated_key(self, tmp_path, text, line, key):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        with pytest.raises(ValueError, match=rf"exp\.cfg, line {line}: repeated key '{key}'"):
            parse_config_file(cfg)


# Every run, shape, variation and OCD setting at a value other than its
# default: (config-file key, optimize flag, value).
RUN_SETTINGS = [
    ("evals", "--evals", "40"),
    ("games", "--games", "30"),
    ("k", "--cards", "8"),
    ("l", "--categories", "2"),
    ("lo", "--lo", "2"),
    ("hi", "--hi", "9"),
    ("pc", "--pc", "0.9"),
    ("pm", "--pm", "0.05"),
    ("eta_c", "--eta-c", "15"),
    ("eta_m", "--eta-m", "10"),
    ("ocd_window", "--ocd-window", "5"),
    ("ocd_var_limit", "--ocd-var-limit", "1e-3"),
    ("ocd_alpha", "--ocd-alpha", "0.1"),
]


def plain(config: EAConfig) -> dict:
    return json.loads(json.dumps(dataclasses.asdict(config), default=lambda e: e.value))


def setting(plain_config: dict, key: str):
    section, name = SETTINGS[key][:2]
    return plain_config[name] if section == "run" else plain_config[section][name]


def leaf_fields(config_class, prefix=()) -> set[tuple[str, ...]]:
    """Paths of the fields of a config dataclass that hold no dataclass,
    with the fields of its nested config dataclasses."""
    paths = set()
    for f in dataclasses.fields(config_class):
        if dataclasses.is_dataclass(f.default_factory):
            paths |= leaf_fields(f.default_factory, prefix + (f.name,))
        else:
            paths.add(prefix + (f.name,))
    return paths


class TestSettingsParity:
    """`optimize` flags and config-file keys set the same run settings."""

    def test_every_run_setting_is_covered(self):
        keys = {key for key, (section, *_) in SETTINGS.items() if section != "experiment"}
        assert {key for key, _, _ in RUN_SETTINGS} == keys

    def test_every_config_field_can_be_set(self):
        # A field that no flag or config-file key sets is a constant, not a
        # setting; optimize sets mu, objective and seed by flags of its own.
        def settable(sections):
            return {
                (name,) if section in ("run", "experiment") else (section, name)
                for section, name, *_ in SETTINGS.values()
                if section in sections
            }

        assert leaf_fields(EAConfig) - settable(RUN_SECTIONS) == {("mu",), ("objective",), ("seed",)}
        assert leaf_fields(ExperimentConfig) <= settable(("experiment", *RUN_SECTIONS))

    def test_optimize_flags_match_config_file_keys(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "approaches = B4\nseed = 5\n"
            + "".join(f"{key} = {value}\n" for key, _, value in RUN_SETTINGS)
        )
        experiment = parse_config_file(cfg)
        expected = experiment.run_config(experiment.approaches[0], 0)
        default = plain(EAConfig(mu=4, objective=ObjectiveKind.BALANCE, seed=expected.seed))
        for key, _, _ in RUN_SETTINGS:
            assert setting(plain(expected), key) != setting(default, key), key
        argv = ["optimize", "--objective", "B", "--mu", 4, "--seed", expected.seed]
        argv += [part for _, flag, value in RUN_SETTINGS for part in (flag, value)]
        run_cli(capsys, *argv, "--out", tmp_path)
        artifact = json.loads((tmp_path / f"run_B4_seed{expected.seed}.json").read_text())
        assert artifact["config"] == plain(expected)

    def test_optimize_without_setting_flags_takes_dataclass_defaults(
        self, tmp_path, capsys, monkeypatch
    ):
        configs = []

        def record(config):
            configs.append(config)
            return None, "not run"

        monkeypatch.setattr(cli, "execute_run", record)
        main(["optimize", "--objective", "D", "--out", str(tmp_path)])
        capsys.readouterr()
        assert configs == [EAConfig(mu=10, objective=ObjectiveKind.DOMINANCE)]


# SHA-256 of the artifacts of one experiment with eight placed 8x2 reference
# decks, re-pinned when the variation operators took np.float_power (the
# same floats on every CPU) and the run configs lost the settings no command
# could set (report.json carries their hash); last when B deals came to be
# drawn by sorting random keys, which moved the B runs and the common deals
# that every approach's fronts are replayed on.
EXPERIMENT_GOLDEN = {
    "report.json": "bcb546a28eeebf594bf95a8c3bf75debf177a85af79d9eeb4bca59c208db0f3c",
    "indicators.csv": "8fdae7bdb132259ca27bfc66a3c665624e50c6c180e102489461daa9f4b1af1e",
    "fronts/B4_front.csv": "d4b04a914564bba5d5a33596b22e876cff82209155f1f2bdccaed765173b2b2d",
    "fronts/B4_surface50.csv": "d4b04a914564bba5d5a33596b22e876cff82209155f1f2bdccaed765173b2b2d",
    "fronts/B4_union.csv": "f9ade8257942988f14c4e442adc5f03a15047f1f3e6d48cbc372f3d97c5952a5",
    "fronts/D4_front.csv": "8d23d0c858a4677bc291e334b46dd12cb58030cc519cc1214b73158368ccd97e",
    "fronts/D4_surface50.csv": "8d23d0c858a4677bc291e334b46dd12cb58030cc519cc1214b73158368ccd97e",
    "fronts/D4_union.csv": "bd1d74f38048e24cbdd36a803e03d5101a0aa634090838defaab200602a797e4",
    "fronts/S4_front.csv": "c38f42a20cba2e7b8f44697442c83f0fd5ce6646fcc34649c7ba3db6f30c4a53",
    "fronts/S4_surface50.csv": "c38f42a20cba2e7b8f44697442c83f0fd5ce6646fcc34649c7ba3db6f30c4a53",
    "fronts/S4_union.csv": "bea80e553dd0423dd69ca65eee16fec41c4bc6eb8828d5850d0c6c440800ea3b",
}


# Dominated-pair counts of the 8x2 reference decks of the golden experiment.
REFERENCE_PAIRS_8X2 = (0, 1, 2, 3, 5, 6, 10, 15)


def test_experiment_with_reference_decks_matches_golden_bytes(tmp_path, capsys):
    (tmp_path / "decks").mkdir()
    for i, pairs in enumerate(REFERENCE_PAIRS_8X2, start=1):
        deck = deck_with_dominating_pairs(DeckShape(K=8, L=2), pairs)
        save_deck(deck, tmp_path / "decks" / f"synthetic_{i:02d}.csv")
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


# SHA-256 of run_S10_seed3.json from `optimize --objective S --evals 200
# --seed 3` on 32 cards, with each staircase area an np.add.reduceat sum, as
# the recursive oracle in tests/test_hv.py computes it, and each spread
# factor of the variation operators an np.float_power.  These decks
# reach the 4-D and 3-D hypervolume, which the 8x2 golden experiment
# does not.  The 3-category run was re-pinned when 2-D selection came to
# score exact exclusive rectangles: at evaluation 177 it now drops the
# member that a twin 10 ulps better in one objective weakly dominates, not
# the twin.
S_RUN_GOLDEN = {
    4: "cdcac1add45f022f32a3c4837e4f61132afa4f4b0a192393920f90c4d0f2b371",
    3: "4f6ec8934e8611fb61cc0f8f3ba67df644c01b86345f642e565af30cf1febc1e",
}


@pytest.mark.parametrize("categories", list(S_RUN_GOLDEN))
def test_surrogate_run_matches_golden_bytes(tmp_path, capsys, categories):
    run_cli(
        capsys,
        "optimize", "--objective", "S", "--evals", 200, "--seed", 3,
        "--categories", categories, "--out", tmp_path,
    )
    digest = hashlib.sha256((tmp_path / "run_S10_seed3.json").read_bytes()).hexdigest()
    assert digest == S_RUN_GOLDEN[categories]


# SHA-256 of run_S10_seed0.json from `optimize --objective S --evals 300
# --seed 0` on the default 32x4 deck.  Its worst front at evaluation 19 holds
# two members one ulp apart in the first objective and equal in the second,
# so it pins that selection drops the weakly dominated one from the start.
S_RUN_SEED0_GOLDEN = "5553d55597632b4f2e573b5cadb314969776957f5c3de8e84adb1c0381a3f978"


def test_surrogate_run_with_early_twins_matches_golden_bytes(tmp_path, capsys):
    run_cli(capsys, "optimize", "--objective", "S", "--evals", 300, "--seed", 0, "--out", tmp_path)
    digest = hashlib.sha256((tmp_path / "run_S10_seed0.json").read_bytes()).hexdigest()
    assert digest == S_RUN_SEED0_GOLDEN


# SHA-256 of run_D10_seed3.json from `optimize --objective D --evals 2000
# --seed 3` on 32 cards, which the rewrites of the variation operators, the
# validity check and the dominance matrix to compute less kept, re-pinned
# when the spread factors came to be raised by np.float_power.  Unlike the
# 8x2 D4 run of the golden experiment, these runs check 32-card offspring.
D_RUN_GOLDEN = {
    4: "3b9ffe904c19bb6d1ca4a7c3d82072b5d32336a6f33beb43e018adb050934291",
    3: "ba7949b550d52d92ce68406f0588115ce7c057f49d95e3f73176127dd97fd187",
}


@pytest.mark.parametrize("categories", list(D_RUN_GOLDEN))
def test_dominance_run_matches_golden_bytes(tmp_path, capsys, categories):
    run_cli(
        capsys,
        "optimize", "--objective", "D", "--evals", 2000, "--seed", 3,
        "--categories", categories, "--out", tmp_path,
    )
    digest = hashlib.sha256((tmp_path / "run_D10_seed3.json").read_bytes()).hexdigest()
    assert digest == D_RUN_GOLDEN[categories]


# SHA-256 of three outputs of simulated games on the 32x4 deck, re-pinned
# when B deals came to be drawn by sorting random keys.  5,000 games and the
# sample size 4,100 cross the 4,096-game chunk.
GAMES_GOLDEN = {
    "simulate": "47b17f3ec6e5a6a3b9a56077b5625ea4a2fe940b53049df56763029438457452",
    "sample-size": "c66d72a1cac546c29138708232829edc6cda6ffc90abe632032a7855545676ae",
    "optimize": "2be8d4fefb74d0621d1f7a73b575434593aaabb47986cbe17860669484077c33",
}


def test_simulated_games_match_golden_bytes(deck_file, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(deck_file.parent)  # the simulate record names its deck path
    outputs = {
        "simulate": run_cli(
            capsys, "simulate", "--deck", deck_file.name, "--games", 5000, "--seed", 5
        ).encode()
    }
    run_cli(
        capsys,
        "sample-size", "--deck", deck_file, "--sizes", "30,4100", "--repeats", 2,
        "--seed", 2, "--out", tmp_path / "table.csv",
    )
    outputs["sample-size"] = (tmp_path / "table.csv").read_bytes()
    run_cli(
        capsys,
        "optimize", "--objective", "B", "--evals", 40, "--games", 300, "--seed", 3,
        "--out", tmp_path,
    )
    outputs["optimize"] = (tmp_path / "run_B10_seed3.json").read_bytes()
    digests = {key: hashlib.sha256(data).hexdigest() for key, data in outputs.items()}
    assert digests == GAMES_GOLDEN


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

    def test_values_from_joint_normalization(self, tmp_path, capsys):
        # Fronts and reference set share one [1, 2] map fitted on all their
        # points, so the rows equal the indicators of the mapped sets and do
        # not change when every file is rescaled by the same affine map.
        rng = np.random.default_rng(9)
        # FrontSet drops dominated points, as reading a front file does.
        fronts = [FrontSet(rng.uniform(0, 50, size=(4, 2)) + 20 * i).points for i in range(2)]
        ref = FrontSet(rng.uniform(0, 40, size=(3, 2))).points
        transform = fit_normalize_transform(np.vstack([*fronts, ref]))
        norm_ref = FrontSet(transform.apply(ref))
        expected = [
            indicator_block(FrontSet(transform.apply(points)), norm_ref) for points in fronts
        ]
        rows = {}
        for scale, shift in ((1.0, 0.0), (7.0, -3.0)):
            for i, points in enumerate(fronts):
                write_front_csv(FrontSet(scale * points + shift), tmp_path / f"front_{i}.csv")
            write_front_csv(FrontSet(scale * ref + shift), tmp_path / "ref.csv")
            out = run_cli(
                capsys,
                "indicators", "--fronts", str(tmp_path / "front_*.csv"),
                "--refset", tmp_path / "ref.csv",
            )
            rows[scale] = [
                [float(cell) for cell in line.split(",")[1:]]
                for line in out.strip().splitlines()[1:]
            ]
        assert rows[1.0] == [[b["hv"], b["eps"], b["r2"]] for b in expected]
        assert np.allclose(rows[7.0], rows[1.0], rtol=1e-9, atol=1e-12)

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


# SHA-256 of the eight default 32x4 reference decks, read in file-name order.
MAKE_DECKS_32X4_GOLDEN = "9d83b4e97432c62c37e5abdf914848be738fabccf310503b9be2b43a9744d510"


class TestMakeDecks:
    def test_decks_written_and_loadable(self, tmp_path, capsys):
        run_cli(capsys, "make-decks", "--out", tmp_path / "decks")
        files = sorted((tmp_path / "decks").glob("*.csv"))
        assert len(files) == 8
        deck = load_deck(files[0])
        assert deck.shape.K == 32

    def test_default_decks_match_golden_bytes(self, tmp_path, capsys):
        run_cli(capsys, "make-decks", "--out", tmp_path / "decks")
        digest = hashlib.sha256()
        for path in sorted((tmp_path / "decks").glob("*.csv")):
            digest.update(path.read_bytes())
        assert digest.hexdigest() == MAKE_DECKS_32X4_GOLDEN

    def test_decks_of_another_shape(self, tmp_path, capsys):
        out = run_cli(
            capsys, "make-decks", "--out", tmp_path / "decks", "--cards", 8, "--categories", 2
        )
        assert out.startswith("wrote 8 synthetic reference decks")
        files = sorted((tmp_path / "decks").glob("*.csv"))
        assert [path.stem for path in files] == [f"synthetic_{i:02d}" for i in range(1, 9)]
        decks = [load_deck(path, DeckShape(K=8, L=2)) for path in files]
        assert all(deck_is_valid(deck).valid for deck in decks)
        assert [dominating_pair_count(deck) for deck in decks] == [1, 15, 15, 15, 13, 13, 13, 13]


def no_run(config):
    raise AssertionError(f"a run started with a bad setting: {config}")


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

    def test_simulate_oversized_games_fails_before_allocation(self, deck_file, capsys):
        # 2**50 games of 32 cards are 2**58 bytes of deals, more than any
        # address space holds, so the bound is all that stands before numpy.
        err = self.fails(capsys, "simulate", "--deck", deck_file, "--games", 2**50)
        assert err.startswith(f"trumpbench simulate: {2**50} games of 32 cards need")

    def test_optimize_oversized_games_fails_before_any_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "execute_run", no_run)
        err = self.fails(
            capsys,
            "optimize", "--objective", "B", "--games", 2**50, "--evals", 20, "--out", tmp_path / "x",
        )
        assert err.startswith(f"trumpbench optimize: {2**50} games of 32 cards need")
        assert not (tmp_path / "x").exists()

    def test_simulate_missing_deck(self, tmp_path, capsys):
        err = self.fails(capsys, "simulate", "--deck", tmp_path / "absent.csv")
        assert err.startswith("trumpbench simulate: ")
        assert "absent.csv" in err

    def test_sample_size_rejects_size_one_before_simulating(self, deck_file, capsys, monkeypatch):
        def no_games(*args, **kwargs):
            raise AssertionError("simulated before the sizes were checked")

        monkeypatch.setattr("trumpbench.experiments.draw_deals", no_games)
        err = self.fails(capsys, "sample-size", "--deck", deck_file, "--sizes", "30,1")
        assert err.startswith("trumpbench sample-size: every sample size must be at least 2")

    @pytest.mark.parametrize(
        "setting, message",
        [(("--sizes", ""), "need at least one sample size"), (("--alpha", 1.5), "alpha must lie in (0, 1)")],
        ids=["no-size", "alpha-1.5"],
    )
    def test_sample_size_bad_argument_fails_before_simulating(
        self, deck_file, tmp_path, capsys, monkeypatch, setting, message
    ):
        def no_games(*args, **kwargs):
            raise AssertionError("simulated before the arguments were checked")

        monkeypatch.setattr("trumpbench.experiments.draw_deals", no_games)
        err = self.fails(
            capsys, "sample-size", "--deck", deck_file, *setting, "--out", tmp_path / "table.csv"
        )
        assert err.startswith(f"trumpbench sample-size: {message}")
        assert not (tmp_path / "table.csv").exists()

    def test_eaf_glob_without_match(self, tmp_path, capsys):
        err = self.fails(
            capsys,
            "eaf", "--group-a", str(tmp_path / "a_*.csv"), "--group-b", str(tmp_path / "b_*.csv"),
            "--out", tmp_path / "eaf",
        )
        assert err.startswith("trumpbench eaf: no front files match")
        assert not (tmp_path / "eaf").exists()

    @pytest.mark.parametrize(
        "setting, message",
        [
            (("--permutations", 0), "need at least one permutation"),
            (("--level", 0), "level must lie in (0, 1]"),
            (("--alpha", 1.5), "alpha must lie in (0, 1)"),
            (("--alpha", "nan"), "alpha must lie in (0, 1)"),
            # 2**60 float64 null statistics are more bytes than numpy can address.
            (("--permutations", 2**60), f"{2**60} permutations are more than the"),
        ],
    )
    def test_eaf_bad_argument_writes_nothing(self, tmp_path, capsys, setting, message):
        TestEafCommand().make_groups(tmp_path)
        err = self.fails(
            capsys,
            "eaf", "--group-a", str(tmp_path / "a_*.csv"), "--group-b", str(tmp_path / "b_*.csv"),
            *setting, "--out", tmp_path / "eaf",
        )
        assert err.startswith(f"trumpbench eaf: {message}")
        assert not (tmp_path / "eaf").exists()

    def test_indicators_glob_without_match(self, tmp_path, capsys):
        err = self.fails(
            capsys,
            "indicators", "--fronts", str(tmp_path / "front_*.csv"),
            "--refset", tmp_path / "ref.csv",
        )
        assert err.startswith("trumpbench indicators: no front files match")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("bad", ["front", "ref"])
    def test_indicators_reject_a_non_finite_point(self, tmp_path, capsys, value, bad):
        for name in ("front", "ref"):
            point = value if name == bad else "1.2"
            (tmp_path / f"{name}.csv").write_text(f"f1,f2\n1.0,1.5\n{point},1.1\n")
        err = self.fails(
            capsys,
            "indicators", "--fronts", str(tmp_path / "front.csv"), "--refset", tmp_path / "ref.csv",
        )
        assert err == f"trumpbench indicators: {tmp_path / bad}.csv, line 3: non-finite value\n"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_eaf_rejects_a_non_finite_point_and_writes_nothing(self, tmp_path, capsys, value):
        TestEafCommand().make_groups(tmp_path)
        (tmp_path / "b_1.csv").write_text(f"f1,f2\n0.5,{value}\n")
        err = self.fails(
            capsys,
            "eaf", "--group-a", str(tmp_path / "a_*.csv"), "--group-b", str(tmp_path / "b_*.csv"),
            "--out", tmp_path / "eaf",
        )
        assert err == f"trumpbench eaf: {tmp_path / 'b_1.csv'}, line 2: non-finite value\n"
        assert not (tmp_path / "eaf").exists()

    def test_make_decks_of_unrealizable_shape_writes_nothing(self, tmp_path, capsys):
        # One category cannot keep the chains of dominating cards apart.
        err = self.fails(
            capsys, "make-decks", "--out", tmp_path / "decks", "--cards", 8, "--categories", 1
        )
        assert err.startswith("trumpbench make-decks: no reference decks of 8 cards x 1 categories")
        assert "two categories" in err
        assert not (tmp_path / "decks").exists()

    def test_make_decks_with_infinite_bound_writes_nothing(self, tmp_path, capsys):
        err = self.fails(capsys, "make-decks", "--out", tmp_path / "decks", "--hi", "inf")
        assert err.startswith("trumpbench make-decks: lo and hi must be finite")
        assert not (tmp_path / "decks").exists()

    @pytest.mark.parametrize(
        "setting, message",
        [
            (("--hi", "inf"), "lo and hi must be finite"),
            (("--lo=-inf",), "lo and hi must be finite"),
            (("--ocd-var-limit", "nan"), "var_limit must be positive"),
        ],
        ids=["hi-inf", "lo-minus-inf", "var-limit-nan"],
    )
    def test_optimize_non_finite_setting_fails_before_any_run(
        self, tmp_path, capsys, monkeypatch, setting, message
    ):
        monkeypatch.setattr(cli, "execute_run", no_run)
        err = self.fails(
            capsys, "optimize", "--objective", "S", *setting, "--out", tmp_path / "x"
        )
        assert err.startswith(f"trumpbench optimize: {message}")
        assert not (tmp_path / "x").exists()

    def test_optimize_negative_seed_fails_before_any_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "execute_run", no_run)
        err = self.fails(capsys, "optimize", "--objective", "D", "--seed", -1, "--out", tmp_path / "x")
        assert err == "trumpbench optimize: seed must be non-negative, got -1\n"
        assert not (tmp_path / "x").exists()

    def test_simulate_odd_card_count_names_the_deck(self, tmp_path, capsys):
        path = tmp_path / "odd.csv"
        path.write_text("name,a,b\nc1,1,2\nc2,2,1\nc3,3,3\n")
        err = self.fails(capsys, "simulate", "--deck", path)
        assert err == f"trumpbench simulate: {path}: K must be a positive even integer, got 3\n"

    def test_indicators_front_of_other_objective_count_names_both_files(self, tmp_path, capsys):
        write_front_csv(FrontSet(np.array([[1.0, 2.0], [2.0, 1.0]])), tmp_path / "front.csv")
        write_front_csv(FrontSet(np.array([[1.0, 2.0, 3.0]])), tmp_path / "ref.csv")
        err = self.fails(
            capsys,
            "indicators", "--fronts", str(tmp_path / "front.csv"), "--refset", tmp_path / "ref.csv",
        )
        assert err == (
            f"trumpbench indicators: {tmp_path / 'front.csv'}: 2 objectives, "
            f"but the reference {tmp_path / 'ref.csv'} has 3\n"
        )

    @pytest.mark.parametrize(
        "odd, message",
        [
            (["b_1"], "fronts disagree on objective count: {b_0} has 2, {b_1} has 3"),
            (["b_0", "b_1", "b_2"], "groups must share the objective count: {a_0} has 2, {b_0} has 3"),
        ],
        ids=["one-front", "one-group"],
    )
    def test_eaf_front_of_other_objective_count_names_the_files(self, tmp_path, capsys, odd, message):
        TestEafCommand().make_groups(tmp_path)
        for name in odd:
            write_front_csv(FrontSet(np.full((1, 3), 0.5)), tmp_path / f"{name}.csv")
        err = self.fails(
            capsys,
            "eaf", "--group-a", str(tmp_path / "a_*.csv"), "--group-b", str(tmp_path / "b_*.csv"),
            "--out", tmp_path / "eaf",
        )
        paths = {name: tmp_path / f"{name}.csv" for name in ("a_0", "b_0", "b_1")}
        assert err == f"trumpbench eaf: {message.format(**paths)}\n"
        assert not (tmp_path / "eaf").exists()

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

    def test_optimize_out_of_range_variation_fails_before_any_run(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "execute_run", no_run)
        err = self.fails(
            capsys,
            "optimize", "--objective", "D", "--mu", 4, "--evals", 60, "--cards", 8,
            "--categories", 2, "--pm", -1, "--pc", 5, "--eta-c", -3, "--out", tmp_path / "x",
        )
        assert err.startswith("trumpbench optimize: pc must lie in [0, 1]")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"approaches": "S1, D4"}, "approach S1: population size must be at least 2"),
            ({"evals": 4}, "approach D4: evaluation budget must exceed the population size"),
            ({"l": 1}, "approach D4: no valid deck exists"),
            ({"pm": 2}, "pm must be auto or lie in [0, 1]"),
        ],
    )
    def test_experiment_bad_run_setting_fails_before_any_run(
        self, tmp_path, capsys, monkeypatch, setting, message
    ):
        monkeypatch.setattr("trumpbench.experiments.execute_run", no_run)
        values = {"approaches": "D4", "k": 8, "l": 2, "out": tmp_path / "out", **setting}
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        err = self.fails(capsys, "experiment", "--config", cfg)
        assert err.startswith(f"trumpbench experiment: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "report, message",
        [
            ('{"config_hash": "0123456789abcdef"}', "holds experiment 0123456789abcdef"),
            ("{", "cannot read the config hash of"),
        ],
    )
    def test_experiment_into_another_report_fails_before_any_run(
        self, tmp_path, capsys, monkeypatch, report, message
    ):
        monkeypatch.setattr("trumpbench.experiments.execute_run", no_run)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "report.json").write_text(report)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"approaches = D4\nk = 8\nl = 2\nevals = 60\nout = {tmp_path / 'out'}\n")
        err = self.fails(capsys, "experiment", "--config", cfg)
        assert err.startswith("trumpbench experiment: ")
        assert message in err
        assert [path.name for path in (tmp_path / "out").iterdir()] == ["report.json"]

    def test_experiment_into_an_unfinished_experiment_fails_before_any_run(
        self, tmp_path, capsys, monkeypatch
    ):
        # A D4 experiment that died before its report left one run behind.
        monkeypatch.setattr("trumpbench.experiments.execute_run", no_run)
        out = tmp_path / "out2"
        leftover = out / "runs" / "D4" / "run_000.json"
        leftover.parent.mkdir(parents=True)
        leftover.write_text("{}")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"approaches = S4\nruns = 2\nk = 8\nl = 2\nevals = 60\nout = {out}\n")
        err = self.fails(capsys, "experiment", "--config", cfg)
        assert err.startswith(f"trumpbench experiment: output directory {out} holds {out / 'runs'}")
        assert sorted(path for path in out.rglob("*") if path.is_file()) == [leftover]

    def test_experiment_oversized_permutations_fail_before_any_run(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr("trumpbench.experiments.execute_run", no_run)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "approaches = D4, S4\nruns = 2\nk = 8\nl = 2\nevals = 60\n"
            f"permutations = 1000000000000\nout = {tmp_path / 'out'}\n"
        )
        err = self.fails(capsys, "experiment", "--config", cfg)
        assert err.startswith("trumpbench experiment: 1000000000000 permutations are more than the")
        assert not (tmp_path / "out").exists()

    def test_experiment_without_approaches_fails_before_any_run(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"approaches =\nk = 8\nl = 2\nout = {tmp_path / 'out'}\n")
        err = self.fails(capsys, "experiment", "--config", cfg)
        assert err.startswith("trumpbench experiment: need at least one approach")
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

    def test_experiment_reference_decks_of_another_shape_fail_before_any_run(
        self, tmp_path, capsys
    ):
        run_cli(capsys, "make-decks", "--out", tmp_path / "decks")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"approaches = D4\nk = 8\nl = 2\nout = {tmp_path / 'out'}\n")
        err = self.fails(
            capsys,
            "experiment", "--config", cfg, "--reference-decks", str(tmp_path / "decks" / "*.csv"),
        )
        assert err.startswith(f"trumpbench experiment: {tmp_path / 'decks' / 'synthetic_01.csv'}")
        assert "32 cards x 4 categories, expected 8 x 2" in err
        assert not (tmp_path / "out" / "runs").exists()


def package_env() -> dict:
    """The environment of a fresh interpreter that imports this package's sources."""
    src = Path(cli.__file__).resolve().parents[1]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


def test_start_up_does_not_import_scipy_stats():
    # Importing scipy.stats takes most of a fresh process's start-up, and
    # the package needs only the t quantile scipy.special computes; only a
    # fresh interpreter shows what an import pulls in.
    env = package_env()
    probe = (
        "import sys, trumpbench.cli, trumpbench.experiments; "
        "sys.stdout.write(' '.join(m for m in sorted(sys.modules) if m.split('.')[:2] == ['scipy', 'stats']))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout
    assert out == ""


SCIPY_SPECIAL_PROBE = """
import json, os, sys
import numpy as np
from trumpbench import cli, deck, eaf, experiments, game, indicators, moea, objectives
from trumpbench.indicators import FrontSet, write_front_csv

os.chdir(sys.argv[1])
rng = np.random.default_rng(3)
for name in ("a_0", "a_1", "b_0", "b_1", "ref"):
    write_front_csv(FrontSet(rng.uniform(1, 2, size=(4, 2))), name + ".csv")
commands = [
    ["make-decks", "--out", "decks"],
    ["simulate", "--deck", "decks/synthetic_01.csv", "--games", "100"],
    ["indicators", "--fronts", "a_*.csv", "--refset", "ref.csv"],
    ["eaf", "--group-a", "a_*.csv", "--group-b", "b_*.csv", "--permutations", "50", "--out", "eaf"],
    ["optimize", "--objective", "D", "--evals", "200", "--out", "runs"],
    ["optimize", "--objective", "S", "--evals", "300", "--out", "runs"],
    ["optimize", "--objective", "B", "--evals", "150", "--games", "100", "--out", "runs"],
]
sys.modules["scipy"] = None  # any scipy import now raises ImportError
codes = [cli.main(argv) for argv in commands]
del sys.modules["scipy"]
before = sorted(m for m in sys.modules if m.split(".")[:2] == ["scipy", "special"])
from trumpbench import stats
values = [stats.t_quantile(0.95, 8)]
loaded = "scipy.special" in sys.modules
from scipy import stats as sps
print(json.dumps({"codes": codes, "before": before, "loaded": loaded,
                  "equal": values == [sps.t.ppf(0.95, 8)]}))
"""


def test_only_a_quantile_imports_scipy_special(tmp_path):
    # scipy.special costs a fresh process ~0.1 s and ~24 MB, and only
    # ci_halfwidth needs it: the package's modules (those the benchmark
    # workloads import among them) must not load it, and the first quantile
    # must.  The commands compute no quantile, and OCD's tests take
    # closed-form tails in stdlib math, so the commands import no scipy
    # module at all, S and B runs to full OCD windows (10 generations of 10
    # evaluations) among them: the probe blocks scipy while they run.
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_SPECIAL_PROBE, str(tmp_path)],
        env=package_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record == {"codes": [0] * 7, "before": [], "loaded": True, "equal": True}
