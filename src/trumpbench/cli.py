"""Command-line interface.

Subcommands: simulate, optimize, experiment, indicators, eaf, sample-size,
make-decks.  Every command is deterministic given its seed; primary outputs
are reproduced byte for byte on re-runs.

Config-file keys and the setting flags of ``optimize`` and ``make-decks``
come from one table, ``SETTINGS``: a flag is ``--`` + key with ``_`` -> ``-``,
except ``--cards``/``--categories`` for the keys k/l.  A setting left out
takes the default of its config dataclass.

Each setting is checked once, by the config dataclass that holds it.  So a
bad setting, like a bad argument or an unreadable file, ends a command with
one ``trumpbench <command>: <message>`` line on stderr and exit status 1
before any run starts.  A run that starts and fails is reported by
``optimize`` as ``run failed: <error>`` (exit 1), and marks its approach
incomplete in an ``experiment`` report (exit 0).
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import json
import sys
from pathlib import Path

import numpy as np

from trumpbench.deck import DeckShape, format_table, load_deck, save_deck
from trumpbench.eaf import RunGroup, attainment_surface, eaf_test
from trumpbench.experiments import (
    Approach,
    ExperimentConfig,
    balance_metric_study,
    execute_run,
    run_experiment,
)
from trumpbench.game import Policy, simulate
from trumpbench.indicators import (
    FrontSet,
    fit_normalize_transform,
    indicator_block,
    read_front_csv,
    write_front_csv,
)
from trumpbench.moea import EAConfig, VariationParams
from trumpbench.objectives import ObjectiveKind
from trumpbench.ocd import OCDParams
from trumpbench.synth import synthetic_reference_decks

POLICY_PAIRS = {
    "p4p0": (Policy.INFORMED, Policy.RANGE_ONLY),
    "p0p0": (Policy.RANGE_ONLY, Policy.RANGE_ONLY),
}


def cmd_simulate(args) -> int:
    deck = load_deck(args.deck, rescale=args.rescale)
    policies = POLICY_PAIRS[args.policies]
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    summary = simulate(deck, policies, args.games, rng)
    a = args.policies[:2]  # player A's policy: p4 informed, p0 range-only
    record = {
        "deck": str(args.deck),
        "games": summary.games,
        "policies": args.policies,
        "seed": args.seed,
        f"win_rate_{a}": summary.win_rate_a,
        "draw_rate": summary.draw_rate,
        f"loss_rate_{a}": summary.loss_rate_a,
        "mean_announcer_changes": summary.mean_announcer_changes,
        "mean_tightness": summary.mean_tightness,
    }
    print(json.dumps(record, indent=1, sort_keys=True))
    return 0


def cmd_optimize(args) -> int:
    config = EAConfig(
        mu=args.mu,
        objective=ObjectiveKind(args.objective),
        seed=args.seed,
        **_config_kwargs(vars(args), RUN_SECTIONS),
    )
    artifact, error = execute_run(config)
    if error is not None:
        print(f"run failed: {error}", file=sys.stderr)
        return 1
    label = artifact["approach"]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"run_{label}_seed{config.seed}.json"
    path.write_text(json.dumps(artifact, indent=1), encoding="utf-8")
    print(
        f"{label}: {artifact['n_evals']} evaluations, stop={artifact['stop_reason']}, "
        f"front size {len(artifact['front'])} -> {path}"
    )
    return 0


def _parse_approaches(text: str) -> tuple[Approach, ...]:
    tokens = [t for t in text.replace(" ", "").split(",") if t]
    return tuple(Approach(ObjectiveKind(t[0].upper()), int(t[1:])) for t in tokens)


def _parse_pm(text: str) -> float | None:
    return None if text in ("", "auto") else float(text)


# Setting key -> (section, field, parser, help).  "run" fields are common to
# EAConfig and ExperimentConfig; "experiment" ones belong to ExperimentConfig.
SETTINGS = {
    "approaches": ("experiment", "approaches", _parse_approaches, "e.g. S10, D10, B10"),
    "runs": ("experiment", "runs", int, "runs per approach"),
    "seed": ("experiment", "master_seed", int, "master seed that every run seed derives from"),
    "out": ("experiment", "output_dir", str, "artifact directory"),
    "workers": ("experiment", "workers", int, "worker processes"),
    "surface_level": ("experiment", "surface_level", float, "attainment level of the surfaces"),
    "permutations": ("experiment", "permutations", int, "permutations of each EAF test"),
    "alpha": ("experiment", "alpha", float, "significance level of the tests"),
    "games": ("run", "games", int, "games per B evaluation"),
    "evals": ("run", "max_evals", int, "evaluation budget of a run"),
    "k": ("shape", "K", int, "cards per deck (K)"),
    "l": ("shape", "L", int, "categories per card (L)"),
    "lo": ("shape", "lo", float, "lower value bound"),
    "hi": ("shape", "hi", float, "upper value bound"),
    "pc": ("variation", "pc", float, "SBX crossover probability"),
    "pm": ("variation", "pm", _parse_pm, "mutation probability per gene; auto is 1/genes"),
    "eta_c": ("variation", "eta_c", float, "SBX distribution index"),
    "eta_m": ("variation", "eta_m", float, "polynomial mutation distribution index"),
    "ocd_window": ("ocd", "window", int, "OCD window in generations"),
    "ocd_var_limit": ("ocd", "var_limit", float, "OCD variance limit"),
    "ocd_alpha": ("ocd", "alpha", float, "OCD significance level"),
}
RUN_SECTIONS = ("run", "shape", "variation", "ocd")


def _config_kwargs(values: dict, sections=("experiment", *RUN_SECTIONS)) -> dict:
    """Keyword arguments of EAConfig or ExperimentConfig from the values of
    the settings of ``sections`` in ``values``, with the nested configs built."""
    found: dict[str, dict] = {s: {} for s in ("experiment", *RUN_SECTIONS)}
    for key, (section, name, *_) in SETTINGS.items():
        if key in values and section in sections:
            found[section][name] = values[key]
    return {
        **found["experiment"],
        **found["run"],
        "shape": DeckShape(**found["shape"]),
        "variation": VariationParams(**found["variation"]),
        "ocd": OCDParams(**found["ocd"]),
    }


def _add_setting_flags(parser: argparse.ArgumentParser, sections: tuple[str, ...]) -> None:
    """One flag per setting of ``sections``; a flag left out is absent from the namespace."""
    for key, (section, _, parse, text) in SETTINGS.items():
        if section in sections:
            flag = {"k": "--cards", "l": "--categories"}.get(key, "--" + key.replace("_", "-"))
            parser.add_argument(flag, dest=key, type=parse, default=argparse.SUPPRESS, help=text)


def parse_config_file(path) -> ExperimentConfig:
    """Flat key=value config; '#' starts a comment and keys ignore case.  Keys
    left out take the defaults of the config dataclasses; an unknown or
    repeated key or a value that does not parse is an error naming the file and line."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}, line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        name = key.lower()
        if name not in SETTINGS:
            raise ValueError(f"{path}, line {lineno}: unknown key {key!r}")
        if name in values:
            raise ValueError(f"{path}, line {lineno}: repeated key {key!r}")
        try:
            values[name] = SETTINGS[name][2](value)
        except ValueError as exc:
            raise ValueError(f"{path}, line {lineno}: invalid value for {key!r} ({exc})") from None
    return ExperimentConfig(**_config_kwargs(values))


def cmd_experiment(args) -> int:
    config = parse_config_file(args.config)
    if args.out is not None:
        config = dataclasses.replace(config, output_dir=args.out)
    decks = [
        (Path(path).stem, load_deck(path, shape=config.shape, rescale=args.rescale))
        for pattern in args.reference_decks
        for path in _matching_paths(pattern, "deck")
    ]
    report = run_experiment(config, decks)
    incomplete = [l for l, a in report.approaches.items() if not a.complete]
    status = "complete" if not incomplete else f"incomplete: {', '.join(incomplete)}"
    print(f"experiment {report.config.config_hash()} {status}")
    if config.output_dir is not None:
        print(f"artifacts in {config.output_dir}")
    return 0


def _matching_paths(pattern: str, kind: str) -> list[str]:
    paths = sorted(glob.glob(pattern))
    if not paths:
        raise FileNotFoundError(f"no {kind} files match {pattern}")
    return paths


def cmd_indicators(args) -> int:
    front_paths = _matching_paths(args.fronts, "front")
    fronts = [read_front_csv(p) for p in front_paths]
    refset = read_front_csv(args.refset, origin="reference")
    for path, fs in zip(front_paths, fronts):
        if fs.m != refset.m:
            raise ValueError(f"{path}: {fs.m} objectives, but the reference {args.refset} has {refset.m}")
    transform = fit_normalize_transform(np.vstack([fs.points for fs in fronts + [refset]]))
    norm_ref = FrontSet(transform.apply(refset.points))
    rows = []
    for path, fs in zip(front_paths, fronts):
        block = indicator_block(FrontSet(transform.apply(fs.points)), norm_ref)
        rows.append([path, block["hv"], block["eps"], block["r2"]])
    print(format_table(["front", "hv", "eps", "r2"], rows), end="")
    return 0


def _load_group(pattern: str, label: str) -> RunGroup:
    paths = _matching_paths(pattern, "front")
    return RunGroup(tuple(read_front_csv(p, origin=p) for p in paths), label)


def cmd_eaf(args) -> int:
    group_a = _load_group(args.group_a, "a")
    group_b = _load_group(args.group_b, "b")
    surface_a = attainment_surface(group_a, args.level)
    surface_b = attainment_surface(group_b, args.level)
    result = eaf_test(
        group_a, group_b, permutations=args.permutations, alpha=args.alpha, seed=args.seed
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_front_csv(surface_a, out_dir / "surface_a.csv")
    write_front_csv(surface_b, out_dir / "surface_b.csv")
    record = dataclasses.asdict(result)
    (out_dir / "eaf_test.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8"
    )
    print(json.dumps(record, indent=1, sort_keys=True))
    return 0


def cmd_sample_size(args) -> int:
    deck = load_deck(args.deck, rescale=args.rescale)
    sizes = [int(s) for s in args.sizes.split(",") if s]
    csv = balance_metric_study(deck, sizes, args.repeats, args.alpha, args.seed)
    if args.out is not None:
        Path(args.out).write_text(csv, encoding="utf-8")
    print(csv, end="")
    return 0


def cmd_make_decks(args) -> int:
    decks = synthetic_reference_decks(_config_kwargs(vars(args), ("shape",))["shape"])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, deck in decks:
        save_deck(deck, out_dir / f"{name}.csv")
    print(f"wrote 8 synthetic reference decks to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trumpbench",
        description="Generate, simulate and multi-objectively balance top-trumps decks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="Monte Carlo batch on one deck, JSON to stdout")
    p.add_argument("--deck", required=True)
    p.add_argument("--games", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policies", choices=sorted(POLICY_PAIRS), default="p4p0")
    p.add_argument("--rescale", action="store_true", help="rescale categories onto [lo, hi]")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("optimize", help="one optimizer run, artifact JSON to --out")
    p.add_argument("--objective", choices=["D", "B", "S"], required=True)
    p.add_argument("--mu", type=int, default=10)
    p.add_argument("--seed", type=int, default=EAConfig.seed)
    p.add_argument("--out", required=True)
    _add_setting_flags(p, RUN_SECTIONS)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("experiment", help="full multi-run pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override the config's output directory")
    p.add_argument("--reference-decks", nargs="*", default=[], help="deck CSV globs to place")
    p.add_argument("--rescale", action="store_true")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("indicators", help="quality indicators of front files vs a reference")
    p.add_argument("--fronts", required=True, help="glob of front CSV files")
    p.add_argument("--refset", required=True, help="reference front CSV")
    p.set_defaults(func=cmd_indicators)

    p = sub.add_parser("eaf", help="attainment surfaces and two-group permutation test")
    p.add_argument("--group-a", required=True)
    p.add_argument("--group-b", required=True)
    p.add_argument("--level", type=float, default=0.5)
    p.add_argument("--permutations", type=int, default=10000)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_eaf)

    p = sub.add_parser("sample-size", help="accuracy study of balance metrics on one deck")
    p.add_argument("--deck", required=True)
    p.add_argument("--sizes", default="100,500,1000,2000,5000,10000")
    p.add_argument("--repeats", type=int, default=500)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--rescale", action="store_true")
    p.set_defaults(func=cmd_sample_size)

    text = (
        "write the 8 synthetic reference decks as CSV; their dominated-pair targets, "
        "set for 32 cards, scale with K(K-1) to --cards"
    )
    p = sub.add_parser("make-decks", help=text, description=text)
    p.add_argument("--out", required=True)
    _add_setting_flags(p, ("shape",))
    p.set_defaults(func=cmd_make_decks)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; a bad argument or an unreadable or unwritable
    file ends it with one ``trumpbench <command>: <message>`` line on
    stderr and exit status 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"trumpbench {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
