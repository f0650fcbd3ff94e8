"""Command-line interface.

Subcommands: simulate, optimize, experiment, indicators, eaf, sample-size,
make-decks.  Every command is deterministic given its seed; primary outputs
are reproduced byte for byte on re-runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import json
import sys
from pathlib import Path

import numpy as np

from trumpbench.deck import DeckShape, load_deck, save_deck
from trumpbench.eaf import RunGroup, attainment_surface, eaf_test
from trumpbench.experiments import (
    Approach,
    ExperimentConfig,
    balance_metric_study,
    describe_error,
    execute_run,
    run_experiment,
)
from trumpbench.game import Policy, simulate
from trumpbench.indicators import indicator_block, normalize_sets, read_front_csv, write_front_csv
from trumpbench.moea import EAConfig, VariationParams
from trumpbench.objectives import ObjectiveKind
from trumpbench.ocd import OCDParams
from trumpbench.synth import synthetic_reference_decks

POLICY_PAIRS = {
    "p4p0": (Policy.INFORMED, Policy.RANGE_ONLY),
    "p0p0": (Policy.RANGE_ONLY, Policy.RANGE_ONLY),
}


def _shape_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cards", type=int, default=DeckShape.K, help="cards per deck (K)")
    parser.add_argument(
        "--categories", type=int, default=DeckShape.L, help="categories per card (L)"
    )
    parser.add_argument("--lo", type=float, default=DeckShape.lo, help="lower value bound")
    parser.add_argument("--hi", type=float, default=DeckShape.hi, help="upper value bound")


def _shape_from(args) -> DeckShape:
    return DeckShape(K=args.cards, L=args.categories, lo=args.lo, hi=args.hi)


def cmd_simulate(args) -> int:
    deck = load_deck(args.deck, rescale=args.rescale)
    policies = POLICY_PAIRS[args.policies]
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    summary = simulate(deck, policies, args.games, rng)
    record = {
        "deck": str(args.deck),
        "games": summary.games,
        "policies": args.policies,
        "seed": args.seed,
        "win_rate_p4": summary.win_rate_a,
        "draw_rate": summary.draw_rate,
        "loss_rate_p4": summary.loss_rate_a,
        "mean_announcer_changes": summary.mean_announcer_changes,
        "mean_tightness": summary.mean_tightness,
    }
    print(json.dumps(record, indent=1, sort_keys=True))
    return 0


def cmd_optimize(args) -> int:
    try:
        config = EAConfig(
            mu=args.mu,
            objective=ObjectiveKind(args.objective),
            shape=_shape_from(args),
            variation=VariationParams(pc=args.pc, eta_c=args.eta_c, eta_m=args.eta_m),
            max_evals=args.evals,
            seed=args.seed,
            ocd=OCDParams(
                window=args.ocd_window, var_limit=args.ocd_var_limit, alpha=args.ocd_alpha
            ),
            games=args.games,
        )
    except ValueError as exc:
        artifact, error = None, describe_error(exc)
    else:
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


# Config-file key -> (nested config the value belongs to, field name, parser).
CONFIG_KEYS = {
    "approaches": ("experiment", "approaches", _parse_approaches),
    "runs": ("experiment", "runs", int),
    "games": ("experiment", "games", int),
    "seed": ("experiment", "master_seed", int),
    "out": ("experiment", "output_dir", str),
    "evals": ("experiment", "max_evals", int),
    "workers": ("experiment", "workers", int),
    "surface_level": ("experiment", "surface_level", float),
    "permutations": ("experiment", "permutations", int),
    "alpha": ("experiment", "alpha", float),
    "k": ("shape", "K", int),
    "l": ("shape", "L", int),
    "lo": ("shape", "lo", float),
    "hi": ("shape", "hi", float),
    "pc": ("variation", "pc", float),
    "pm": ("variation", "pm", _parse_pm),
    "eta_c": ("variation", "eta_c", float),
    "eta_m": ("variation", "eta_m", float),
    "ocd_window": ("ocd", "window", int),
    "ocd_var_limit": ("ocd", "var_limit", float),
    "ocd_alpha": ("ocd", "alpha", float),
}


def parse_config_file(path) -> ExperimentConfig:
    """Flat key=value config; '#' starts a comment.  Keys left out take the
    defaults of the config dataclasses; an unknown key or a value that does
    not parse is an error naming the file and line."""
    found: dict[str, dict] = {"experiment": {}, "shape": {}, "variation": {}, "ocd": {}}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}, line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.lower() not in CONFIG_KEYS:
            raise ValueError(f"{path}, line {lineno}: unknown key {key!r}")
        section, name, parse = CONFIG_KEYS[key.lower()]
        try:
            found[section][name] = parse(value)
        except ValueError as exc:
            raise ValueError(f"{path}, line {lineno}: invalid value for {key!r} ({exc})") from None
    return ExperimentConfig(
        **found["experiment"],
        shape=DeckShape(**found["shape"]),
        variation=VariationParams(**found["variation"]),
        ocd=OCDParams(**found["ocd"]),
    )


def cmd_experiment(args) -> int:
    config = parse_config_file(args.config)
    if args.out is not None:
        config = dataclasses.replace(config, output_dir=args.out)
    decks = [
        (Path(path).stem, load_deck(path, rescale=args.rescale))
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
    normalized, _ = normalize_sets(fronts + [refset])
    norm_fronts, norm_ref = normalized[:-1], normalized[-1]
    lines = ["front,hv,eps,r2"]
    for path, fs in zip(front_paths, norm_fronts):
        block = indicator_block(fs, norm_ref)
        lines.append(",".join([path, repr(block["hv"]), repr(block["eps"]), repr(block["r2"])]))
    print("\n".join(lines))
    return 0


def _load_group(pattern: str, label: str) -> RunGroup:
    paths = _matching_paths(pattern, "front")
    return RunGroup(tuple(read_front_csv(p, origin=p) for p in paths), label)


def cmd_eaf(args) -> int:
    group_a = _load_group(args.group_a, "a")
    group_b = _load_group(args.group_b, "b")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    surface_a = attainment_surface(group_a, args.level)
    surface_b = attainment_surface(group_b, args.level)
    write_front_csv(surface_a, out_dir / "surface_a.csv")
    write_front_csv(surface_b, out_dir / "surface_b.csv")
    result = eaf_test(
        group_a, group_b, permutations=args.permutations, alpha=args.alpha, seed=args.seed
    )
    record = dataclasses.asdict(result)
    (out_dir / "eaf_test.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8"
    )
    print(json.dumps(record, indent=1, sort_keys=True))
    return 0


def cmd_sample_size(args) -> int:
    deck = load_deck(args.deck, rescale=args.rescale)
    sizes = [int(s) for s in args.sizes.split(",") if s]
    table = balance_metric_study(deck, sizes, args.repeats, args.alpha, args.seed)
    if args.out is not None:
        table.write_csv(args.out)
    print(table.to_csv(), end="")
    return 0


def cmd_make_decks(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    shape = _shape_from(args)
    for name, deck in synthetic_reference_decks(shape):
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
    p.add_argument("--evals", type=int, default=EAConfig.max_evals)
    p.add_argument("--seed", type=int, default=EAConfig.seed)
    p.add_argument("--out", required=True)
    p.add_argument("--games", type=int, default=EAConfig.games, help="games per B evaluation")
    p.add_argument("--pc", type=float, default=VariationParams.pc)
    p.add_argument("--eta-c", type=float, default=VariationParams.eta_c)
    p.add_argument("--eta-m", type=float, default=VariationParams.eta_m)
    p.add_argument("--ocd-window", type=int, default=OCDParams.window)
    p.add_argument("--ocd-var-limit", type=float, default=OCDParams.var_limit)
    p.add_argument("--ocd-alpha", type=float, default=OCDParams.alpha)
    _shape_args(p)
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

    p = sub.add_parser("make-decks", help="write the synthetic reference decks as CSV")
    p.add_argument("--out", required=True)
    _shape_args(p)
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
