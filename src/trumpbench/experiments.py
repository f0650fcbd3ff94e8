"""Experiment orchestration: repeated optimizer runs per approach, shared
re-evaluation of every collected deck under the simulation objectives,
joint normalization, indicator tables with confidence intervals,
attainment analysis, pairwise attainment tests and report artifacts."""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from trumpbench.deck import Deck, DeckShape, genome_to_deck
from trumpbench.eaf import EAFTestResult, RunGroup, attainment_surface, eaf_test, set_strictly_dominates
from trumpbench.game import Policy, play_random_games, simulate
from trumpbench.indicators import (
    IDEAL_MARGIN,
    REF_OFFSET,
    FrontSet,
    NormalizeTransform,
    eps_indicator,
    fit_normalize_transform,
    hv_indicator,
    r2_indicator,
    simplex_lattice_weights,
    write_front_csv,
)
from trumpbench.moea import (
    EAConfig,
    RunResult,
    VariationParams,
    nondominated_sort,
    sms_emoa_run,
    so_ea_run,
)
from trumpbench.objectives import (
    ObjectiveKind,
    balance_objectives,
    dominance_fitness,
    surrogate_objectives,
)
from trumpbench.ocd import OCDParams
from trumpbench.stats import SampleSizeTable, ci_halfwidth, sample_size_study

BALANCE_METRICS = ("win_rate", "announcer_changes", "tightness")


def _plain_dict(config) -> dict:
    """A config dataclass as nested JSON-ready dicts, enums as their value."""
    return dataclasses.asdict(
        config,
        dict_factory=lambda pairs: {
            key: value.value if isinstance(value, enum.Enum) else value for key, value in pairs
        },
    )


def describe_error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class Approach:
    """One optimizer configuration: objective kind plus population size."""

    kind: ObjectiveKind
    mu: int

    @property
    def label(self) -> str:
        return f"{self.kind.value}{self.mu}"


@dataclass(frozen=True)
class ExperimentConfig:
    approaches: tuple[Approach, ...] = (
        Approach(ObjectiveKind.SURROGATE, 10),
        Approach(ObjectiveKind.DOMINANCE, 10),
    )
    runs: int = 5
    games: int = 500
    shape: DeckShape = field(default_factory=DeckShape)
    master_seed: int = 0
    output_dir: str | None = None
    max_evals: int = 30_000
    workers: int = 1
    variation: VariationParams = field(default_factory=VariationParams)
    ocd: OCDParams = field(default_factory=OCDParams)
    surface_level: float = 0.5
    permutations: int = 2_000
    alpha: float = 0.05

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError("need at least one run per approach")
        if self.games < 1:
            raise ValueError("need at least one game per evaluation")
        if not 0.0 < self.surface_level <= 1.0:
            raise ValueError("surface_level must lie in (0, 1]")
        if self.permutations < 1:
            raise ValueError("need at least one permutation")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.workers < 1:
            raise ValueError("need at least one worker")
        labels = [a.label for a in self.approaches]
        if len(labels) != len(set(labels)):
            raise ValueError(f"approach labels must be unique, got {labels}")

    def config_hash(self) -> str:
        """Hash of every setting that can change the results; where the
        artifacts go and how many workers produce them are left out."""
        payload = _plain_dict(self)
        del payload["output_dir"], payload["workers"]
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def run_config(self, approach: Approach, run_idx: int) -> EAConfig:
        """Optimizer settings of one run; raises ValueError if they are invalid."""
        return EAConfig(
            mu=approach.mu,
            objective=approach.kind,
            shape=self.shape,
            variation=self.variation,
            max_evals=self.max_evals,
            seed=derive_seed(self.master_seed, approach.label, run_idx),
            ocd=self.ocd,
            games=self.games,
        )


def derive_seed(master_seed: int, *parts) -> int:
    """Stable 63-bit seed from the master seed and any string/int parts."""
    blob = json.dumps([master_seed, *[str(p) for p in parts]]).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1


def _balance(deck: Deck, games: int, rng: np.random.Generator) -> np.ndarray:
    """Balance objectives of ``deck`` from ``games`` informed vs range-only games."""
    summary = simulate(deck, (Policy.INFORMED, Policy.RANGE_ONLY), games, rng)
    return balance_objectives(summary).values


def make_evaluator(kind: ObjectiveKind, shape: DeckShape, games: int):
    """Objective callable for the optimizers; simulation noise uses the
    per-evaluation generator handed in by the run loop."""
    if kind is ObjectiveKind.DOMINANCE:
        return lambda deck, rng: dominance_fitness(deck).values
    if kind is ObjectiveKind.SURROGATE:
        return lambda deck, rng: surrogate_objectives(deck, shape).values
    if kind is ObjectiveKind.BALANCE:
        return lambda deck, rng: _balance(deck, games, rng)
    raise ValueError(f"unsupported objective kind: {kind}")


def run_to_artifact(result: RunResult, config: EAConfig) -> dict:
    """JSON-ready record of one optimizer run."""
    def individuals(items):
        return [
            {
                "genome": [float(x) for x in ind.genome],
                "objectives": [float(x) for x in ind.objectives],
                "eval_index": ind.eval_index,
            }
            for ind in items
        ]

    return {
        "approach": Approach(config.objective, config.mu).label,
        "config": _plain_dict(config),
        "seed": result.seed,
        "n_evals": result.n_evals,
        "stop_reason": result.stop_reason.value,
        "population": individuals(result.final_population),
        "front": individuals(result.front),
        "indicator_trace": list(result.indicator_trace),
    }


def execute_run(config: EAConfig) -> tuple[dict | None, str | None]:
    """Worker entry point: one optimization run as (artifact, None), or
    (None, error) if it failed; never raises."""
    try:
        evaluator = make_evaluator(config.objective, config.shape, config.games)
        optimize = so_ea_run if config.objective is ObjectiveKind.DOMINANCE else sms_emoa_run
        return run_to_artifact(optimize(config, evaluator), config), None
    except Exception as exc:  # reported per-run in the report
        return None, describe_error(exc)


def _submit(pool: ProcessPoolExecutor, config: EAConfig) -> Future:
    """One run in the pool; a pool that is already broken fails the run."""
    try:
        return pool.submit(execute_run, config)
    except BrokenProcessPool as exc:
        failed = Future()
        failed.set_exception(exc)
        return failed


def _outcome(future: Future) -> tuple[dict | None, str | None]:
    """The (artifact, error) of a submitted run; a run lost with its worker
    process is an error."""
    try:
        return future.result()
    except BrokenProcessPool as exc:
        return None, describe_error(exc)


@dataclass
class ApproachResult:
    approach: Approach
    complete: bool
    errors: list[str]
    run_artifacts: list[dict]
    collected_genomes: list[list[np.ndarray]]  # per run
    union_points: np.ndarray | None = None  # raw re-evaluated triples
    run_points: list[np.ndarray] | None = None
    front_normalized: FrontSet | None = None
    surface_normalized: FrontSet | None = None
    indicators_front: dict | None = None
    indicators_surface: dict | None = None
    ci_halfwidths: dict | None = None
    rank_front: int | None = None
    rank_surface: int | None = None

    def fail(self, seed: int, error: str) -> None:
        self.errors.append(f"seed {seed}: {error}")
        self.complete = False


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    evaluation_seed: int
    transform: NormalizeTransform | None
    reference_front: np.ndarray | None
    approaches: dict[str, ApproachResult]
    eaf_tests: dict[str, EAFTestResult]
    set_relations: list[dict]
    reference_decks: list[dict] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        out = {
            "config_hash": self.config.config_hash(),
            "master_seed": self.config.master_seed,
            "evaluation_seed": self.evaluation_seed,
            "runs_per_approach": self.config.runs,
            "games_per_evaluation": self.config.games,
            "normalization": None
            if self.transform is None
            else {
                "lo": [float(x) for x in self.transform.lo],
                "span": [float(x) for x in self.transform.span],
            },
            "reference_front": None
            if self.reference_front is None
            else [[float(x) for x in row] for row in self.reference_front],
            "approaches": {},
            "eaf_tests": {
                key: dataclasses.asdict(t) for key, t in sorted(self.eaf_tests.items())
            },
            "set_relations": self.set_relations,
            "reference_decks": self.reference_decks,
        }
        for label in sorted(self.approaches):
            a = self.approaches[label]
            out["approaches"][label] = {
                "complete": a.complete,
                "errors": a.errors,
                "runs": len(a.run_artifacts),
                "seeds": [art["seed"] for art in a.run_artifacts],
                "n_evals": [art["n_evals"] for art in a.run_artifacts],
                "stop_reasons": [art["stop_reason"] for art in a.run_artifacts],
                "union_size": None if a.union_points is None else int(len(a.union_points)),
                "front": None
                if a.front_normalized is None
                else [[float(x) for x in row] for row in a.front_normalized.points],
                "surface50": None
                if a.surface_normalized is None
                else [[float(x) for x in row] for row in a.surface_normalized.points],
                "indicators_front": a.indicators_front,
                "indicators_surface": a.indicators_surface,
                "ci_halfwidths": a.ci_halfwidths,
                "rank_front": a.rank_front,
                "rank_surface": a.rank_surface,
            }
        return out


def _collect_run_genomes(artifact: dict, kind: ObjectiveKind) -> list[np.ndarray]:
    """Decks one run contributes: the front for multi-objective runs, the
    single best individual for the dominance baseline."""
    if kind is ObjectiveKind.DOMINANCE:
        best = min(artifact["front"], key=lambda ind: (ind["objectives"][0], ind["eval_index"]))
        return [np.array(best["genome"])]
    return [np.array(ind["genome"]) for ind in artifact["front"]]


def reevaluate_genomes(
    genomes: list[np.ndarray],
    shape: DeckShape,
    games: int,
    evaluation_seed: int,
) -> np.ndarray:
    """Balance objectives for each deck under one shared game sample."""
    points = np.empty((len(genomes), 3))
    for i, genome in enumerate(genomes):
        rng = np.random.default_rng(np.random.SeedSequence(evaluation_seed))
        points[i] = _balance(genome_to_deck(genome, shape), games, rng)
    return points


def _indicator_block(front: FrontSet, refset: FrontSet) -> dict:
    """hv, eps and r2 of a front on the [1,2] scale against a reference set."""
    ref_point = np.full(refset.m, 2.0 + REF_OFFSET)
    weights = simplex_lattice_weights(refset.m)
    ideal = refset.points.min(axis=0) - IDEAL_MARGIN
    return {
        "hv": hv_indicator(front, refset, ref_point),
        "eps": eps_indicator(front, refset),
        "r2": r2_indicator(front, weights, ideal),
    }


def _assign_ranks(blocks: dict[str, dict]) -> dict[str, int]:
    """Non-dominated sorting ranks of (hv, eps, r2) triples, 1 = best."""
    labels = sorted(blocks)
    pts = np.array([[blocks[l]["hv"], blocks[l]["eps"], blocks[l]["r2"]] for l in labels])
    ranks = nondominated_sort(pts)
    return {l: int(r) for l, r in zip(labels, ranks)}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute the full pipeline and, if configured, write all artifacts."""
    by_label: dict[str, ApproachResult] = {
        a.label: ApproachResult(a, True, [], [], []) for a in config.approaches
    }
    jobs: list[tuple[ApproachResult, EAConfig]] = []
    for approach in config.approaches:
        slot = by_label[approach.label]
        for run_idx in range(config.runs):
            try:
                jobs.append((slot, config.run_config(approach, run_idx)))
            except ValueError as exc:
                seed = derive_seed(config.master_seed, approach.label, run_idx)
                slot.fail(seed, describe_error(exc))

    if config.workers > 1:
        # Runs are submitted one by one, so a worker that dies (the pool is
        # then broken) fails the runs it takes down, not the experiment.
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            futures = [_submit(pool, job) for _, job in jobs]
            outcomes = [_outcome(future) for future in futures]
    else:
        outcomes = [execute_run(job) for _, job in jobs]

    for (slot, job), (artifact, error) in zip(jobs, outcomes):
        if error is not None:
            slot.fail(job.seed, error)
        else:
            slot.run_artifacts.append(artifact)
            slot.collected_genomes.append(
                _collect_run_genomes(artifact, slot.approach.kind)
            )

    evaluation_seed = derive_seed(config.master_seed, "balance-reevaluation")
    for slot in by_label.values():
        if not slot.run_artifacts:
            continue
        run_points = [
            reevaluate_genomes(genomes, config.shape, config.games, evaluation_seed)
            for genomes in slot.collected_genomes
        ]
        slot.run_points = run_points
        slot.union_points = np.vstack(run_points)

    report = ExperimentReport(
        config=config,
        evaluation_seed=evaluation_seed,
        transform=None,
        reference_front=None,
        approaches=by_label,
        eaf_tests={},
        set_relations=[],
    )
    _analyze(report)
    if config.output_dir is not None:
        write_report_artifacts(report, Path(config.output_dir))
    return report


def _analyze(report: ExperimentReport) -> None:
    config = report.config
    usable = {l: s for l, s in report.approaches.items() if s.union_points is not None}
    if not usable:
        return

    all_points = np.vstack([s.union_points for s in usable.values()])
    transform = fit_normalize_transform(all_points)
    report.transform = transform
    reference = FrontSet(transform.apply(all_points), "reference")
    report.reference_front = reference.points

    front_blocks: dict[str, dict] = {}
    surface_blocks: dict[str, dict] = {}
    groups: dict[str, RunGroup] = {}
    for label, slot in usable.items():
        union_norm = transform.apply(slot.union_points)
        slot.front_normalized = FrontSet(union_norm, f"{label}_p")
        run_fronts = tuple(
            FrontSet(transform.apply(pts), f"{label}_run{idx}")
            for idx, pts in enumerate(slot.run_points)
        )
        groups[label] = RunGroup(run_fronts, label)
        slot.surface_normalized = attainment_surface(groups[label], config.surface_level)
        slot.indicators_front = _indicator_block(slot.front_normalized, reference)
        slot.indicators_surface = _indicator_block(slot.surface_normalized, reference)
        per_run = {
            "hv": [], "eps": [], "r2": [],
        }
        for fs in run_fronts:
            block = _indicator_block(fs, reference)
            for key in per_run:
                per_run[key].append(block[key])
        slot.ci_halfwidths = {
            key: (ci_halfwidth(vals, config.alpha).halfwidth if len(vals) >= 2 else None)
            for key, vals in per_run.items()
        }
        front_blocks[label] = slot.indicators_front
        surface_blocks[label] = slot.indicators_surface

    for label, rank in _assign_ranks(front_blocks).items():
        usable[label].rank_front = rank
    for label, rank in _assign_ranks(surface_blocks).items():
        usable[label].rank_surface = rank

    labels = sorted(usable)
    for i, la in enumerate(labels):
        for lb in labels[i + 1 :]:
            if len(groups[la]) < 2 or len(groups[lb]) < 2:
                continue
            test_seed = derive_seed(config.master_seed, "eaf", la, lb)
            report.eaf_tests[f"{la}_vs_{lb}"] = eaf_test(
                groups[la],
                groups[lb],
                permutations=config.permutations,
                alpha=config.alpha,
                seed=test_seed,
            )

    named_sets: dict[str, np.ndarray] = {}
    for label, slot in usable.items():
        named_sets[f"{label}_union"] = transform.apply(slot.union_points)
        named_sets[f"{label}_p"] = slot.front_normalized.points
        named_sets[f"{label}_{config.surface_level:g}"] = slot.surface_normalized.points
    for name_a in sorted(named_sets):
        for name_b in sorted(named_sets):
            if name_a == name_b:
                continue
            if set_strictly_dominates(named_sets[name_a], named_sets[name_b]):
                report.set_relations.append(
                    {"dominator": name_a, "dominated": name_b}
                )


def compare_to_reference_decks(
    decks: list[tuple[str, Deck]],
    report: ExperimentReport,
    games: int,
    seed: int,
) -> ExperimentReport:
    """Evaluate external decks under the shared pipeline and record how they
    relate to each approach's front."""
    entries: list[dict] = []
    for name, deck in decks:
        try:
            balance = _balance(deck, games, np.random.default_rng(np.random.SeedSequence(seed)))
            entry = {
                "name": name,
                "dominance_fitness": float(dominance_fitness(deck).values[0]),
                "balance": [float(x) for x in balance],
            }
            if report.transform is not None:
                norm = report.transform.apply(balance.reshape(1, -1))[0]
                entry["normalized"] = [float(x) for x in norm]
                entry["dominated_by"] = sorted(
                    label
                    for label, slot in report.approaches.items()
                    if slot.front_normalized is not None
                    and bool(np.any(np.all(slot.front_normalized.points < norm, axis=1)))
                )
            entries.append(entry)
        except Exception as exc:
            entries.append({"name": name, "error": f"{type(exc).__name__}: {exc}"})
    return dataclasses.replace(report, reference_decks=report.reference_decks + entries)


def write_report_artifacts(report: ExperimentReport, out_dir: Path) -> None:
    out_dir = Path(out_dir)
    (out_dir / "runs").mkdir(parents=True, exist_ok=True)
    (out_dir / "fronts").mkdir(parents=True, exist_ok=True)
    for label in sorted(report.approaches):
        slot = report.approaches[label]
        run_dir = out_dir / "runs" / label
        run_dir.mkdir(parents=True, exist_ok=True)
        for idx, artifact in enumerate(slot.run_artifacts):
            path = run_dir / f"run_{idx:03d}.json"
            path.write_text(json.dumps(artifact, indent=1), encoding="utf-8")
        if slot.union_points is not None:
            write_front_csv(
                FrontSet(slot.union_points, f"{label}_union"),
                out_dir / "fronts" / f"{label}_union.csv",
            )
        if slot.front_normalized is not None:
            write_front_csv(slot.front_normalized, out_dir / "fronts" / f"{label}_front.csv")
        if slot.surface_normalized is not None:
            write_front_csv(
                slot.surface_normalized, out_dir / "fronts" / f"{label}_surface50.csv"
            )
    _write_indicator_csv(report, out_dir / "indicators.csv")
    write_report_json(report, out_dir)


def write_report_json(report: ExperimentReport, out_dir: Path) -> None:
    (Path(out_dir) / "report.json").write_text(
        json.dumps(report.to_json_dict(), indent=1, sort_keys=True), encoding="utf-8"
    )


def _write_indicator_csv(report: ExperimentReport, path: Path) -> None:
    lines = ["set,hv,eps,r2,hv_ci,eps_ci,r2_ci,rank"]
    for label in sorted(report.approaches):
        slot = report.approaches[label]
        if slot.indicators_front is None:
            continue
        ci = slot.ci_halfwidths or {}

        def fmt(value):
            return "" if value is None else repr(float(value))

        for suffix, block, rank in (
            ("_p", slot.indicators_front, slot.rank_front),
            ("_50", slot.indicators_surface, slot.rank_surface),
        ):
            lines.append(
                ",".join(
                    [
                        f"{label}{suffix}",
                        repr(float(block["hv"])),
                        repr(float(block["eps"])),
                        repr(float(block["r2"])),
                        fmt(ci.get("hv")),
                        fmt(ci.get("eps")),
                        fmt(ci.get("r2")),
                        str(rank),
                    ]
                )
            )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def balance_metric_study(
    deck: Deck,
    sizes: list[int],
    repeats: int,
    alpha: float,
    seed: int,
) -> SampleSizeTable:
    """Accuracy study of the three balance metrics on one deck.

    Each repeat simulates one fresh batch per size, from which all three
    metrics take their t-interval halfwidth; rows hold the .95 quantile
    over repeats.
    """
    n_tricks = deck.shape.K // 2

    def sampler(size: int, rng: np.random.Generator) -> np.ndarray:
        tricks_a, tricks_b, changes = play_random_games(
            deck, (Policy.INFORMED, Policy.RANGE_ONLY), size, rng
        )
        return np.array(
            [tricks_a > tricks_b, changes, np.abs(2 * tricks_a - n_tricks)], dtype=float
        )

    rng = np.random.default_rng(np.random.SeedSequence((seed, 99)))
    return sample_size_study(sampler, sizes, repeats, alpha, rng, metric=BALANCE_METRICS)
