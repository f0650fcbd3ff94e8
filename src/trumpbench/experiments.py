"""Experiment orchestration, from finished runs to artifacts in one pass.

:func:`run_experiment` runs every approach's optimizer repeatedly, then
plays the decks of each run on one set of deals for the balance objectives.
From those points alone it derives the joint normalization onto [1, 2],
each approach's front and attainment surface, indicator tables with
confidence intervals and ranks, the pairwise attainment tests and the set
relations.  Any reference decks are played on the same deals, so they are
placed among the fronts without sampling noise of their own.  The report
is built once from the results and written once.

Both strict verdicts, which sets strictly dominate which in
``set_relations`` and which fronts strictly dominate a reference deck in
``dominated_by``, are an additive epsilon below 0: ε = max_b min_a
max_j (a_j − b_j) < 0 exactly when every point b has a point a with
a_j < b_j in every objective.  For finite doubles a_j − b_j < 0 exactly
when a_j < b_j, so the verdicts are exact, not a tolerance.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import itertools
import json
from collections.abc import Sequence
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from trumpbench.deck import Deck, DeckShape, format_table, genome_to_deck, write_table
from trumpbench.eaf import (
    EAFTestResult,
    RunGroup,
    attainment_surface,
    check_permutations,
    eaf_test,
)
from trumpbench.game import Policy, check_games, draw_deals, play_deals, simulate, simulate_deals
from trumpbench.indicators import (
    FrontSet,
    NormalizeTransform,
    eps_indicator,
    fit_normalize_transform,
    indicator_block,
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
from trumpbench.stats import ci_halfwidth

BALANCE_METRICS = ("win_rate", "announcer_changes", "tightness")
POLICIES = (Policy.INFORMED, Policy.RANGE_ONLY)


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
    """Processes of the pool every run goes through; it starts at most
    ``min(workers, runs)`` of them, runs counted over all approaches."""
    variation: VariationParams = field(default_factory=VariationParams)
    ocd: OCDParams = field(default_factory=OCDParams)
    surface_level: float = 0.5
    permutations: int = 2_000
    alpha: float = 0.05

    def __post_init__(self) -> None:
        if not self.approaches:
            raise ValueError("need at least one approach")
        if self.runs < 1:
            raise ValueError("need at least one run per approach")
        # Every experiment replays its fronts on one deal table of games deals.
        check_games(self.shape.K, self.games)
        if not 0.0 < self.surface_level <= 1.0:
            raise ValueError("surface_level must lie in (0, 1]")
        check_permutations(self.permutations)
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.workers < 1:
            raise ValueError("need at least one worker")
        labels = [a.label for a in self.approaches]
        if len(labels) != len(set(labels)):
            raise ValueError(f"approach labels must be unique, got {labels}")
        # Runs of one approach differ only in their seed, so its first run's
        # settings stand for all of them.
        for approach in self.approaches:
            try:
                self.run_config(approach, 0)
            except ValueError as exc:
                raise ValueError(f"approach {approach.label}: {exc}") from None

    def config_hash(self) -> str:
        """Hash of every setting that can change the results; where the
        artifacts go and how many workers produce them are left out."""
        payload = _plain_dict(self)
        del payload["output_dir"], payload["workers"]
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    @property
    def surface_tag(self) -> str:
        """The surface level in percent, as artifact names give it: 50 at 0.5."""
        return f"{100 * self.surface_level:g}"

    def run_config(self, approach: Approach, run_idx: int) -> EAConfig:
        """Optimizer settings of one run, already checked by ``__post_init__``."""
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


def make_evaluator(kind: ObjectiveKind, shape: DeckShape, games: int):
    """Evaluator for the optimizers: D and S objective values, B games.  Only
    B draws: its simulation noise comes from the per-evaluation generator
    the run loop hands in, and the D and S callables, which the run loop
    hands None, ignore it."""
    if kind is ObjectiveKind.DOMINANCE:
        return lambda deck, rng: dominance_fitness(deck).values
    if kind is ObjectiveKind.SURROGATE:
        return lambda deck, rng: surrogate_objectives(deck, shape).values
    if kind is ObjectiveKind.BALANCE:
        return lambda deck, rng: simulate(deck, POLICIES, games, rng)
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
        "seed": config.seed,
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


@dataclass(frozen=True)
class ApproachResult:
    """One approach's runs and what the analysis derived from them; the
    derived fields stay None when none of its runs finished."""

    approach: Approach
    errors: list[str]
    run_artifacts: list[dict]
    run_points: list[np.ndarray] | None = None  # raw re-evaluated triples, per run
    front_normalized: FrontSet | None = None
    surface_normalized: FrontSet | None = None
    indicators_front: dict | None = None
    indicators_surface: dict | None = None
    ci_halfwidths: dict | None = None
    rank_front: int | None = None
    rank_surface: int | None = None

    @property
    def complete(self) -> bool:
        return not self.errors

    @property
    def union_points(self) -> np.ndarray | None:
        return None if self.run_points is None else np.vstack(self.run_points)

    def to_json_dict(self, surface_tag: str) -> dict:
        arts = self.run_artifacts
        return {
            "complete": self.complete,
            "errors": self.errors,
            "runs": len(arts),
            "seeds": [art["seed"] for art in arts],
            "n_evals": [art["n_evals"] for art in arts],
            "stop_reasons": [art["stop_reason"] for art in arts],
            "union_size": None if self.run_points is None else sum(map(len, self.run_points)),
            "front": None
            if self.front_normalized is None
            else self.front_normalized.points.tolist(),
            f"surface{surface_tag}": None
            if self.surface_normalized is None
            else self.surface_normalized.points.tolist(),
            "indicators_front": self.indicators_front,
            "indicators_surface": self.indicators_surface,
            "ci_halfwidths": self.ci_halfwidths,
            "rank_front": self.rank_front,
            "rank_surface": self.rank_surface,
        }


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    evaluation_seed: int  # of the one deal table every deck in the report plays
    approaches: dict[str, ApproachResult]
    transform: NormalizeTransform | None = None
    reference_front: np.ndarray | None = None
    eaf_tests: dict[str, EAFTestResult] = field(default_factory=dict)
    set_relations: list[dict] = field(default_factory=list)
    reference_decks: list[dict] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "config_hash": self.config.config_hash(),
            "master_seed": self.config.master_seed,
            "evaluation_seed": self.evaluation_seed,
            "runs_per_approach": self.config.runs,
            "games_per_evaluation": self.config.games,
            "normalization": None
            if self.transform is None
            else {"lo": self.transform.lo.tolist(), "span": self.transform.span.tolist()},
            "reference_front": None
            if self.reference_front is None
            else self.reference_front.tolist(),
            "approaches": {
                label: self.approaches[label].to_json_dict(self.config.surface_tag)
                for label in sorted(self.approaches)
            },
            "eaf_tests": {
                key: dataclasses.asdict(t) for key, t in sorted(self.eaf_tests.items())
            },
            "set_relations": self.set_relations,
            "reference_decks": self.reference_decks,
        }


def _balance(deck: Deck, deals: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Balance objectives of ``deck`` played on ``deals``."""
    return balance_objectives(simulate_deals(deck, POLICIES, deals)).values


def _reevaluate_run(
    artifact: dict, kind: ObjectiveKind, shape: DeckShape, deals: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Balance objectives of the decks one run contributes, each played on
    ``deals``: the front of a multi-objective run, the first member of the
    dominance baseline's front, which lists its best fitness oldest first."""
    front = artifact["front"]
    individuals = front[:1] if kind is ObjectiveKind.DOMINANCE else front
    return np.array([_balance(genome_to_deck(ind["genome"], shape), deals) for ind in individuals])


def _ranks(blocks: list[dict]) -> list[int]:
    """Non-dominated sorting ranks of indicator blocks, 1 = best."""
    return [int(r) for r in nondominated_sort(np.array([list(b.values()) for b in blocks]))]


def _check_output_dir(config: ExperimentConfig) -> None:
    """Raise ValueError unless ``config.output_dir`` holds no artifacts, or
    artifacts with a report of ``config``.  ``report.json`` is written last,
    so artifacts without it are an unfinished experiment of unknown config."""
    out = Path(config.output_dir)
    path = out / "report.json"
    if not path.exists():
        for leftover in (out / "runs", out / "fronts", out / "indicators.csv"):
            if leftover.exists():
                raise ValueError(
                    f"output directory {config.output_dir} holds {leftover} but no report.json "
                    "of the experiment that wrote it; choose another directory"
                )
        return
    try:
        found = json.loads(path.read_text(encoding="utf-8"))["config_hash"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"cannot read the config hash of {path}: {describe_error(exc)}") from None
    if found != config.config_hash():
        raise ValueError(
            f"output directory {config.output_dir} holds experiment {found}, "
            f"not {config.config_hash()}; choose another directory"
        )


def run_experiment(
    config: ExperimentConfig, reference_decks: Sequence[tuple[str, Deck]] = ()
) -> ExperimentReport:
    """Run every approach, analyze the runs, place the named reference
    decks on the games the fronts were replayed on and, if an output
    directory is configured, write all artifacts.

    A bad setting raises ValueError before any run starts: building
    ``config`` checked every run's settings, and a reference deck of another
    shape than ``config.shape`` is rejected here, as is an output directory
    whose ``report.json`` another config wrote or no one can read, or that
    holds artifacts without a report, since the files of that experiment
    would stay beside this one's.  A run that starts and fails is recorded
    in its approach's ``errors``, which marks the approach incomplete; the
    other runs and the analysis go on.  Every run goes through one process
    pool of at most ``min(workers, runs)`` processes, so a run that kills
    its process fails that run, not the experiment."""
    for name, deck in reference_decks:
        if deck.shape != config.shape:
            raise ValueError(f"reference deck {name} has shape {deck.shape}, not {config.shape}")
    if config.output_dir is not None:
        _check_output_dir(config)
    jobs = [
        (approach, config.run_config(approach, run_idx))
        for approach in config.approaches
        for run_idx in range(config.runs)
    ]

    # Runs are submitted one by one, so a worker that dies (the pool is
    # then broken) fails the runs it takes down, not the experiment. The
    # pool starts all its processes up front, so it gets no more than runs.
    with ProcessPoolExecutor(max_workers=min(config.workers, len(jobs))) as pool:
        futures = [_submit(pool, job) for _, job in jobs]
        outcomes = [_outcome(future) for future in futures]

    results = {a.label: ApproachResult(a, [], []) for a in config.approaches}
    for (approach, job), (artifact, error) in zip(jobs, outcomes):
        if error is not None:
            results[approach.label].errors.append(f"seed {job.seed}: {error}")
        else:
            results[approach.label].run_artifacts.append(artifact)

    evaluation_seed = derive_seed(config.master_seed, "balance-reevaluation")
    deals = draw_deals(config.shape.K, config.games, np.random.default_rng(evaluation_seed))
    report = _analyze(config, evaluation_seed, deals, results)
    report = dataclasses.replace(report, reference_decks=_place_reference_decks(reference_decks, deals, report))
    if config.output_dir is not None:
        write_report_artifacts(report, Path(config.output_dir))
    return report


def _analyze(
    config: ExperimentConfig, evaluation_seed: int, deals: tuple[np.ndarray, np.ndarray],
    results: dict[str, ApproachResult],
) -> ExperimentReport:
    """The report of the runs in ``results``, without reference decks: the
    decks of every approach with finished runs are replayed on ``deals``,
    and everything else is derived from those points."""
    run_points = {
        label: [_reevaluate_run(art, slot.approach.kind, config.shape, deals) for art in slot.run_artifacts]
        for label, slot in results.items()
        if slot.run_artifacts
    }
    if not run_points:
        return ExperimentReport(config, evaluation_seed, results)
    labels = sorted(run_points)
    transform = fit_normalize_transform(np.vstack([np.vstack(r) for r in run_points.values()]))
    normalized = {label: [transform.apply(p) for p in run_points[label]] for label in labels}
    unions = {label: np.vstack(normalized[label]) for label in labels}
    reference = FrontSet(np.vstack(list(unions.values())), "reference")

    fronts = {label: FrontSet(unions[label], f"{label}_p") for label in labels}
    groups = {
        label: RunGroup(
            tuple(FrontSet(pts, f"{label}_run{idx}") for idx, pts in enumerate(normalized[label])),
            label,
        )
        for label in labels
    }
    surfaces = {label: attainment_surface(groups[label], config.surface_level) for label in labels}
    front_blocks = [indicator_block(fronts[label], reference) for label in labels]
    surface_blocks = [indicator_block(surfaces[label], reference) for label in labels]
    approaches = dict(results)
    for label, front_block, surface_block, rank_front, rank_surface in zip(
        labels, front_blocks, surface_blocks, _ranks(front_blocks), _ranks(surface_blocks)
    ):
        run_blocks = [indicator_block(fs, reference) for fs in groups[label].fronts]
        approaches[label] = dataclasses.replace(
            results[label],
            run_points=run_points[label],
            front_normalized=fronts[label],
            surface_normalized=surfaces[label],
            indicators_front=front_block,
            indicators_surface=surface_block,
            # Each indicator's confidence-interval halfwidth over the runs; None for one run.
            ci_halfwidths={
                key: ci_halfwidth([b[key] for b in run_blocks], config.alpha) if len(run_blocks) >= 2 else None
                for key in run_blocks[0]
            },
            rank_front=rank_front,
            rank_surface=rank_surface,
        )

    eaf_tests = {
        f"{la}_vs_{lb}": eaf_test(
            groups[la],
            groups[lb],
            permutations=config.permutations,
            alpha=config.alpha,
            seed=derive_seed(config.master_seed, "eaf", la, lb),
        )
        for la, lb in itertools.combinations(labels, 2)
        if len(groups[la]) >= 2 and len(groups[lb]) >= 2
    }

    named_sets: dict[str, FrontSet] = {}
    for label in labels:
        named_sets[f"{label}_p"] = fronts[label]
        named_sets[f"{label}_{config.surface_tag}"] = surfaces[label]
    set_relations = [
        {"dominator": name_a, "dominated": name_b}
        for name_a, name_b in itertools.permutations(sorted(named_sets), 2)
        if eps_indicator(named_sets[name_a], named_sets[name_b]) < 0
    ]
    return ExperimentReport(
        config, evaluation_seed, approaches, transform=transform, reference_front=reference.points,
        eaf_tests=eaf_tests, set_relations=set_relations,
    )


def _place_reference_decks(
    decks: Sequence[tuple[str, Deck]], deals: tuple[np.ndarray, np.ndarray], report: ExperimentReport
) -> list[dict]:
    """Evaluate external decks on ``deals``, the games the fronts of
    ``report`` were replayed on, and record which approaches' fronts
    strictly dominate them: those that need an additive epsilon below 0 to
    cover the deck, which for finite points is exactly strict dominance."""
    entries: list[dict] = []
    for name, deck in decks:
        try:
            balance = _balance(deck, deals)
            entry = {
                "name": name,
                "dominance_fitness": float(dominance_fitness(deck).values[0]),
                "balance": balance.tolist(),
            }
            if report.transform is not None:
                norm = report.transform.apply(balance)[0]
                entry["normalized"] = norm.tolist()
                entry["dominated_by"] = sorted(
                    label
                    for label, slot in report.approaches.items()
                    if slot.front_normalized is not None and eps_indicator(slot.front_normalized, norm) < 0
                )
            entries.append(entry)
        except Exception as exc:
            entries.append({"name": name, "error": describe_error(exc)})
    return entries


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
        if slot.run_points is not None:
            fronts = out_dir / "fronts"
            union = FrontSet(slot.union_points, f"{label}_union")
            write_front_csv(union, fronts / f"{label}_union.csv")
            write_front_csv(slot.front_normalized, fronts / f"{label}_front.csv")
            surface = f"{label}_surface{report.config.surface_tag}.csv"
            write_front_csv(slot.surface_normalized, fronts / surface)
    _write_indicator_csv(report, out_dir / "indicators.csv")
    (out_dir / "report.json").write_text(
        json.dumps(report.to_json_dict(), indent=1, sort_keys=True), encoding="utf-8"
    )


def _write_indicator_csv(report: ExperimentReport, path: Path) -> None:
    keys = ("hv", "eps", "r2")
    rows = []
    for label in sorted(report.approaches):
        slot = report.approaches[label]
        if slot.run_points is None:
            continue
        for suffix, block, rank in (
            ("_p", slot.indicators_front, slot.rank_front),
            (f"_{report.config.surface_tag}", slot.indicators_surface, slot.rank_surface),
        ):
            values = [block[k] for k in keys] + [slot.ci_halfwidths[k] for k in keys]
            rows.append([f"{label}{suffix}", *("" if v is None else v for v in values), str(rank)])
    write_table(path, "set,hv,eps,r2,hv_ci,eps_ci,r2_ci,rank".split(","), rows)


def balance_metric_study(deck: Deck, sizes: list[int], repeats: int, alpha: float, seed: int) -> str:
    """Accuracy study of the three balance metrics on one deck, as CSV text.

    Each repeat plays one fresh batch of games per size, from which all
    three per-game metrics take their t-interval halfwidth. The text has
    the header ``size,metric,halfwidth_q95`` and one line per size and
    metric, in ``BALANCE_METRICS`` order, holding the .95 quantile of the
    halfwidths over the repeats.
    """
    if repeats < 2:
        raise ValueError("need at least two repeats")
    if not sizes:
        raise ValueError("need at least one sample size")
    if any(size < 2 for size in sizes):
        raise ValueError(f"every sample size must be at least 2, got {list(sizes)}")
    for size in sizes:
        check_games(deck.shape.K, size)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    n_tricks = deck.shape.K // 2
    rng = np.random.default_rng(np.random.SeedSequence((seed, 99)))
    table = []
    for size in sizes:
        widths = np.empty((len(BALANCE_METRICS), repeats))
        for r in range(repeats):
            tricks_a, tricks_b, changes = play_deals(deck, POLICIES, draw_deals(deck.shape.K, size, rng))
            rows = (tricks_a > tricks_b, changes, np.abs(2 * tricks_a - n_tricks))
            widths[:, r] = [ci_halfwidth(row, alpha) for row in rows]
        table += ([str(size), name, np.quantile(row, 0.95)] for name, row in zip(BALANCE_METRICS, widths))
    return format_table(["size", "metric", "halfwidth_q95"], table)
