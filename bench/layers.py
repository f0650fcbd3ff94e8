"""Traced mode: wrappers at the program's lookup sites, and the per-layer
metrics computed from the spans they record.

Each site is a (namespace, attribute) pair where a caller looks a function
up: ``experiments`` imports ``simulate`` by name, so the wrapper for the
game layer goes on ``experiments.simulate``.  Methods are wrapped on the
class that defines them.  A site the program no longer has is skipped and
reported, so the benchmark keeps running across refactors.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from spans import outermost, self_times, tail_percentile
from trumpbench import deck, eaf, experiments, hv, indicators, moea, objectives, ocd

HV_BANDS = ((1, 11), (12, 32), (33, 128), (129, None))
HV_DIMS = (2, 3, 4)
STEP_NAMES = ("job", "moea.step")
TAIL_SPANS = ("game.simulate", "hv.deck_volume", "hv.contributions", "moea.step", "ocd.generation")


def _band(n: int) -> str:
    for lo, hi in HV_BANDS:
        if hi is None:
            return f"n{lo}-up"
        if n <= hi:
            return f"n{lo}-{hi}"


def _volume_name(points, *args, **kwargs) -> str:
    n, m = np.shape(points)
    return f"hv.volume.m{m}.{_band(n)}"


def _games(deck_, policies, games, *args, **kwargs) -> int:
    return games


def _n_points(points, *args, **kwargs) -> int:
    return len(points)


def _archive_size(optimizer, *args, **kwargs) -> int:
    archive = getattr(getattr(optimizer, "tracker", None), "archive", None)
    return 0 if archive is None else len(archive)


def _memory_traced(tracer, name, fn):
    """Wrap ``fn`` in a span whose size is the tracemalloc peak in bytes."""

    def traced(*args, **kwargs):
        tracer.open(name)
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tracer.close(size=peak)

    return traced


def _sites():
    """(namespace, attribute, span name, size function) for every wrapped lookup."""
    volume = [(ns, "union_box_volume", _volume_name, _n_points) for ns in (hv, objectives, indicators)]
    return volume + [
        (experiments, "simulate", "game.simulate", _games),
        (objectives, "deck_hypervolume", "hv.deck_volume", None),
        (moea, "hv_contributions", "hv.contributions", _n_points),
        (moea.SmsEmoa, "step", "moea.step", None),
        (moea.SingleObjectiveEA, "step", "moea.step", None),
        (moea._RunState, "spawn_offspring", "moea.offspring", None),
        (moea, "sbx_crossover", "moea.sbx", None),
        (moea, "polynomial_mutation", "moea.mutation", None),
        (moea, "random_valid_deck", "moea.random_deck", None),
        (moea, "nondominated_sort", "moea.nondominated_sort", None),
        (moea._RunState, "assert_population_valid", "moea.population_check", None),
        (moea, "deck_is_valid", "deck.validity", None),
        (deck, "deck_is_valid", "deck.validity", None),
        (moea.SmsEmoa, "record_generation", "ocd.generation", _archive_size),
        (ocd, "hypervolume", "indicators.hypervolume", None),
        (indicators, "hypervolume", "indicators.hypervolume", None),
        (ocd, "eps_indicator", "indicators.eps", None),
        (indicators, "eps_indicator", "indicators.eps", None),
        (ocd, "r2_indicator", "indicators.r2", None),
        (indicators, "r2_indicator", "indicators.r2", None),
        (indicators, "prune_to_front", "indicators.prune", None),
    ]


MEMORY_SITES = ((eaf, "attainment_surface", "eaf.surface"), (eaf, "eaf_test", "eaf.test"))


class Installed:
    """Wrappers in place; ``remove`` puts the original functions back."""

    def __init__(self, tracer):
        self._saved = []
        self.missing = []
        for ns, attr, name, size in _sites():
            self._patch(ns, attr, lambda fn, name=name, size=size: tracer.wrap(name, fn, size))
        for ns, attr, name in MEMORY_SITES:
            self._patch(ns, attr, lambda fn, name=name: _memory_traced(tracer, name, fn))

    def _patch(self, ns, attr, make):
        original = vars(ns).get(attr)
        if original is None:
            self.missing.append(f"{getattr(ns, '__name__', ns)}.{attr}")
            return
        self._saved.append((ns, attr, original))
        setattr(ns, attr, make(original))

    def remove(self) -> None:
        for ns, attr, original in reversed(self._saved):
            setattr(ns, attr, original)
        self._saved.clear()


def layer_metrics(spans: np.ndarray, names: list[str], counters: dict) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced jobs.

    ``counters`` holds what the workload counted outside the spans: stop
    reasons, warnings, EAF grid cells and the traced and untraced walls.
    """
    name_of = np.array(names, dtype=object)[spans["name"]]
    dur = spans["t1"] - spans["t0"]
    ids = {int(sid): i for i, sid in enumerate(spans["id"])}
    parent_name = np.array(
        [name_of[ids[int(p)]] if int(p) in ids else "" for p in spans["parent"]], dtype=object
    )

    def sel(name, parent=None):
        mask = name_of == name
        return mask & (parent_name == parent) if parent is not None else mask

    def calls(name, parent=None) -> int:
        return int(sel(name, parent).sum())

    def busy(name, parent=None) -> float:
        return float(dur[sel(name, parent)].sum())

    def rate(count, seconds) -> float:
        return count / seconds if seconds > 0 else 0.0

    job_wall = busy("job")
    out: dict[str, float] = {}

    for name in TAIL_SPANS:
        samples = dur[sel(name)] * 1e3
        tail = tail_percentile(samples)
        out[f"{name}.p50_ms"] = float(np.median(samples)) if samples.size else 0.0
        out[f"{name}.tail_pct"], out[f"{name}.tail_ms"] = tail if tail else (0.0, 0.0)

    games = float(spans["size"][sel("game.simulate")].sum())
    out["game.simulate.calls"] = calls("game.simulate")
    out["game.simulate.busy_s"] = busy("game.simulate")
    out["game.games_per_s"] = rate(games, busy("game.simulate"))
    out["game.share"] = rate(float(dur[outermost(spans, names, "game.")].sum()), job_wall)

    for kind in ("balance", "surrogate", "dominance"):
        name = f"objectives.{kind}"
        out[f"{name}.evals_per_s"] = rate(calls(name), busy(name))

    out["hv.deck_volume.calls"] = calls("hv.deck_volume")
    out["hv.deck_volume.busy_s"] = busy("hv.deck_volume")
    out["hv.contributions.calls"] = calls("hv.contributions")
    out["hv.contributions.busy_s"] = busy("hv.contributions")
    sizes = spans["size"][sel("hv.contributions")]
    out["hv.contributions.mean_n"] = float(sizes.mean()) if sizes.size else 0.0
    for m in HV_DIMS:
        for lo, hi in HV_BANDS:
            name = f"hv.volume.m{m}.{_band(lo)}"
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.busy_s"] = busy(name)
    out["hv.share"] = rate(float(dur[outermost(spans, names, "hv.")].sum()), job_wall)

    step_self = self_times(spans)[sel("moea.step")]
    candidates = calls("moea.sbx", parent="moea.offspring")
    fallbacks = calls("moea.random_deck", parent="moea.offspring")
    out["moea.step.calls"] = calls("moea.step")
    out["moea.step.self_s"] = float(step_self.sum())
    out["moea.variation.busy_s"] = busy("moea.sbx") + busy("moea.mutation")
    out["moea.offspring.candidates"] = candidates
    out["moea.offspring.accept_ratio"] = rate(calls("moea.offspring") - fallbacks, candidates)
    out["moea.offspring.fallbacks"] = fallbacks
    out["moea.selection.busy_s"] = busy("moea.nondominated_sort", "moea.step") + busy(
        "hv.contributions", "moea.step"
    )
    out["moea.population_check.busy_s"] = busy("moea.population_check")

    out["deck.validity.calls"] = calls("deck.validity")
    out["deck.validity.busy_s"] = busy("deck.validity")

    archive = spans["size"][sel("ocd.generation")]
    out["ocd.generations"] = calls("ocd.generation")
    out["ocd.generation.busy_s"] = busy("ocd.generation")
    out["ocd.archive_size"] = float(archive.mean()) if archive.size else 0.0
    out["ocd.stop.converged"] = counters["stop_converged"]
    out["ocd.stop.budget"] = counters["stop_budget"]
    out["ocd.warnings"] = counters["warnings"]

    out["indicators.hypervolume.calls"] = calls("indicators.hypervolume")
    for name in ("hypervolume", "eps", "r2", "prune"):
        out[f"indicators.{name}.busy_s"] = busy(f"indicators.{name}")

    for name in ("surface", "test"):
        peaks = spans["size"][sel(f"eaf.{name}")]
        out[f"eaf.{name}.busy_s"] = busy(f"eaf.{name}")
        out[f"eaf.{name}.peak_mb"] = float(peaks.max()) / 2**20 if peaks.size else 0.0
    out["eaf.grid_cells"] = counters["grid_cells"]

    untraced = counters["untraced_wall_s"]
    out["trace.jobs"] = calls("job")
    out["trace.job_wall_s"] = job_wall
    out["trace.spans"] = int(spans.size)
    out["trace.overhead_share"] = rate(job_wall - untraced, untraced)
    return out
