"""Tests of the benchmark's own arithmetic and of its correctness gate.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import SPAN_DTYPE, Tracer, outermost, self_times, tail_percentile  # noqa: E402
from trumpbench import deck, eaf, game, objectives  # noqa: E402


def make_spans(rows):
    """rows: (name id, id, parent, t0, t1)."""
    return np.array([(n, i, p, -1, t0, t1, 0.0) for n, i, p, t0, t1 in rows], dtype=SPAN_DTYPE)


class TestPercentileRule:
    def test_thousand_samples_give_p99(self):
        samples = np.arange(1, 1001, dtype=float)
        assert tail_percentile(samples) == (99.0, 990.0)

    def test_hundred_samples_give_p90(self):
        samples = np.arange(1, 101, dtype=float)[::-1]
        assert tail_percentile(samples) == (90.0, 90.0)

    def test_ten_thousand_samples_give_p99_9(self):
        assert tail_percentile(np.arange(10_000, dtype=float)) == (99.9, 9989.0)

    def test_median_needs_ten_beyond(self):
        assert tail_percentile(np.arange(20, dtype=float)) == (50.0, 9.0)
        assert tail_percentile(np.arange(19, dtype=float)) is None
        assert tail_percentile([]) is None


class TestSelfTime:
    def test_children_subtracted_once_and_clipped(self):
        spans = make_spans(
            [
                (0, 0, -1, 0.0, 10.0),
                (1, 1, 0, 1.0, 3.0),
                (1, 2, 0, 2.0, 4.0),  # overlaps the first child
                (1, 3, 0, 9.0, 12.0),  # runs past the parent's end
                (2, 4, 1, 1.5, 2.5),  # grandchild: only its parent's time
            ]
        )
        assert self_times(spans) == pytest.approx([6.0, 1.0, 2.0, 3.0, 1.0])

    def test_leaf_self_time_is_duration(self):
        spans = make_spans([(0, 7, -1, 2.0, 2.5)])
        assert self_times(spans) == pytest.approx([0.5])

    def test_outermost_skips_nested_spans_of_the_layer(self):
        names = ["hv.contributions", "hv.volume.m2.n1-11", "moea.step"]
        spans = make_spans(
            [
                (2, 0, -1, 0.0, 10.0),
                (0, 1, 0, 1.0, 5.0),
                (1, 2, 1, 2.0, 3.0),
                (1, 3, 0, 6.0, 7.0),
            ]
        )
        assert outermost(spans, names, "hv.").tolist() == [False, True, False, True]


class TestTracer:
    def test_wrapped_calls_nest_and_share_steps(self):
        tracer = Tracer(step_names=("step",))
        inner = tracer.wrap("inner", lambda x: x + 1, size=lambda x: x)
        outer = tracer.wrap("step", lambda x: inner(x) * 2)
        assert outer(3) == 8
        assert outer(4) == 10
        spans = tracer.spans()
        names = [tracer.names[n] for n in spans["name"]]
        assert names == ["step", "inner", "step", "inner"]
        assert spans["parent"].tolist() == [-1, 0, -1, 2]
        assert spans["step"].tolist() == [0, 0, 2, 2]
        assert spans["size"].tolist() == [0.0, 3.0, 0.0, 4.0]

    def test_installed_wrappers_are_removed(self):
        original = game.simulate
        from trumpbench import experiments

        before = experiments.simulate
        installed = layers.Installed(Tracer())
        assert experiments.simulate is not before
        assert installed.missing == []
        installed.remove()
        assert experiments.simulate is before
        assert game.simulate is original


class TestGate:
    def test_passes_on_the_program(self):
        inputs = workloads.gate_inputs(np.random.default_rng(0))
        attempted, failed, failures = workloads.run_gate(inputs)
        assert attempted == 4 * workloads.GATE_DEALS + workloads.GATE_HV_DECKS
        assert (failed, failures) == (0, [])

    def test_rejects_perturbed_hypervolume(self):
        values = deck.random_valid_deck(workloads.SHAPE, np.random.default_rng(1)).values
        exact = objectives.deck_hypervolume(values)
        reference = gate.reference_union_volume(values)
        assert gate.check_close(exact, reference, "hv") == []
        assert gate.check_close(exact * (1 + 1e-6), reference, "hv") != []

    def test_reference_volume_small_case(self):
        # Two unit-overlapping boxes: 2*1 + 1*2 - 1*1.
        assert gate.reference_union_volume([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx(3.0)

    def test_rejects_flipped_trick_result(self):
        rng = np.random.default_rng(2)
        d = deck.Deck(rng.integers(1, 11, size=(32, 4)).astype(float), workloads.SHAPE)
        policies = (game.Policy.INFORMED, game.Policy.RANGE_ONLY)
        for _ in range(50):
            perm = rng.permutation(32)
            hand_a, hand_b = perm[:16].tolist(), perm[16:].tolist()
            result = game.play_game(d, game.Deal(tuple(hand_a), tuple(hand_b), game.Player.A), policies)
            if result.tricks_a != result.tricks_b:
                break
        expected = gate.reference_game(d.values, hand_a, hand_b, True, (True, False), 1.0, 10.0)
        assert gate.check_game(result, expected, "deal") == []
        flipped = dataclasses.replace(result, tricks_a=result.tricks_b, tricks_b=result.tricks_a)
        assert gate.check_game(flipped, expected, "deal") != []

    def test_rejects_inconsistent_eaf_decision(self):
        result = eaf.EAFTestResult(0.5, 0.4, 0.01, 100, 0.05, reject=False)
        assert gate.check_eaf_test(result, "eaf") != []
        assert gate.check_eaf_test(dataclasses.replace(result, reject=True), "eaf") == []
        assert gate.check_eaf_test(dataclasses.replace(result, p_value=1.5, reject=False), "eaf") != []


class TestSpec:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_per_layer_metrics_match_the_traced_output(self):
        counters = dict.fromkeys(
            ("stop_converged", "stop_budget", "warnings", "grid_cells", "untraced_wall_s"), 0
        )
        measured = layers.layer_metrics(np.zeros(0, SPAN_DTYPE), [], counters)
        assert sorted(measured) == sorted(m["name"] for m in self.spec["per_layer"])

    def test_every_layer_is_mapped_to_workloads(self):
        layer_map = json.loads((HERE / "layers.json").read_text())
        workload_names = {w["name"] for w in self.spec["workloads"]}
        prefixes = {m["name"].split(".")[0] for m in self.spec["per_layer"]}
        assert prefixes == set(layer_map) - {"_doc"}
        for layer in prefixes:
            entry = layer_map[layer]
            assert set(entry["on"]) | set(entry["no_work_on"]) <= workload_names
            assert set(entry["moves"]) <= {m["name"] for m in self.spec["end_to_end"]}
        assert workload_names == set(workloads.WORKLOADS)


class TestEndToEnd:
    def test_times_scale_with_the_calibration(self):
        ref = run.CALIBRATION_REF_S
        results = [
            {
                "calibrations": [2 * ref, 2 * ref, ref / 2],
                "peak_rss_mb": 100.0,
                "jobs": [
                    {"wall": 4.0, "evals": 10, "cal": 2 * ref},
                    {"wall": 1.0, "evals": 10, "cal": ref / 2},
                ],
            }
        ]
        raw = run.end_to_end([1.0], results, calibrated=False)
        assert raw == {"setup_s": 1.0, "evals_per_s": 4.0, "wall_s": 2.5, "peak_rss_mb": 100.0}
        scaled = run.end_to_end([1.0], results)
        assert scaled == {"setup_s": 0.5, "evals_per_s": 5.0, "wall_s": 2.0, "peak_rss_mb": 100.0}
