"""Self-tests of the benchmark's own code (schedules, percentiles, spans, oracle)."""

from __future__ import annotations

import json
import threading
import types
from pathlib import Path

import numpy as np
import pytest

from milrbench import metrics
from milrbench.oracle import mismatched_rows
from milrbench.spans import Patches, Span, SpanRecorder, covered_length, self_times
from milrbench.stats import (
    fixed_schedule,
    percentile,
    poisson_schedule,
    quartile_spread,
    supports,
)


def test_poisson_schedule_is_deterministic_for_a_seed():
    first = poisson_schedule(2500.0, 2.0, np.random.default_rng(7))
    again = poisson_schedule(2500.0, 2.0, np.random.default_rng(7))
    other = poisson_schedule(2500.0, 2.0, np.random.default_rng(8))
    assert np.array_equal(first, again)
    assert not np.array_equal(first[: len(other)], other[: len(first)])
    assert np.all(np.diff(first) > 0)
    assert first[0] >= 0.0 and first[-1] < 2.0
    assert abs(len(first) - 5000) < 5 * np.sqrt(5000)


def test_poisson_schedule_extends_past_its_first_draw():
    # A short first chunk must not truncate the schedule before ``duration``.
    offsets = poisson_schedule(1.0, 200.0, np.random.default_rng(0))
    assert offsets[-1] > 150.0


def test_fixed_schedule_ignores_everything_but_count_and_duration():
    offsets = fixed_schedule(4, 10.0)
    assert np.allclose(offsets, [1.25, 3.75, 6.25, 8.75])
    assert len(fixed_schedule(0, 10.0)) == 0


def test_percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond():
    assert supports(1000, 99.0) and not supports(999, 99.0)
    assert supports(100, 90.0) and not supports(99, 90.0)
    assert supports(40, 75.0) and not supports(39, 75.0)
    assert supports(1, 50.0) and not supports(0, 50.0)
    assert percentile(list(range(1000)), 99.0) == pytest.approx(989.01)
    with pytest.raises(ValueError):
        percentile(list(range(999)), 99.0)
    with pytest.raises(ValueError):
        percentile([], 50.0)
    assert percentile([3.0], 50.0) == 3.0


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 12.0, 8.0, 10.0, 10.0]
    # statistics.quantiles(values, n=4) -> [9.375, 10.0, 10.625]
    assert quartile_spread(values) == pytest.approx(1.25 / 10.0)


def _span(span_id, start, end, parent=None, name="x"):
    return Span(span_id, name, start, end, parent, None)


def test_covered_length_merges_and_clips():
    assert covered_length([(1, 3), (2, 5), (8, 12)], 0, 10) == pytest.approx(6.0)
    assert covered_length([], 0, 10) == 0.0
    assert covered_length([(-5, -1), (11, 12)], 0, 10) == 0.0


def test_self_time_subtracts_only_direct_children():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 3.0, parent=1),
        _span(3, 2.0, 5.0, parent=1),
        _span(4, 8.0, 12.0, parent=1),  # overruns the parent: clipped at 10
        _span(5, 1.5, 2.5, parent=2),  # grandchild: already inside span 2
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 6.0)
    assert own[2] == pytest.approx(2.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.0)


def test_recorder_nests_spans_per_thread():
    recorder = SpanRecorder()
    inner = recorder.wrap("inner", lambda: None)
    outer = recorder.wrap("outer", lambda: inner())
    outer()
    worker = threading.Thread(target=inner)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    by_name: dict = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
    (outer_span,) = by_name["outer"]
    nested, other_thread = by_name["inner"]
    assert outer_span.parent is None
    assert nested.parent == outer_span.id
    assert other_thread.parent is None


def test_patches_restore_instances_classes_and_modules():
    class Thing:
        def value(self):
            return 1

    module = types.ModuleType("fake")
    module.answer = lambda: 42
    thing = Thing()
    recorder = SpanRecorder()
    with Patches() as patches:
        patches.wrap(recorder, Thing, "value", "thing.value")
        patches.wrap(recorder, module, "answer", "module.answer")
        patches.set(thing, "extra", 5)
        assert thing.value() == 1 and module.answer() == 42
    assert "value" in vars(Thing) and Thing.value(thing) == 1
    assert not hasattr(Thing.value, "__wrapped__")
    assert not hasattr(module.answer, "__wrapped__")
    assert not hasattr(thing, "extra")
    assert [span.name for span in recorder.spans] == ["thing.value", "module.answer"]


def test_oracle_flags_a_corrupted_answer():
    rng = np.random.default_rng(3)
    golden = rng.normal(size=(6, 10)).astype(np.float32)
    served = golden.copy()
    served[1, 4] += 1e-7  # last-bit noise from a reordered float32 sum
    served[2, 0] = golden[2, 0] + 0.01  # a weight fault moved the answer
    served[3, 9] = np.nan
    served[4, 2] = np.inf
    assert mismatched_rows(served, golden).tolist() == [False, False, True, True, True, False]
    with pytest.raises(ValueError):
        mismatched_rows(served[:5], golden)


def test_benchmark_json_lists_the_metric_tables():
    config = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in config["end_to_end"]] == list(
        metrics.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in config["per_layer"]] == list(
        metrics.PER_LAYER
    )
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_result_line_fills_idle_layers_and_demands_end_to_end_metrics():
    outcome = metrics.Outcome(correct=True, attempted=3, failed=0, metrics={"setup_s": 1.5})
    traced = metrics.result_line(outcome, trace=True)
    assert set(traced) == {"correct", "attempted", "failed", "metrics"}
    assert traced["metrics"]["engine.submit_us"] == {"value": 0.0, "unit": "us"}
    with pytest.raises(KeyError):
        metrics.result_line(outcome, trace=False)
