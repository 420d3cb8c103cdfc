"""Tests of the benchmark's own code: python3 -m pytest perfbench"""

import importlib
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_wrapper_returns_exactly_what_the_function_returns():
    tracer = spans.Tracer()
    result = object()

    def fn(a, b=None):
        return result, a, b

    wrapped = tracer.wrap(fn, "pipeline.fn")
    got = wrapped(1, b=[2])
    assert got[0] is result and got[1:] == (1, [2])
    assert wrapped.__wrapped__ is fn and wrapped.__name__ == "fn"
    assert tracer.names == ["pipeline.fn"]


def test_wrapper_passes_exceptions_through_and_closes_the_span():
    tracer = spans.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "pipeline.boom")()
    assert len(tracer) == 1 and tracer.ends[0] >= tracer.starts[0]
    assert tracer.wrap(lambda: 7, "pipeline.after")() == 7
    assert tracer.parents[1] == -1


def test_self_time_is_span_minus_child_spans(monkeypatch):
    clock = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    monkeypatch.setattr(spans.time, "perf_counter", lambda: next(clock))
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: None, "mlp.inner")

    def outer_fn():
        inner()
        inner()

    tracer.wrap(outer_fn, "pipeline.outer")()
    assert list(tracer.parents) == [-1, 0, 0]
    summary = spans.summarize(tracer)
    assert summary["pipeline.outer"]["s"] == 10.0
    assert summary["pipeline.outer"]["self_s"] == 10.0 - 2.0 - 0.5
    assert summary["mlp.inner"] == {"calls": 2, "s": 2.5, "self_s": 2.5, "rss_mb": summary["mlp.inner"]["rss_mb"]}
    metrics = layers.per_layer_metrics(summary, tracer.counters, len(tracer))
    assert metrics["pipeline.self.s"] == 7.5 and metrics["mlp.self.s"] == 2.5


def test_install_wraps_every_table_entry_and_uninstall_restores_it():
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in layers.WRAP_TABLE}
    tracer = spans.Tracer()
    saved = tracer.install(layers.WRAP_TABLE)
    try:
        for (m, a), fn in originals.items():
            assert getattr(importlib.import_module(m), a).__wrapped__ is fn
    finally:
        spans.uninstall(saved)
    for (m, a), fn in originals.items():
        assert getattr(importlib.import_module(m), a) is fn


def test_traced_prediction_is_unchanged_and_named_by_shape():
    import numpy as np
    from beamprint import dtree

    values = np.array([[0.0], [1.0], [2.0], [3.0]])
    labels = np.column_stack([values[:, 0] * 2, -values[:, 0]])
    model = dtree.fit(values, labels, dtree.TreeConfig(max_depth=3, min_samples_leaf=1))
    want_batch = dtree.predict_tree(model, values)
    want_row = dtree.predict_tree(model, values[1])
    tracer = spans.Tracer()
    saved = tracer.install(layers.WRAP_TABLE)
    try:
        np.testing.assert_array_equal(dtree.predict_tree(model, values), want_batch)
        np.testing.assert_array_equal(dtree.predict_tree(model, values[1]), want_row)
    finally:
        spans.uninstall(saved)
    assert tracer.names == ["predict.batch.tree", "predict.row.tree"]


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [n for n, _ in run.END_TO_END] + [n for n, _ in layers.PER_LAYER]
    for name in names + [w for w in run.WORKLOAD_NAMES]:
        assert NAME.fullmatch(name), name
    assert len(set(names)) == len(names)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_empty_trace_reports_every_per_layer_metric_as_zero():
    metrics = layers.per_layer_metrics({}, {}, 0)
    assert set(metrics) == {n for n, _ in layers.PER_LAYER} - {"trace.overhead_s"}
    assert all(v == 0 for v in metrics.values())


def test_workload_names_match_the_implementations():
    from workloads import WORKLOADS

    assert tuple(WORKLOADS) == run.WORKLOAD_NAMES


def test_measure_runs_until_the_seconds_or_exactly_the_operations():
    from workloads import Workload

    class Counting(Workload):
        def operation(self, index):
            pass

    timed = Counting(0, ROOT)
    timed.measure(0.0)
    assert len(timed.ops) == 1  # at least one operation, however short the run
    counted = Counting(0, ROOT)
    counted.measure(1e9, operations=3)
    assert len(counted.ops) == 3 and all(a <= b for a, b in counted.ops)


def test_sampler_scales_an_interval_by_the_samples_around_it():
    import pace

    sampler = pace.Sampler()
    sampler.times = [0.0, 10.0, 10.2, 10.4]
    sampler.samples = [4 * pace.REFERENCE_S, 2 * pace.REFERENCE_S, 2 * pace.REFERENCE_S, 3 * pace.REFERENCE_S]
    assert sampler.duration(10.0, 10.5) == 0.5 / 2  # only samples within MARGIN_S count
    assert sampler.duration(0.0, 1.0) == 1.0 / 4
    assert sampler.pace() == 2.5


def test_sampler_runs_the_kernel_during_the_block_and_restores_the_signal():
    import signal
    import time

    import pace

    before = signal.getsignal(signal.SIGALRM)
    with pace.Sampler() as sampler:
        end = time.perf_counter() + 3 * pace.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 2 and sampler.pace() > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
