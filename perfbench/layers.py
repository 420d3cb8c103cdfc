"""Which beamprint functions the traced run wraps, and how the spans
fold into the per-layer metrics.

Each entry names the module attribute where the caller looks the
function up: `run_experiment` calls `build_dataset` through
`beamprint.pipeline`, while the dataset-roundtrip workload calls it
through `beamprint.fingerprint`, so both attributes are wrapped. Span
names are `<layer>.<function>`; the layer is the first component.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

LAYERS = ("scenario", "radio", "fingerprint", "features", "mlp", "dtree", "predict", "evaluate", "pipeline")

# (name, unit) of every per-layer metric a traced run reports, in order.
PER_LAYER: List[Tuple[str, str]] = [
    ("mlp.train.s", "s"),
    ("mlp.loss_and_gradients.s", "s"),
    ("mlp.adam_step.s", "s"),
    ("mlp.steps", "count"),
    ("mlp.epochs", "count"),
    ("mlp.us_per_step", "us"),
    ("dtree.fit.s", "s"),
    ("dtree.best_split.s", "s"),
    ("dtree.nodes", "count"),
    ("dtree.depth", "count"),
    ("fingerprint.build_dataset.s", "s"),
    ("fingerprint.build_dataset.meas_per_s", "1/s"),
    ("fingerprint.save_dataset.s", "s"),
    ("fingerprint.load_dataset.s", "s"),
    ("fingerprint.io_mb_per_s", "MB/s"),
    ("fingerprint.subset.s", "s"),
    ("radio.beam_gain_db.s", "s"),
    ("radio.shadowing_db.s", "s"),
    ("scenario.build_scenario.s", "s"),
    ("scenario.los_mask.s", "s"),
    ("features.extract_features.s", "s"),
    ("features.rows_out", "count"),
    ("features.skipped", "count"),
    ("features.extract.s", "s"),
    ("pipeline.parse_measurement_line.s", "s"),
    ("pipeline.load_model_bundle.s", "s"),
    ("pipeline.save_model_bundle.s", "s"),
    ("predict.row.mlp.s", "s"),
    ("predict.row.tree.s", "s"),
    ("predict.batch.mlp.s", "s"),
    ("predict.batch.tree.s", "s"),
    ("evaluate.summarize.s", "s"),
    ("evaluate.write.s", "s"),
    ("evaluate.bytes_written", "bytes"),
    *((f"{layer}.self.s", "s") for layer in LAYERS),
    ("pipeline.run_experiment.rss_mb", "MB"),
    ("fingerprint.build_dataset.rss_mb", "MB"),
    ("fingerprint.save_dataset.rss_mb", "MB"),
    ("fingerprint.load_dataset.rss_mb", "MB"),
    ("mlp.train.rss_mb", "MB"),
    ("dtree.fit.rss_mb", "MB"),
    ("pipeline.infer_file.rss_mb", "MB"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
]


def _file_bytes(counter: str, arg: int):
    def on_return(tracer, args, kwargs, result):
        tracer.count(counter, os.path.getsize(args[arg]))

    return on_return


def _dataset_built(tracer, args, kwargs, dataset):
    tracer.count("fingerprint.measurements", len(dataset) * dataset.n_measurements)


def _features_out(tracer, args, kwargs, feature_set):
    tracer.count("features.rows_out", len(feature_set))
    tracer.count("features.skipped", sum(feature_set.skipped.values()))


def _mlp_trained(tracer, args, kwargs, report):
    tracer.count("mlp.epochs", report.epochs_run)


def _tree_fitted(tracer, args, kwargs, model):
    from beamprint import dtree

    tracer.count("dtree.nodes", 2 * dtree.leaf_count(model.root) - 1)
    depth = dtree.tree_depth(model.root)
    tracer.counters["dtree.depth"] = max(tracer.counters["dtree.depth"], depth)


def _predict_name(model: str):
    def name(args, kwargs):
        values = args[1]
        single = getattr(values, "ndim", 2) == 1 or len(values) == 1
        return f"predict.{'row' if single else 'batch'}.{model}"

    return name


_P = "beamprint.pipeline"
_F = "beamprint.fingerprint"

# (module, attribute, span name, on_return)
WRAP_TABLE = [
    (_P, "run_experiment", "pipeline.run_experiment", None),
    (_P, "run_single", "pipeline.run_single", None),
    (_P, "train_model", "pipeline.train_model", None),
    (_P, "save_model_bundle", "pipeline.save_model_bundle", None),
    (_P, "load_model_bundle", "pipeline.load_model_bundle", None),
    (_P, "infer_file", "pipeline.infer_file", None),
    (_P, "infer_record", "pipeline.infer_record", None),
    (_P, "parse_measurement_line", "pipeline.parse_measurement_line", None),
    (_P, "build_scenario", "scenario.build_scenario", None),
    (_P, "build_dataset", "fingerprint.build_dataset", _dataset_built),
    (_P, "los_filter", "fingerprint.subset", None),
    (_P, "split_dataset", "fingerprint.subset", None),
    (_P, "partition_by_cell", "fingerprint.subset", None),
    (_P, "extract_features", "features.extract_features", _features_out),
    (_P, "fit_normalizer", "features.fit_normalizer", None),
    (_P, "extract", "features.extract", None),
    (_P, "euclidean_errors", "evaluate.euclidean_errors", None),
    (_P, "summarize", "evaluate.summarize", None),
    (_P, "write_report", "evaluate.write", _file_bytes("evaluate.bytes_written", 1)),
    (_P, "write_cdf_csv", "evaluate.write", _file_bytes("evaluate.bytes_written", 1)),
    (_P, "compare", "evaluate.compare", None),
    (_F, "build_dataset", "fingerprint.build_dataset", _dataset_built),
    (_F, "save_dataset", "fingerprint.save_dataset", _file_bytes("fingerprint.io_bytes", 1)),
    (_F, "load_dataset", "fingerprint.load_dataset", _file_bytes("fingerprint.io_bytes", 0)),
    (_F, "grid_xy", "scenario.grid_xy", None),
    (_F, "los_mask", "scenario.los_mask", None),
    (_F, "sector_frame_offsets", "radio.sector_frame_offsets", None),
    (_F, "path_loss_db", "radio.path_loss_db", None),
    (_F, "beam_gain_db", "radio.beam_gain_db", None),
    (_F, "shadowing_db", "radio.shadowing_db", None),
    ("beamprint.mlp", "init_model", "mlp.init_model", None),
    ("beamprint.mlp", "train", "mlp.train", _mlp_trained),
    ("beamprint.mlp", "loss_and_gradients", "mlp.loss_and_gradients", None),
    ("beamprint.mlp", "adam_step", "mlp.adam_step", None),
    ("beamprint.mlp", "predict", _predict_name("mlp"), None),
    ("beamprint.dtree", "fit", "dtree.fit", _tree_fitted),
    ("beamprint.dtree", "best_split", "dtree.best_split", None),
    ("beamprint.dtree", "predict_tree", _predict_name("tree"), None),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_layer_metrics(summary: Dict[str, dict], counters: Dict[str, float], n_spans: int) -> Dict[str, float]:
    """Every PER_LAYER value except trace.overhead_s, which needs the
    untraced run. A layer that did no work reads 0."""

    def total(name: str, key: str = "s") -> float:
        return summary.get(name, {}).get(key, 0.0)

    steps = total("mlp.adam_step", "calls")
    build_s = total("fingerprint.build_dataset")
    io_s = total("fingerprint.save_dataset") + total("fingerprint.load_dataset")
    out = {
        "mlp.steps": float(steps),
        "mlp.epochs": counters.get("mlp.epochs", 0.0),
        "mlp.us_per_step": _ratio(total("mlp.train") * 1e6, steps),
        "dtree.nodes": counters.get("dtree.nodes", 0.0),
        "dtree.depth": counters.get("dtree.depth", 0.0),
        "fingerprint.build_dataset.meas_per_s": _ratio(counters.get("fingerprint.measurements", 0.0), build_s),
        "fingerprint.io_mb_per_s": _ratio(counters.get("fingerprint.io_bytes", 0.0) / 1e6, io_s),
        "features.rows_out": counters.get("features.rows_out", 0.0),
        "features.skipped": counters.get("features.skipped", 0.0),
        "evaluate.bytes_written": counters.get("evaluate.bytes_written", 0.0),
        "trace.spans": float(n_spans),
    }
    for layer in LAYERS:
        out[f"{layer}.self.s"] = sum(v["self_s"] for k, v in summary.items() if k.split(".", 1)[0] == layer)
    for name, unit in PER_LAYER:
        if name in out or name == "trace.overhead_s":
            continue
        if name.endswith(".rss_mb"):
            out[name] = total(name[: -len(".rss_mb")], "rss_mb")
        else:
            out[name] = total(name[: -len(".s")])
    return out
