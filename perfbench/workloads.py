"""The two benchmark workloads, driven through beamprint's public API.

Each workload has a set-up, a measured phase and a check phase. The
measured phase repeats one operation (a `run_experiment`, or a build,
save and load round trip) until the run's seconds are spent, or runs a
given number of them. Calls go through module attributes
(`pipeline.run_experiment`, `fingerprint.save_dataset`, ...) so that the
traced run's wrappers see them.

Every workload reports every end-to-end metric:

- wall_s is the mean wall time of an operation;
- mlp_lines_per_s and tree_lines_per_s count measurement lines (records)
  per second through each model's path: in the round trip's serving
  slices, the CLI infer path (`infer_file`, one line at a time); in
  net-sweep, a whole run (extract, fit, predict, summarize) over the
  run's train and test records, timed by the manifest's duration_s;
- the error metrics are test errors of the MLP and the tree;
- dataset_file_mb is the size of the dataset-format JSONL files written.

Workloads record the (start, end) of every timed interval; `timings`
turns them into these figures given how long an interval lasts, raw or
at the reference host speed (pace.py). Every figure is a total over the
whole measured phase: on a shared VM the host can run at speeds up to
1.6x apart for seconds to minutes, and a best-of-N or a median of short
samples flips between them from run to run.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from beamprint import evaluate, fingerprint, pipeline
from beamprint.dtree import TreeConfig
from beamprint.features import TOPOLOGY_NETWORK, extract_features, feature_config_from_dict
from beamprint.mlp import MlpConfig
from beamprint.scenario import build_scenario, default_scenario_config, scenario_config_to_dict

MB = float(1 << 20)
TOLERANCE_M = 1e-6
SPLIT_SEED = 7
TRAIN_FRACTION = 0.9
MODELS = ("mlp", "tree")
FEATURES = {"serving_beams": 3, "neighbor_beams": 2, "cell_id_feature": True}
SWEEP_MODELS = [{"type": "mlp", "hidden_layers": [64], "rng_seed": 0}, {"type": "tree", "max_depth": 30}]
# Set-up bundles cap the MLP's epochs: its cost per predicted line
# depends only on its shape, and a full fit would dominate set-up time.
SETUP_MLP_EPOCHS = 10
PROBE_LINES = 10  # per sweep bundle; a depth-30 tree takes ~25 ms a line
# Lines of each round-trip serving slice, cycling over the 335 held-out
# records: on the 2 m layout a line costs the MLP path about 1.1 ms
# (mostly parsing) and the tree path about 7.5 ms, so a slice takes
# about 1.1 s and 1.8 s.
SERVE_LINES = {"mlp": 1000, "tree": 240}
MAX_PROBLEMS = 20


class Check:
    """Counts operations and keeps the first few problems found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def problem(self, text: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(text)

    def compare(self, what: str, got: List[dict], want: np.ndarray) -> int:
        """The number of lines with no prediction or one off by more than
        TOLERANCE_M from batch prediction."""
        if len(got) != len(want):
            self.problem(f"{what}: {len(got)} predictions for {len(want)} lines")
            bad = len(want)
        else:
            pred = np.array([[r["x_pred"], r["y_pred"]] for r in got]).reshape(-1, 2)
            bad = int(np.count_nonzero(~(np.abs(pred - want) <= TOLERANCE_M).all(axis=1)))
            if bad:
                self.problem(f"{what}: {bad} predictions differ from batch prediction by > {TOLERANCE_M} m")
        return bad


def _errors(metrics: dict, model_type: str, errors: np.ndarray) -> None:
    report = evaluate.summarize(errors)
    metrics[f"{model_type}_mean_error_m"] = report.mean_error_m
    metrics[f"{model_type}_p90_error_m"] = report.percentiles[90]


def _setup_bundles(dataset, work: Path) -> Dict[str, Path]:
    """Fit and save the network MLP (capped epochs) and tree on `dataset`."""
    fc = feature_config_from_dict(FEATURES)
    train_set = extract_features(dataset, fc)
    specs = {
        "mlp": pipeline.ModelSpec("mlp", mlp_config=MlpConfig(max_epochs=SETUP_MLP_EPOCHS)),
        "tree": pipeline.ModelSpec("tree", tree_config=TreeConfig(max_depth=30)),
    }
    paths = {}
    for kind, spec in specs.items():
        paths[kind] = work / f"setup_{kind}.json"
        pipeline.save_model_bundle(pipeline.train_model(train_set, spec, fc), paths[kind])
    return paths


def _sample_servable(dataset, feature_config, rng, k: int):
    """Up to k records (random order) that feature extraction keeps."""
    kept = extract_features(dataset, feature_config).indices
    return dataset.subset(rng.choice(kept, size=min(k, len(kept)), replace=False))


def _expected(bundle, records) -> np.ndarray:
    return bundle.predict(extract_features(records, bundle.feature_config).values)


def _test_errors(bundle, dataset) -> np.ndarray:
    test_set = extract_features(dataset, bundle.feature_config)
    return evaluate.euclidean_errors(bundle.predict(test_set.values), test_set.labels)


# ---------------------------------------------------------------------------


Interval = Tuple[float, float]
Duration = Callable[[float, float], float]


class Workload:
    name = ""
    min_operations = 1

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.check = Check()
        self.ops: List[Interval] = []

    def setup(self) -> None:
        raise NotImplementedError

    def operation(self, index: int) -> None:
        raise NotImplementedError

    def verify(self) -> Dict[str, float]:
        """Checks after the measured phase; returns the metrics other
        than setup_s, peak_rss_mb and the timings."""
        raise NotImplementedError

    def timings(self, duration: Duration) -> Dict[str, float]:
        """wall_s, mlp_lines_per_s and tree_lines_per_s, with each
        measured interval (a, b) of the perf_counter clock lasting
        duration(a, b) seconds."""
        raise NotImplementedError

    def measure(self, seconds: float, operations: int = 0) -> None:
        """Run exactly `operations` operations if that is positive, else
        run them until `seconds` have passed and min_operations have run."""
        start = time.perf_counter()

        def more() -> bool:
            if operations:
                return len(self.ops) < operations
            return len(self.ops) < self.min_operations or time.perf_counter() - start < seconds

        while more():
            t0 = time.perf_counter()
            self.operation(len(self.ops))
            self.ops.append((t0, time.perf_counter()))

    def digests(self) -> List[str]:
        """Per-operation digests that must agree across runs of one invocation."""
        return []


class NetSweep(Workload):
    """`run_experiment` at network level on the default scenario, with
    one feature config and the MLP and tree models. The seed is the
    spec's dataset_seed, which feeds only shadowing (off in the default
    scenario), so every seed fits the same models on the same split: a
    seed that moved the split would move the MLP's early stop (232 to
    349 epochs across split seeds) and the wall time with it. The seed
    picks the lines of the serving check, which streams held-out test
    records through each saved bundle."""

    name = "net-sweep"

    def setup(self) -> None:
        self.spec = pipeline.experiment_spec_from_dict(
            {
                "scenario": scenario_config_to_dict(default_scenario_config(0)),
                "feature_configs": [FEATURES],
                "model_configs": SWEEP_MODELS,
                "topology": TOPOLOGY_NETWORK,
                "train_fraction": TRAIN_FRACTION,
                "split_seed": SPLIT_SEED,
                "dataset_seed": self.seed,
            }
        )
        self.results = {}  # operation index -> RunResult

    def operation(self, index: int) -> None:
        self.check.attempted += 1
        try:
            self.results[index] = pipeline.run_experiment(self.spec, self.work / f"run{index}")
        except Exception as e:  # a failed run counts; the benchmark goes on
            self.check.failed += 1
            self.check.problem(f"run {index}: {type(e).__name__}: {e}")

    def digests(self) -> List[str]:
        return [
            hashlib.sha256(json.dumps(r.manifest["artifact_sha256"], sort_keys=True).encode()).hexdigest()
            for r in self.results.values()
        ]

    def _run_problems(self, result) -> List[str]:
        out = []
        for run in result.manifest["runs"]:
            for split in ("train", "test"):
                paths = run["artifacts"].get(split)
                if paths is None:
                    out.append(f"{run['label']}: no {split} artifacts")
                    continue
                report_path = result.output_dir / paths["report"]
                cdf_path = result.output_dir / paths["cdf"]
                if not report_path.is_file() or not cdf_path.is_file():
                    out.append(f"{run['label']} {split}: report or CDF file missing")
                    continue
                report = evaluate.load_report(report_path)
                if report.n_samples != report.config.get(f"n_{split}"):
                    out.append(f"{run['label']} {split}: n_samples {report.n_samples} != split size")
                values = [report.mean_error_m, report.std_error_m, *report.percentiles.values()]
                if not all(math.isfinite(v) for v in values):
                    out.append(f"{run['label']} {split}: non-finite error summary")
                rows = cdf_path.read_text(encoding="ascii").split()[1:]
                cdf = [tuple(float(v) for v in row.split(",")) for row in rows]
                if not cdf or cdf[-1][1] != 1.0 or not all(math.isfinite(e) for e, _ in cdf):
                    out.append(f"{run['label']} {split}: CDF does not end at 1.0 or has non-finite errors")
        return out

    def _test_split(self):
        """The test split, rebuilt the way run_experiment builds it."""
        scenario = build_scenario(self.spec.scenario)
        los = fingerprint.los_filter(fingerprint.build_dataset(scenario, self.spec.dataset_seed))
        return pipeline.split_dataset(los, TRAIN_FRACTION, SPLIT_SEED)[1]

    def verify(self) -> Dict[str, float]:
        digests = self.digests()
        if len(set(digests)) > 1:
            self.check.failed += len(digests)
            self.check.problem(f"artifact digests differ across runs: {sorted(set(digests))}")
        for i, result in self.results.items():
            problems = self._run_problems(result)
            if problems:
                self.check.failed += 1
                for p in problems:
                    self.check.problem(f"run {i}: {p}")
        if not self.results:
            return {}
        first = next(iter(self.results.values()))
        configs = {rep.config["label"]: rep.config for rep in first.reports}
        metrics = {}
        for rep in first.reports:
            if rep.split == "test" and rep.config["label"].startswith("net_"):
                kind = rep.config["model"]["type"]
                metrics[f"{kind}_mean_error_m"] = rep.mean_error_m
                metrics[f"{kind}_p90_error_m"] = rep.percentiles[90]

        test = self._test_split()
        rng = np.random.default_rng(self.seed)
        file_bytes = 0
        bad = 0
        for run in first.manifest["runs"]:
            desc = configs[run["label"]]
            bundle = pipeline.load_model_bundle(first.output_dir / run["model"])
            records = _sample_servable(test, bundle.feature_config, rng, PROBE_LINES)
            lines_path = self.work / f"serve_{run['label']}.jsonl"
            fingerprint.save_dataset(records, lines_path)
            file_bytes += lines_path.stat().st_size
            got = pipeline.infer_file(bundle, lines_path)
            bad += self.check.compare(f"{run['label']} serving check", got, _expected(bundle, records))
        if bad:  # the serving check fails the run whose bundles it streamed
            self.check.failed += 1
        metrics["dataset_file_mb"] = file_bytes / MB
        return metrics

    def timings(self, duration: Duration) -> Dict[str, float]:
        """Lines per second count each run's train and test records over
        its manifest duration_s. run_experiment builds the dataset, then
        runs the runs back to back, which places each run in time."""
        out = {"wall_s": sum(duration(a, b) for a, b in self.ops) / len(self.ops)}
        lines = dict.fromkeys(MODELS, 0)
        seconds = dict.fromkeys(MODELS, 0.0)
        for index, result in self.results.items():
            t = self.ops[index][0] + result.manifest["durations_s"]["dataset"]
            configs = {rep.config["label"]: rep.config for rep in result.reports}
            for run in result.manifest["runs"]:
                desc = configs[run["label"]]
                lines[desc["model"]["type"]] += desc["n_train"] + desc["n_test"]
                seconds[desc["model"]["type"]] += duration(t, t + run["duration_s"])
                t += run["duration_s"]
        out.update({f"{kind}_lines_per_s": lines[kind] / seconds[kind] for kind in MODELS if seconds[kind] > 0})
        return out


class DatasetRoundtrip(Workload):
    """build_dataset with 4 dB shadowing on a 2 m grid, save, load; the
    seed is the shadowing seed. Set-up fits an MLP and a tree on the
    same layout without shadowing and writes held-out records of it as a
    measurement file per model. After each stage, a serving slice
    streams those files through the bundles (timed apart from the
    stages), so the lines/s figures average over the whole measured
    phase. The error metrics are those bundles' errors on the loaded
    shadowed line-of-sight records."""

    name = "dataset-roundtrip"
    # The first operation runs cold and holds one dataset fewer, so with
    # one operation wall_s and peak RSS would depend on whether the host
    # was slow enough to leave no time for a second.
    min_operations = 2

    def setup(self) -> None:
        base = replace(default_scenario_config(0), grid_resolution_m=2.0)
        self.scenario = build_scenario(replace(base, radio=replace(base.radio, shadowing_sigma_db=4.0)))
        clean = fingerprint.los_filter(fingerprint.build_dataset(build_scenario(base)))
        train, test = pipeline.split_dataset(clean, TRAIN_FRACTION, SPLIT_SEED)
        self.bundle_paths = _setup_bundles(train, self.work)
        fc = feature_config_from_dict(FEATURES)
        records = _sample_servable(test, fc, np.random.default_rng(self.seed), max(SERVE_LINES.values()))
        self.serve = {}
        for kind, n_lines in SERVE_LINES.items():
            path = self.work / f"serve_{kind}.jsonl"
            self.serve[kind] = (path, records.subset(np.resize(np.arange(len(records)), n_lines)))
            fingerprint.save_dataset(self.serve[kind][1], path)
        self.path = self.work / "dataset.jsonl"
        self.stages: List[Interval] = []  # build, save and load of every operation
        self.slices: Dict[str, List[Tuple[Interval, int]]] = {kind: [] for kind in MODELS}
        self.loaded = None

    def _serve(self) -> None:
        for kind in MODELS:
            path, records = self.serve[kind]
            t0 = time.perf_counter()
            bundle = pipeline.load_model_bundle(self.bundle_paths[kind])
            got = pipeline.infer_file(bundle, path)
            self.slices[kind].append(((t0, time.perf_counter()), len(records)))
            self.check.attempted += len(records)
            self.check.failed += self.check.compare(f"{kind} serving slice", got, _expected(bundle, records))

    def _stage(self, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.stages.append((t0, time.perf_counter()))
        self._serve()
        return out

    def operation(self, index: int) -> None:
        built = None
        try:
            built = self._stage(fingerprint.build_dataset, self.scenario, self.seed)
            self._stage(fingerprint.save_dataset, built, self.path)
            self.loaded = self._stage(fingerprint.load_dataset, self.path)
        except Exception as e:  # failed records count; the benchmark goes on
            n = len(built) if built is not None else 1
            self.check.attempted += n
            self.check.failed += n
            self.check.problem(f"round trip {index}: {type(e).__name__}: {e}")
            return
        self._check_equal(built, self.loaded)

    def _check_equal(self, built, loaded) -> None:
        """Record-by-record equality of the loaded and built datasets."""
        self.check.attempted += len(built)
        header_ok = (
            loaded.scenario_hash == built.scenario_hash
            and loaded.seed == built.seed
            and loaded.cells == built.cells
            and loaded.n_beams == built.n_beams
            and len(loaded) == len(built)
        )
        if not header_ok:
            self.check.failed += len(built)
            self.check.problem("round trip: header or record count differs")
            return
        same = (
            (loaded.xs == built.xs)
            & (loaded.ys == built.ys)
            & (loaded.serving == built.serving)
            & (loaded.los == built.los)
            & (loaded.meas_cells == built.meas_cells).all(axis=1)
            & (loaded.meas_beams == built.meas_beams).all(axis=1)
            & (loaded.meas_rsrp == built.meas_rsrp).all(axis=1)
        )
        bad = int(np.count_nonzero(~same))
        if bad or loaded != built:
            self.check.failed += max(bad, 1)
            self.check.problem(f"round trip: {bad} records differ after load")

    def timings(self, duration: Duration) -> Dict[str, float]:
        """wall_s counts the build, save and load, not the serving slices."""
        out = {"wall_s": sum(duration(a, b) for a, b in self.stages) / len(self.ops)}
        for kind, slices in self.slices.items():
            if slices:
                out[f"{kind}_lines_per_s"] = sum(n for _, n in slices) / sum(duration(a, b) for (a, b), _ in slices)
        return out

    def verify(self) -> Dict[str, float]:
        metrics = {}
        if self.loaded is None:
            return metrics
        metrics["dataset_file_mb"] = self.path.stat().st_size / MB
        los = fingerprint.los_filter(self.loaded)
        for kind, path in self.bundle_paths.items():
            _errors(metrics, kind, _test_errors(pipeline.load_model_bundle(path), los))
        return metrics


WORKLOADS = {cls.name: cls for cls in (NetSweep, DatasetRoundtrip)}
