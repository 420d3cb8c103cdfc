"""Command line front end.

Exit codes: 0 success, 1 configuration error or an output path that
cannot be written, 2 data error, 3 training divergence.
"""

from __future__ import annotations

import argparse
import errno
import json
import logging
import os
import sys
from dataclasses import fields
from pathlib import Path

from .configfile import load_object
from .errors import BeamprintError, ConfigurationError, DataError, TrainingDivergenceError
from .evaluate import euclidean_errors, summarize, write_cdf_csv, write_report
from .features import extract_features, feature_config_from_dict
from .fingerprint import build_dataset, load_dataset, los_rows, save_dataset
from .mlp import _ACTIVATIONS, MlpConfig
from .dtree import TreeConfig
from .pipeline import (
    MODEL_TYPES,
    ModelSpec,
    infer_file,
    load_experiment_spec,
    load_model_bundle,
    run_experiment,
    save_model_bundle,
    train_model,
)
from .scenario import (
    build_scenario,
    default_scenario_config,
    load_scenario_config,
    save_scenario_config,
    single_site_config,
)

logger = logging.getLogger("beamprint")


class _Parser(argparse.ArgumentParser):
    # bad flags are configuration errors (exit 1), not argparse's exit 2
    def error(self, message):
        raise ConfigurationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="beamprint", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-scenario", help="write a scenario config file")
    p.add_argument("--out", required=True, help="output path for the scenario JSON")
    p.add_argument("--preset", choices=("default", "single-site"), default="default")
    p.add_argument("--seed", type=int, default=0, help="scenario rng seed")

    p = sub.add_parser("build-dataset", help="sweep the grid and write a fingerprint dataset")
    p.add_argument("--scenario", required=True, help="scenario config JSON")
    p.add_argument("--out", required=True, help="output dataset path (line-delimited JSON)")
    p.add_argument("--seed", type=int, default=None, help="override the generation seed")

    p = sub.add_parser("train", help="train one model on a dataset")
    p.add_argument("--model", choices=tuple(MODEL_TYPES), required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--features", required=True, help="feature config JSON file")
    p.add_argument("--out", required=True, help="output model path")
    p.add_argument("--no-los-filter", action="store_true", help="train on blocked records too")
    # each flag's dest and default are those of the config field it sets
    m, t = MlpConfig(), TreeConfig()
    p.add_argument("--hidden", dest="hidden_layers", metavar="HIDDEN", default=",".join(map(str, m.hidden_layers)),
                   help="hidden widths, comma separated (mlp)")
    p.add_argument("--activation", choices=_ACTIVATIONS, default=m.activation)
    p.add_argument("--learning-rate", type=float, default=m.learning_rate)
    p.add_argument("--batch-size", type=int, default=m.batch_size)
    p.add_argument("--max-epochs", type=int, default=m.max_epochs)
    p.add_argument("--patience", type=int, default=m.patience)
    p.add_argument("--min-delta", type=float, default=m.min_delta)
    p.add_argument("--seed", dest="rng_seed", metavar="SEED", type=int, default=m.rng_seed,
                   help="weight init and shuffle seed (mlp)")
    p.add_argument("--max-depth", type=int, default=t.max_depth, help="tree depth cap")
    p.add_argument("--min-samples-leaf", type=int, default=t.min_samples_leaf)
    p.add_argument("--min-impurity-decrease", type=float, default=t.min_impurity_decrease)

    p = sub.add_parser("evaluate", help="score a model against a labelled dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="output report JSON")
    p.add_argument("--cdf", default=None, help="optional CDF CSV path")
    p.add_argument("--split-tag", default="test", help="split name recorded in the report")
    p.add_argument("--no-los-filter", action="store_true")

    p = sub.add_parser("sweep", help="run a full experiment spec")
    p.add_argument("--spec", required=True, help="experiment spec JSON")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("infer", help="predict positions for measurement reports")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="line-delimited measurement JSON")
    p.add_argument("--out", default=None, help="output path; stdout when omitted")

    return parser


def _check_writable(*paths, make_parents: bool = False) -> None:
    """Raise the OSError that writing an output would, before any work is
    done; unset outputs are skipped, and `make_parents` is for a writer
    that creates missing directories."""
    for path in filter(None, paths):
        target = Path(path)
        parent = target.parent
        while make_parents and not parent.exists() and parent != parent.parent:
            parent = parent.parent
        if target.is_dir():
            code = errno.EISDIR
        elif not parent.is_dir():
            code = errno.ENOTDIR if parent.exists() else errno.ENOENT
        elif not os.access(parent, os.W_OK | os.X_OK) or (target.exists() and not os.access(target, os.W_OK)):
            code = errno.EACCES
        else:
            continue
        raise OSError(code, os.strerror(code), str(path))


def _cmd_generate_scenario(args) -> int:
    config = default_scenario_config(args.seed) if args.preset == "default" else single_site_config(args.seed)
    build_scenario(config)  # validate before writing
    save_scenario_config(config, args.out)
    print(f"wrote scenario config to {args.out}")
    return 0


def _cmd_build_dataset(args) -> int:
    _check_writable(args.out)
    scenario = build_scenario(load_scenario_config(args.scenario))
    dataset = build_dataset(scenario, args.seed)
    save_dataset(dataset, args.out)
    los = int(dataset.los.sum())
    print(
        f"wrote {len(dataset)} records to {args.out} "
        f"({los} line-of-sight, {los / len(dataset):.1%})"
    )
    return 0


def _parse_hidden(text: str):
    try:
        widths = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigurationError(f"bad hidden layer list {text!r}") from None
    if not widths:
        raise ConfigurationError("hidden layer list is empty")
    return widths


def _cmd_train(args) -> int:
    _check_writable(args.out, make_parents=True)  # the bundle writer makes missing parents
    # check the flags first: reading a dataset can take seconds
    config_class = MODEL_TYPES[args.model].config_class
    given = {f.name: getattr(args, f.name) for f in fields(config_class) if hasattr(args, f.name)}
    if "hidden_layers" in given:
        given["hidden_layers"] = _parse_hidden(given["hidden_layers"])
    spec = ModelSpec(args.model, **{f"{args.model}_config": config_class(**given)})
    fc = feature_config_from_dict(load_object(args.features, "feature config"))
    dataset = load_dataset(args.dataset)
    feats = extract_features(dataset, fc, None if args.no_los_filter else los_rows(dataset))
    for reason, count in sorted(feats.skipped.items()):
        logger.warning("skipped %d records: %s", count, reason)
    bundle = train_model(feats, spec, fc)
    save_model_bundle(bundle, args.out)
    hist = getattr(bundle.model, "loss_history", None)  # a model trained in epochs
    done = f"for {len(hist)} epochs, final loss {hist[-1]:.6f}" if hist else f"on {len(feats)} records"
    print(f"trained {bundle.model_type} {done}; model at {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    _check_writable(args.out, args.cdf)
    bundle = load_model_bundle(args.model)
    dataset = load_dataset(args.dataset)
    feats = extract_features(dataset, bundle.feature_config, None if args.no_los_filter else los_rows(dataset))
    if len(feats) == 0:
        raise DataError("no evaluable records after feature extraction")
    errors = euclidean_errors(bundle.predict(feats.values), feats.labels)
    report = summarize(
        errors,
        split=args.split_tag,
        config={"label": Path(args.model).stem, "model_file": str(args.model)},
    )
    write_report(report, args.out)
    if args.cdf:
        write_cdf_csv(report, args.cdf)
    print(
        f"n={report.n_samples} mean={report.mean_error_m:.3f} m "
        f"std={report.std_error_m:.3f} m p90={report.percentiles[90]:.3f} m"
    )
    return 0


def _cmd_sweep(args) -> int:
    spec = load_experiment_spec(args.spec)
    result = run_experiment(spec, args.out_dir)
    print(result.comparison.to_text())
    print(f"manifest at {result.manifest_path}")
    return 0


def _cmd_infer(args) -> int:
    _check_writable(args.out)
    bundle = load_model_bundle(args.model)
    results = infer_file(bundle, args.input, args.out)
    if args.out is None:
        for row in results:
            print(json.dumps(row, sort_keys=True, separators=(",", ":")))
    else:
        print(f"wrote {len(results)} predictions to {args.out}")
    return 0


_COMMANDS = {
    "generate-scenario": _cmd_generate_scenario,
    "build-dataset": _cmd_build_dataset,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "infer": _cmd_infer,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigurationError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 1
    except TrainingDivergenceError as e:
        print(f"training diverged: {e}", file=sys.stderr)
        return 3
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except BeamprintError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:  # readers turn their own OSErrors into the errors above
        print(f"error: cannot write {e.filename}: {e.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
