"""Positioning error metrics: per-sample Euclidean error, summary
statistics, nearest-rank percentiles, and the empirical error CDF."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DataError

PERCENTILE_LEVELS = (50, 80, 90, 95)


def euclidean_errors(predicted: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """Straight-line distance in metres between predictions and truth."""
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if predicted.shape != actual.shape or predicted.ndim != 2 or predicted.shape[1] != 2:
        raise DataError(
            f"predicted {predicted.shape} and actual {actual.shape} must both be (n, 2)"
        )
    diff = predicted - actual
    return np.sqrt((diff * diff).sum(axis=1))


def nearest_rank_percentile(sorted_errors: np.ndarray, p: float) -> float:
    """Nearest-rank percentile on an already sorted error array."""
    n = sorted_errors.shape[0]
    rank = max(1, math.ceil(p / 100.0 * n))
    return float(sorted_errors[rank - 1])


@dataclass
class EvalReport:
    """Summary of one model's positioning errors on one split."""

    n_samples: int
    mean_error_m: float
    std_error_m: float
    percentiles: Dict[int, float]
    cdf: List[Tuple[float, float]]
    split: str = "test"
    config: dict = field(default_factory=dict)


def summarize(errors: np.ndarray, split: str = "test", config: Optional[dict] = None) -> EvalReport:
    """Mean, population std, percentiles, and full empirical CDF.

    The CDF contains one (error, cumulative fraction) point per sample,
    errors ascending, and always ends at fraction 1.0.
    """
    errors = np.asarray(errors, dtype=np.float64)
    if errors.ndim != 1 or errors.shape[0] == 0:
        raise DataError("summarize needs a non-empty 1-d error array")
    if not np.isfinite(errors).all() or (errors < 0).any():
        raise DataError("errors must be finite and non-negative")
    n = errors.shape[0]
    ordered = np.sort(errors)
    cdf = [(float(e), (i + 1) / n) for i, e in enumerate(ordered)]
    return EvalReport(
        n_samples=n,
        mean_error_m=float(errors.mean()),
        std_error_m=float(errors.std()),  # population convention, 1/N
        percentiles={p: nearest_rank_percentile(ordered, p) for p in PERCENTILE_LEVELS},
        cdf=cdf,
        split=split,
        config=dict(config or {}),
    )


@dataclass
class ComparisonRow:
    label: str
    n_samples: int
    mean_error_m: float
    std_error_m: float
    p90_m: float
    best: bool


@dataclass
class Comparison:
    rows: List[ComparisonRow]

    def to_dict(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        width = max([len(r.label) for r in self.rows] + [len("model")])
        lines = [
            f"{'model'.ljust(width)}  {'n':>7}  {'mean_m':>8}  {'std_m':>8}  {'p90_m':>8}  best"
        ]
        for r in self.rows:
            mark = "*" if r.best else ""
            lines.append(
                f"{r.label.ljust(width)}  {r.n_samples:>7d}  {r.mean_error_m:>8.3f}  "
                f"{r.std_error_m:>8.3f}  {r.p90_m:>8.3f}  {mark}"
            )
        return "\n".join(lines)


def compare(reports: Sequence[EvalReport]) -> Comparison:
    """Rank reports by mean error; the first minimum wins ties."""
    if not reports:
        raise DataError("compare needs at least one report")
    best_idx = 0
    for i, r in enumerate(reports):
        if r.mean_error_m < reports[best_idx].mean_error_m:
            best_idx = i
    rows = []
    for i, r in enumerate(reports):
        label = str(r.config.get("label", f"model-{i}"))
        rows.append(
            ComparisonRow(
                label=label,
                n_samples=r.n_samples,
                mean_error_m=r.mean_error_m,
                std_error_m=r.std_error_m,
                p90_m=r.percentiles.get(90, float("nan")),
                best=i == best_idx,
            )
        )
    return Comparison(rows=rows)


# ---------------------------------------------------------------------------
# File emission


def report_to_dict(report: EvalReport) -> dict:
    return {
        "n_samples": report.n_samples,
        "mean_error_m": report.mean_error_m,
        "std_error_m": report.std_error_m,
        "percentiles": {str(p): v for p, v in sorted(report.percentiles.items())},
        "cdf": [[e, f] for e, f in report.cdf],
        "split": report.split,
        "config": report.config,
    }


def report_from_dict(d: dict) -> EvalReport:
    return EvalReport(
        n_samples=int(d["n_samples"]),
        mean_error_m=float(d["mean_error_m"]),
        std_error_m=float(d["std_error_m"]),
        percentiles={int(p): float(v) for p, v in d["percentiles"].items()},
        cdf=[(float(e), float(f)) for e, f in d["cdf"]],
        split=str(d.get("split", "test")),
        config=dict(d.get("config", {})),
    )


def write_report(report: EvalReport, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        # json.dumps, not json.dump: only dumps takes the C encoder
        fh.write(json.dumps(report_to_dict(report), sort_keys=True, separators=(",", ":")))
        fh.write("\n")


def load_report(path) -> EvalReport:
    with open(path, "r", encoding="ascii") as fh:
        return report_from_dict(json.load(fh))


def write_cdf_csv(report: EvalReport, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("error_m,fraction\n")
        for e, f in report.cdf:
            fh.write(f"{e!r},{f!r}\n")
