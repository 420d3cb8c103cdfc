"""beamprint benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload net-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Every run happens in fresh child
processes (worker.py) with the BLAS thread pools pinned to one thread,
so peak RSS belongs to that run and interpreter start and imports fall
in set-up time.

--trace 0 sets the workload up SETUP_REPEATS times (the last set-up is
followed by the measured phase and the checks) and prints every
end-to-end metric; setup_s is the median set-up time. Times and rates
are reported at a fixed host speed: each timed interval is scaled by
the host's pace (pace.py), measured alongside it; the record keeps the
raw values.
--trace 1 runs one operation of the workload untraced and one with
wrappers around beamprint's functions, and prints every per-layer
metric; trace.overhead_s is the traced wall_s minus the untraced one.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the full record, with the environment, goes to
.bench_results/<workload>-seed<seed>-trace<t>.json. Without beamprint's
sources under src/ the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("net-sweep", "dataset-roundtrip")
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("mlp_lines_per_s", "1/s"),
    ("tree_lines_per_s", "1/s"),
    ("dataset_file_mb", "MB"),
    ("mlp_mean_error_m", "m"),
    ("tree_mean_error_m", "m"),
    ("mlp_p90_error_m", "m"),
    ("tree_p90_error_m", "m"),
]
SETUP_REPEATS = 3
DEADLINE_S = 170.0
# One BLAS thread, and the same string hashes in every child, so that
# runs differ only in what the host does.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Starts worker processes for one benchmark invocation."""

    def __init__(self, args, work: Path, deadline: float) -> None:
        self.args = args
        self.work = work
        self.deadline = deadline
        self.n = 0
        self.env = dict(os.environ, **CHILD_ENV)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")

    def spawn(self, trace: int = 0, setup_only: bool = False, operations: int = 0) -> dict:
        self.n += 1
        child_work = self.work / f"child{self.n}"
        child_work.mkdir(parents=True)
        out = self.work / f"child{self.n}.json"
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds),
            "--trace", str(trace),
            "--work", str(child_work),
            "--out", str(out),
            "--operations", str(operations),
        ]
        if setup_only:
            cmd.append("--setup-only")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildFailed("no time left for another run")
        cmd += ["--spawned-at", repr(time.monotonic())]
        try:
            # the child's stdout goes to our stderr: our stdout ends with the result
            proc = subprocess.run(cmd, env=self.env, stdout=sys.stderr, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"run {self.n} did not finish within {DEADLINE_S:.0f} s") from None
        if proc.returncode != 0 or not out.is_file():
            raise ChildFailed(f"run {self.n} exited with code {proc.returncode}")
        result = json.loads(out.read_text())
        shutil.rmtree(child_work, ignore_errors=True)
        return result


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(args, runner: Runner):
    """(runs, metrics with units) for the requested trace mode."""
    if args.trace == 0:
        setups = [runner.spawn(setup_only=True) for _ in range(SETUP_REPEATS - 1)]
        run = runner.spawn()
        setups.append(run)
        values = {"peak_rss_mb": run["peak_rss_mb"], **run["metrics"], **run["paced_timings"]}
        values["setup_s"] = statistics.median(r["setup_s"] / r["setup_pace"] for r in setups)
        run["setup_s_all"] = [r["setup_s"] for r in setups]
        run["setup_pace_all"] = [r["setup_pace"] for r in setups]
        return [run], [(name, unit, values.get(name)) for name, unit in END_TO_END]
    from layers import PER_LAYER

    plain = runner.spawn(trace=0, operations=1)
    traced = runner.spawn(trace=1, operations=1)
    values = dict(traced["per_layer"], **{"trace.overhead_s": traced["wall_s"] - plain["wall_s"]})
    return [plain, traced], [(name, unit, values.get(name)) for name, unit in PER_LAYER]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()
    # On SIGTERM, unwind: subprocess.run kills and waits for the running
    # child, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "beamprint" / "__init__.py").is_file():
        print(f"beamprint sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    runner = Runner(args, work, start + DEADLINE_S)
    try:
        runs, metrics = measure(args, runner)
    except ChildFailed as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [p for run in runs for p in run["problems"]]
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    digests = {d for run in runs for d in run["digests"]}
    if len(digests) > 1:
        failed += 1
        problems.append(f"artifact digests differ between the runs: {sorted(digests)}")
    if args.trace == 0:
        for name, _, value in metrics:
            if value is None or not math.isfinite(value) or value <= 0:
                problems.append(f"end-to-end metric {name} is {value}")
    line = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, unit, value in metrics},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "elapsed_s": time.monotonic() - start,
        "environment": runs[-1]["env"],
        "problems": problems,
        "runs": [{k: v for k, v in run.items() if k not in ("metrics", "per_layer", "env")} for run in runs],
        "result": line,
    }
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    record_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
