"""One benchmark run in a fresh process: set up a workload, run its
measured phase (traced or not), verify, and write a JSON result. The
host's pace (pace.py) is sampled during set-up and the measured phase,
and the timings are written both raw and at the reference pace.

Started by run.py, which pins the BLAS thread pools and puts the
checkout's src/ on PYTHONPATH. `--spawned-at` is the parent's
time.monotonic() just before it started this process, so set-up time
includes interpreter start and imports (CLOCK_MONOTONIC is system-wide
on Linux).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def environment() -> dict:
    import os
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pin": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONHASHSEED")
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--operations", type=int, default=0, help="run exactly this many operations (0: until --seconds)")
    args = ap.parse_args(argv)

    import pace
    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.work)
    with pace.Sampler() as setup_sampler:
        workload.setup()
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s, "setup_pace": pace.burst_pace(setup_sampler.samples)}
    if not args.setup_only:
        tracer = saved = None
        if args.trace:
            from layers import WRAP_TABLE

            tracer = spans.Tracer()
            saved = tracer.install(WRAP_TABLE)
        try:
            with pace.Sampler() as sampler:
                workload.measure(args.seconds, args.operations)
        finally:
            if saved is not None:
                spans.uninstall(saved)
        peak_rss_mb = spans.peak_rss_mb()
        metrics = workload.verify()
        raw = workload.timings(lambda a, b: b - a)
        check = workload.check
        result.update(
            wall_s=raw["wall_s"],
            raw_timings=raw,
            paced_timings=workload.timings(sampler.duration),
            pace=sampler.pace(),
            pace_samples=len(sampler.samples),
            op_walls=[b - a for a, b in workload.ops],
            peak_rss_mb=peak_rss_mb,
            metrics=metrics,
            attempted=check.attempted,
            failed=check.failed,
            problems=check.problems,
            digests=workload.digests(),
            env=environment(),
        )
        if tracer is not None:
            from layers import per_layer_metrics

            result["per_layer"] = per_layer_metrics(spans.summarize(tracer), tracer.counters, len(tracer))
    args.out.write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
