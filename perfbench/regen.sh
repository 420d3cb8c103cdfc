#!/usr/bin/env bash
# Run every workload in both modes for one seed (default 1); each run
# writes .bench_results/<workload>-seed<seed>-trace<t>.json.
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
for workload in net-sweep dataset-roundtrip; do
  for trace in 0 1; do
    python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds 30 --trace "$trace"
  done
done
