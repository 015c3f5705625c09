#!/usr/bin/env bash
# Builds the MCBound server and the benchmark driver from this checkout,
# then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload retrain_under_load --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr so the last stdout line stays the result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
cd "$root"

{
  cmake -S perfbench -B "$build" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build" -j "$(nproc)" --target mcbound_cli perfbench
} >&2

exec "$build/perfbench" --server "$build/mcbound" --work-dir "$build/runs" "$@"
