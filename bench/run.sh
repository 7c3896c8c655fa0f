#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: builds the harness from source into
# .bench_build/ inside the checkout (compiler cache included, so nothing is
# written outside it) and runs it from the checkout's root.
#
#   bash bench/run.sh --workload lib_portal_10k --seed 1 --seconds 15 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMAXPROCS="$(nproc)"
go build -C "$root/bench" -o "$build/vitex-bench" .
cd "$root"
exec "$build/vitex-bench" -out "$build/out" "$@"
