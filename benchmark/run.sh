#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the runner from source and runs
# it with the given arguments. Everything the build and the run write — the
# Go build cache, the binary, the server's data directory — stays under
# .bench_build in the checkout; traces go to benchmark/out.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
go build -o "$build/evabenchmark" ./benchmark
exec "$build/evabenchmark" "$@"
