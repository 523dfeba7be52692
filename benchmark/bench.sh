#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# This is the command BENCHMARK.json names:
#
#   bash benchmark/bench.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays inside the checkout: the
# binary and Go's build cache, module cache and temp files live in
# .bench_build/, traces and durable state in benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/edgepulse-bench" .)

exec "$build/edgepulse-bench" --out "$here/out" --spec "$root/BENCHMARK.json" "$@"
