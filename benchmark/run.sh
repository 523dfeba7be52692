#!/usr/bin/env bash
# Runs one full set: every workload RUNS times with tracing off (seeds
# SEED, SEED+1, ...) plus one traced run, and writes the set with a
# machine fingerprint to benchmark/out/result_<stamp>.json, the file
# `bench.sh --compare A.json B.json` reads.
#
#   RUNS=3 SEED=1 SECONDS_PER_RUN=20 bash benchmark/run.sh
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
runs="${RUNS:-3}"
seed="${SEED:-1}"
seconds="${SECONDS_PER_RUN:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")}"
out="$here/out"
mkdir -p "$out"

commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
fingerprint="$(bash "$here/bench.sh" --fingerprint --commit "$commit")"

entries=()
one() { # workload seed trace
	echo "== $1 seed $2 trace $3" >&2
	local log
	log="$(bash "$here/bench.sh" --workload "$1" --seed "$2" --seconds "$seconds" --trace "$3")"
	sed '$d' <<<"$log" >&2
	entries+=("{\"workload\":\"$1\",\"seed\":$2,\"trace\":$3,\"result\":$(tail -n 1 <<<"$log")}")
}
for w in serve_classify serve_batch_i8 edge_infer ingest_upload; do
	for ((r = 0; r < runs; r++)); do
		one "$w" $((seed + r)) 0
	done
	one "$w" "$seed" 1
done

file="$out/result_$(date -u +%Y%m%d-%H%M%S).json"
(
	IFS=,
	printf '{"fingerprint":%s,"runs":[%s]}\n' "$fingerprint" "${entries[*]}"
) >"$file"
echo "result written to $file" >&2
