#!/usr/bin/env bash
# alloc_gate.sh — hard gate on the zero-allocation hot-path contract.
#
# Runs the live producer-path benchmarks with -benchmem and fails if
# any of them reports a nonzero allocs/op: steady-state Put and
# PutBatch must not allocate, with observability off or on
# (BenchmarkPutObserved adds histograms, latency stamps and the
# timeline). The companion unit tests
# (TestPutSteadyStateAllocFree, TestSPSCOpsAllocFree) catch the same
# regressions under plain `go test`; this gate checks the exact
# numbers `make bench` publishes.
#
# Usage: scripts/alloc_gate.sh [benchtime]
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${1:-0.5s}"
benches='^(BenchmarkLivePut|BenchmarkLivePutBatch|BenchmarkPut|BenchmarkPutObserved)$'

out="$(go test -run '^$' -bench "$benches" -benchtime "$benchtime" -benchmem . | tee /dev/stderr)"

# Benchmark lines end "... <N> B/op  <M> allocs/op".
bad="$(awk '/allocs\/op/ { if ($(NF-1) + 0 != 0) print $1, $(NF-1), "allocs/op" }' <<<"$out")"
if [ -n "$bad" ]; then
    echo "alloc gate FAILED — hot-path benchmarks allocate:" >&2
    echo "$bad" >&2
    exit 1
fi
echo "alloc gate OK: all hot-path benchmarks at 0 allocs/op"
