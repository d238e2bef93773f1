#!/usr/bin/env bash
# Prints where host CPU time goes, layer by layer, for the root gated
# benchmarks. Runs
#
#   go test -run '^$' -bench <bench-regexp> -cpu 1 -benchtime 2x -cpuprofile ...
#
# in the repository root, then folds the flat time of every function in
# `go tool pprof -top` by package: repro/internal/<pkg> counts as
# internal/<pkg>, the Go runtime (runtime, internal/runtime) as runtime,
# and everything else (the root package, the standard library, the test
# harness) as other. The shares sum to 100%.
#
# Usage: bash scripts/layer_shares.sh [bench-regexp] [go test flags...]
#
# The default regexp is the gated set CI records. Extra flags go after
# the defaults, so `bash scripts/layer_shares.sh -benchtime 1x` runs the
# gated set once per benchmark.
set -euo pipefail

bench='BenchmarkSimulatorThroughput|BenchmarkMultiProcess|BenchmarkTraceReplay|BenchmarkSweepThroughput|BenchmarkTieredMemory'
if [ $# -gt 0 ] && [ "${1#-}" = "$1" ]; then
  bench="$1"
  shift
fi

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

go test -run '^$' -bench "$bench" -cpu 1 -benchtime 2x "$@" \
  -o "$work/bench.test" -cpuprofile "$work/cpu.pprof" . >&2

go tool pprof -top -unit=ms -nodecount=1000000 -nodefraction=0 -edgefraction=0 \
  "$work/cpu.pprof" 2>/dev/null |
  awk '
    # Data rows: flat flat% sum% cum cum% name, after the header row.
    seen && NF >= 6 {
      ms = $1
      sub(/ms$/, "", ms)
      name = $6
      for (i = 7; i <= NF; i++) name = name " " $i
      if (name ~ /^repro\/internal\/[^.\/]+/) {
        match(name, /^repro\/internal\/[^.\/]+/)
        layer = substr(name, 7, RLENGTH - 6)
      } else if (name ~ /^(runtime|internal\/runtime)[.\/]/) {
        layer = "runtime"
      } else {
        layer = "other"
      }
      flat[layer] += ms
      total += ms
    }
    $1 == "flat" && $2 == "flat%" { seen = 1 }
    END {
      if (total == 0) {
        print "layer_shares: the profile holds no samples" > "/dev/stderr"
        exit 1
      }
      printf "%-22s %12s %8s\n", "layer", "flat_ms", "share"
      for (l in flat) if (flat[l] > 0) printf "%-22s %12.0f %7.1f%%\n", l, flat[l], 100 * flat[l] / total | "sort -k2,2nr"
      close("sort -k2,2nr")
      printf "%-22s %12.0f %7.1f%%\n", "total", total, 100
    }
  '
