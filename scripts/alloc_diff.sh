#!/usr/bin/env bash
# Compares perfbench's allocation metrics between a git revision and the
# working tree. Exports <rev> with `git archive`, then runs
#
#   bash perfbench/run.sh --workload W --seed 1 --seconds 3 --trace 0
#
# for exec-xs, replay-grid and os-pressure in both trees, each tree
# with its own CARGO_TARGET_DIR under the work directory. It prints
# alloc_bytes_per_op, allocs_per_op and heap_peak_bytes side by side
# with their deltas. The first two do not depend on the host and move
# well under 1% between runs of one tree; heap_peak_bytes spreads
# more, so compare it over alternating repeat runs before claiming it.
#
# Usage: bash scripts/alloc_diff.sh <rev> [workdir]
set -euo pipefail

rev="${1:?usage: bash scripts/alloc_diff.sh <rev> [workdir]}"
cd "$(dirname "$0")/.."
work="${2:-$(mktemp -d)}"
mkdir -p "$work"
work="$(cd "$work" && pwd)"
echo "allocation diff of $rev against the working tree in $work"

src="$work/base-src"
rm -rf "$src"
mkdir -p "$src"
git archive "$rev" | tar -x -C "$src"

# metric FILE NAME prints the value of metric NAME in a perfbench report.
metric() {
  sed -n 's/.*"'"$2"'":{"value":\([^,}]*\).*/\1/p' "$1"
}

printf '%-12s %-20s %14s %14s %9s\n' workload metric base head delta
for w in exec-xs replay-grid os-pressure; do
  for side in base head; do
    dir=.
    [ "$side" = base ] && dir="$src"
    (cd "$dir" && CARGO_TARGET_DIR="$work/$side-build" \
      bash perfbench/run.sh --workload "$w" --seed 1 --seconds 3 --trace 0) > "$work/$w.$side.json"
  done
  for m in alloc_bytes_per_op allocs_per_op heap_peak_bytes; do
    b="$(metric "$work/$w.base.json" "$m")"
    h="$(metric "$work/$w.head.json" "$m")"
    awk -v w="$w" -v m="$m" -v b="$b" -v h="$h" 'BEGIN {
      d = (b == 0) ? "n/a" : sprintf("%+.2f%%", 100 * (h - b) / b)
      printf "%-12s %-20s %14.0f %14.0f %9s\n", w, m, b, h, d
    }'
  done
done
