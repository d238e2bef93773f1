#!/usr/bin/env bash
# Compares simulation results between a git revision and the working
# tree: builds ./cmd/virtuoso at <rev> (from a `git archive` export)
# and from the working tree, runs the sweep specs in testdata/results/
# through both with `sweep run -canonical`, and cmp's each pair of
# reports. The specs cover single-process and multiprogrammed points;
# the radix, ech, hdc, ht, nested, utopia, rmm and midgard designs;
# the thp, bd, cr-thp and eager policies; flat and CXL+NVM tiers; and
# undersized DRAM with swap.
# TestResultsPinnedToSpecVersion pins the same reports to specVersion.
#
# For each spec it prints "identical", "spec_hash only" (the reports
# differ in the spec hash and nowhere else) or "DIFFERS". It exits
# nonzero when any report differs beyond the spec hash.
#
# Usage: bash scripts/results_diff.sh <rev> [workdir]
set -euo pipefail

rev="${1:?usage: bash scripts/results_diff.sh <rev> [workdir]}"
cd "$(dirname "$0")/.."
work="${2:-$(mktemp -d)}"
mkdir -p "$work"
echo "results diff of $rev against the working tree in $work"

src="$work/base-src"
rm -rf "$src"
mkdir -p "$src"
git archive "$rev" | tar -x -C "$src"
(cd "$src" && go build -o "$work/base" ./cmd/virtuoso)
go build -o "$work/head" ./cmd/virtuoso

failed=0
for spec in testdata/results/*.json; do
  n="$(basename "$spec" .json)"
  for bin in base head; do
    if ! "$work/$bin" sweep run -spec "$spec" -canonical -o "$work/$n.$bin.json" 2> "$work/$n.$bin.log"; then
      echo "$n: the $bin build failed to run the spec" >&2
      cat "$work/$n.$bin.log" >&2
      failed=1
      continue 2
    fi
  done
  if cmp -s "$work/$n.base.json" "$work/$n.head.json"; then
    echo "$n: identical"
  elif cmp -s <(grep -v '"spec_hash"' "$work/$n.base.json") <(grep -v '"spec_hash"' "$work/$n.head.json"); then
    echo "$n: spec_hash only"
  else
    echo "$n: DIFFERS (diff $work/$n.base.json $work/$n.head.json)"
    failed=1
  fi
done
exit "$failed"
