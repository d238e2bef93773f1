#!/usr/bin/env bash
# Compares simulation results between a git revision and the working
# tree: builds ./cmd/virtuoso at <rev> (in a temporary git worktree)
# and from the working tree, runs a fixed set of inline sweep specs
# through both with `sweep run -canonical`, and cmp's each pair of
# reports. The specs cover single-process and multiprogrammed points;
# the radix, ech, nested and utopia designs; the thp, bd and cr-thp
# policies; flat and CXL+NVM tiers; and undersized DRAM with swap.
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
git worktree add --detach "$src" "$rev" > /dev/null
trap 'git worktree remove --force "$src"' EXIT
(cd "$src" && go build -o "$work/base" ./cmd/virtuoso)
go build -o "$work/head" ./cmd/virtuoso

tiers='[[], [{"name": "cxl", "bytes": 67108864, "read_lat": 600, "write_lat": 900, "bytes_per_cycle": 8},
             {"name": "nvm", "bytes": 134217728, "read_lat": 2500, "write_lat": 8000, "bytes_per_cycle": 2}]]'
names=(single multi tiers swap)
specs=(
  '{"workloads": ["JSON", "BFS"], "designs": ["radix", "ech", "nested", "utopia"],
    "policies": ["thp", "bd", "cr-thp"], "seeds": [1], "scale": 0.05, "max_app_insts": 150000}'
  '{"mixes": [["BFS", "RND"], ["JSON", "XS"]], "designs": ["radix", "ech", "nested"],
    "policies": ["thp", "bd"], "seeds": [1], "scale": 0.05, "max_app_insts": 200000,
    "asid_retention": true}'
  '{"workloads": ["RND"], "policies": ["bd", "thp"], "seeds": [1], "scale": 0.05,
    "max_app_insts": 400000, "phys_bytes": 12582912, "swap_bytes": 536870912,
    "swap_threshold": 0.5, "tier_specs": '"$tiers"', "tier_policies": ["hotcold", "clock"]}'
  '{"workloads": ["XS", "RND"], "policies": ["bd", "thp"], "seeds": [1, 2], "scale": 0.05,
    "max_app_insts": 400000, "phys_bytes": 8388608, "swap_bytes": 536870912,
    "swap_threshold": 0.5}'
)

failed=0
for i in "${!names[@]}"; do
  n="${names[$i]}"
  printf '%s\n' "${specs[$i]}" > "$work/$n.spec.json"
  for bin in base head; do
    if ! "$work/$bin" sweep run -spec "$work/$n.spec.json" -canonical -o "$work/$n.$bin.json" 2> "$work/$n.$bin.log"; then
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
