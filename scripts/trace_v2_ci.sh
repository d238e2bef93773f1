#!/usr/bin/env bash
# CI smoke for the VTRC v2 container: record a v1 trace, convert it to
# v2, and prove the format change is invisible — v1 replay, v2 replay,
# and a shared-store multi-seed replay must all be deterministic, and
# the second shared-store round must decode zero blocks (every replay
# served from the warm store).
#
# Usage: bash scripts/trace_v2_ci.sh [workdir]
set -euo pipefail

cd "$(dirname "$0")/.."
work="${1:-$(mktemp -d)}"
mkdir -p "$work"
echo "trace-v2 smoke in $work"

go build -o "$work/virtuoso" ./cmd/virtuoso
v="$work/virtuoso"

sim=(-workload BFS -scale 0.05 -insts 200000 -seed 7)

# Record in the legacy v1 format (gzip envelope via the extension).
"$v" trace record "${sim[@]}" -format v1 -o "$work/rec.trc.gz" > "$work/record.log"

# Convert to v2; the summary must report the block-compressed format.
"$v" trace convert -json "$work/rec.trc.gz" "$work/rec.trc" > "$work/convert.json"
grep -q '"version": 2' "$work/convert.json" || {
  echo "ERROR: convert did not produce a v2 file" >&2
  cat "$work/convert.json" >&2
  exit 1
}

# The O(1) index summary of the v2 file must agree with the v1 file's
# streamed record counts.
"$v" trace info -json "$work/rec.trc.gz" | grep -Eo '"(records|instructions|mem_ops)": [0-9]+' > "$work/counts.v1"
"$v" trace info -json "$work/rec.trc"    | grep -Eo '"(records|instructions|mem_ops)": [0-9]+' > "$work/counts.v2"
if ! cmp -s "$work/counts.v1" "$work/counts.v2"; then
  echo "ERROR: v1 and v2 record counts disagree" >&2
  diff "$work/counts.v1" "$work/counts.v2" >&2 || true
  exit 1
fi

# Replaying the v1 file and its v2 conversion must produce
# byte-identical canonical reports.
"$v" trace replay -canonical -o "$work/v1.json" "$work/rec.trc.gz"
"$v" trace replay -canonical -o "$work/v2.json" "$work/rec.trc"
if ! cmp "$work/v1.json" "$work/v2.json"; then
  echo "ERROR: v2 replay diverged from v1 replay" >&2
  exit 1
fi

# Shared decoded-trace store: two rounds over two seeds. Round 2 must
# decode nothing (the store already holds the decoded trace) and —
# enforced by the CLI itself — reproduce round 1 byte-identically.
"$v" trace replay -seeds 0,11 -rounds 2 -canonical -o "$work/shared.json" \
  "$work/rec.trc" 2> "$work/shared.log"
grep -Eq '^round 2: 2 points, 0 decoded' "$work/shared.log" || {
  echo "ERROR: second shared-store round re-decoded the trace" >&2
  cat "$work/shared.log" >&2
  exit 1
}

# The recorded-seed replay inside the shared run must match the plain
# v2 replay: the store is invisible in the results.
python3 - "$work" <<'EOF'
import json, sys
work = sys.argv[1]
single = json.load(open(f"{work}/v2.json"))["results"][0]
shared = json.load(open(f"{work}/shared.json"))["results"]
rec = next(r for r in shared if r["seed"] == single["seed"])
for r in (single, rec):
    r.pop("index", None)  # position in its own report, not a result
if rec != single:
    sys.exit("ERROR: shared-store result differs from plain v2 replay")
EOF
echo "OK: v1 == v2 replay (byte-identical); shared round 2 decoded 0 blocks and matched round 1"
