#!/usr/bin/env bash
# CI drill for the sharded, resumable sweep service: run a small grid
# as 3 shards, kill one mid-run, resume it from its checkpoint, merge
# the shard files, and require the merged report to be byte-identical
# (canonical form) to an unsharded run of the same spec.
#
# Usage: bash scripts/sharded_sweep_ci.sh [workdir]
set -euo pipefail

cd "$(dirname "$0")/.."
work="${1:-$(mktemp -d)}"
mkdir -p "$work"
echo "sharded-sweep drill in $work"

go build -o "$work/virtuoso" ./cmd/virtuoso
v="$work/virtuoso"

# 6 points (2 workloads x 3 seeds), each simulating for a fraction of a
# second: long enough that shard 1's second point is still running when
# the kill below lands, right after its first point is checkpointed.
cat > "$work/spec.json" <<'EOF'
{"workloads": ["JSON", "2D-Sum"], "seeds": [1, 2, 3], "scale": 1.0, "max_app_insts": 8000000}
EOF

# Golden: the unsharded run, canonical form (host times stripped).
"$v" sweep run -spec "$work/spec.json" -canonical -o "$work/golden.json"

# Shards 0 and 2 run to completion.
"$v" sweep run -spec "$work/spec.json" -shard 0/3 -checkpoint "$work/s0.jsonl" -o /dev/null
"$v" sweep run -spec "$work/spec.json" -shard 2/3 -checkpoint "$work/s2.jsonl" -o /dev/null

# Shard 1 is killed mid-run (SIGTERM, what operators and schedulers
# send) as soon as its checkpoint holds the header and its first point.
# The graceful path flushes every completed point to the checkpoint
# before exiting; the in-flight second point is discarded.
"$v" sweep run -spec "$work/spec.json" -shard 1/3 -checkpoint "$work/s1.jsonl" -parallel 1 -o /dev/null &
pid=$!
lines() { if [ -f "$1" ]; then wc -l < "$1"; else echo 0; fi; }
while [ "$(lines "$work/s1.jsonl")" -lt 2 ]; do
  if ! kill -0 "$pid" 2>/dev/null; then
    echo "ERROR: shard 1 exited before checkpointing its first point" >&2
    exit 1
  fi
  sleep 0.01
done
if ! kill -TERM "$pid" 2>/dev/null; then
  echo "ERROR: shard 1 finished before the kill; resume would be a no-op" >&2
  exit 1
fi
echo "killed shard 1 (pid $pid) mid-run"
wait "$pid" && { echo "ERROR: killed shard exited 0" >&2; exit 1; } || true

# Points already durable in shard 1's checkpoint (lines minus header).
pre=$(($(wc -l < "$work/s1.jsonl") - 1))
echo "shard 1 checkpoint holds $pre/2 points after the kill"

# Resume: the same command again. Completed points must restore from
# the checkpoint, only the remainder may simulate (-progress lines
# count exactly the freshly simulated points).
"$v" sweep run -spec "$work/spec.json" -shard 1/3 -checkpoint "$work/s1.jsonl" -progress -o /dev/null 2> "$work/resume.log"
fresh=$(grep -c '^\[' "$work/resume.log" || true)
echo "resume simulated $fresh points"
if [ "$fresh" -eq 0 ]; then
  echo "ERROR: resume simulated no point; the kill landed after shard 1 finished" >&2
  cat "$work/resume.log" >&2
  exit 1
fi
if [ "$((pre + fresh))" -ne 2 ]; then
  echo "ERROR: checkpointed ($pre) + resumed ($fresh) != 2 — resume re-simulated or lost points" >&2
  cat "$work/resume.log" >&2
  exit 1
fi

# Merge the three shard files and compare against the unsharded golden.
"$v" sweep merge -canonical -o "$work/merged.json" "$work/s0.jsonl" "$work/s1.jsonl" "$work/s2.jsonl"
if ! cmp "$work/merged.json" "$work/golden.json"; then
  echo "ERROR: merged shard report differs from the unsharded run" >&2
  exit 1
fi
echo "OK: kill/resume preserved completed points; merged == unsharded (byte-identical canonical reports)"
