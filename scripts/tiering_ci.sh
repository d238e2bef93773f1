#!/usr/bin/env bash
# CI drill for the tiered-memory subsystem from the built CLI: a
# pressured flat-vs-tiered × policy grid through the declarative spec
# path, run twice (byte-identical canonical reports, with real
# migration traffic), the -tiers/-tier-policy flag path, and the
# loud-validation contract for bad hierarchies and unknown policies.
#
# Usage: bash scripts/tiering_ci.sh [workdir]
set -euo pipefail

cd "$(dirname "$0")/.."
work="${1:-$(mktemp -d)}"
mkdir -p "$work"
echo "tiering drill in $work"

go build -o "$work/virtuoso" ./cmd/virtuoso
v="$work/virtuoso"

# A consolidation scenario: DRAM sized at 12MB against a ~13MB
# footprint (buddy allocation, watermark 0.5), so the flat cell spills
# to swap and the tiered cells demote into the CXL/NVM hierarchy.
cat > "$work/spec.json" <<'EOF'
{
  "workloads": ["RND"],
  "policies": ["bd"],
  "seeds": [1],
  "scale": 0.05,
  "max_app_insts": 400000,
  "phys_bytes": 12582912,
  "swap_bytes": 536870912,
  "swap_threshold": 0.5,
  "tier_specs": [
    [],
    [{"name": "cxl", "bytes": 67108864, "read_lat": 600, "write_lat": 900, "bytes_per_cycle": 8},
     {"name": "nvm", "bytes": 134217728, "read_lat": 2500, "write_lat": 8000, "bytes_per_cycle": 2}]
  ],
  "tier_policies": ["hotcold", "clock"]
}
EOF

# The tier grid must be deterministic end to end: the same spec run
# twice yields byte-identical canonical reports.
"$v" sweep run -spec "$work/spec.json" -canonical -o "$work/run1.json"
"$v" sweep run -spec "$work/spec.json" -canonical -o "$work/run2.json"
if ! cmp "$work/run1.json" "$work/run2.json"; then
  echo "ERROR: tier sweep is not deterministic across runs" >&2
  exit 1
fi

# The tiered cells must have migrated for real (the drill is vacuous
# otherwise), and the results must echo both policies and carry
# per-tier counters.
grep -qE '"tier_policy": ?"hotcold"' "$work/run1.json" || { echo "ERROR: no hotcold point in report" >&2; exit 1; }
grep -qE '"tier_policy": ?"clock"' "$work/run1.json" || { echo "ERROR: no clock point in report" >&2; exit 1; }
grep -qE '"name": ?"cxl"' "$work/run1.json" || { echo "ERROR: no per-tier counters in report" >&2; exit 1; }
if ! grep -oE '"Demotions": ?[0-9]+' "$work/run1.json" | grep -qvE '"Demotions": ?0$'; then
  echo "ERROR: tier grid exercised no demotions" >&2
  exit 1
fi

# The flag path: -tiers/-tier-policy sweep the same hierarchy from the
# command line, one row per migration policy.
"$v" -workload RND -policy bd -scale 0.05 -insts 200000 \
  -tiers cxl:64M:600:900:8,nvm:128M:2500:8000:2 -tier-policy hotcold,clock \
  > "$work/cli.txt" 2>/dev/null
grep -q 'tierpol' "$work/cli.txt" || { echo "ERROR: CLI grid lacks the tier-policy column" >&2; cat "$work/cli.txt" >&2; exit 1; }
[ "$(grep -c '^RND ' "$work/cli.txt")" = 2 ] || { echo "ERROR: CLI tier-policy axis did not expand to 2 points" >&2; cat "$work/cli.txt" >&2; exit 1; }

# Misconfiguration fails loudly, at parse time, with a named cause.
if "$v" -workload RND -tiers cxl:0:1:1 2> "$work/err1.log"; then
  echo "ERROR: zero-capacity tier accepted" >&2
  exit 1
fi
grep -q 'zero capacity' "$work/err1.log" || { echo "ERROR: zero-capacity rejection lacks cause" >&2; cat "$work/err1.log" >&2; exit 1; }
if "$v" -workload RND -tier-policy clock 2> "$work/err2.log"; then
  echo "ERROR: -tier-policy without -tiers accepted" >&2
  exit 1
fi
grep -q 'tier_policies without tier_specs' "$work/err2.log" || { echo "ERROR: -tier-policy without -tiers rejection lacks cause" >&2; cat "$work/err2.log" >&2; exit 1; }
sed -i 's/"tier_policies": \["hotcold", "clock"\]/"tier_policies": ["lru-misspelt"]/' "$work/spec.json"
if "$v" sweep run -spec "$work/spec.json" -o /dev/null 2> "$work/err3.log"; then
  echo "ERROR: unknown tier policy accepted in spec" >&2
  exit 1
fi
grep -q 'unknown tier policy' "$work/err3.log" || { echo "ERROR: unknown-policy rejection lacks cause" >&2; cat "$work/err3.log" >&2; exit 1; }

echo "OK: deterministic tier grid with real migration; CLI axis and loud validation verified"
