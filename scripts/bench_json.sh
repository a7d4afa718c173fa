#!/usr/bin/env bash
# Runs the failover recovery-latency benchmark sweep and emits
# BENCH_failover.json for CI artifact tracking. Each sweep point crashes a
# live store and times crash→reconverged (every orphaned container fenced,
# replayed and re-acquired by a survivor) at a given stores × containers ×
# seeded-WAL-depth shape; the custom µs/failover metric is the mean recovery
# latency per iteration. The first sweep point (the historical 3×4×16
# baseline) is kept as the top-level headline number so trend tracking
# across commits stays comparable.
#
# Usage: scripts/bench_json.sh [output.json]
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_failover.json}"
iters="${BENCH_ITERS:-5x}"

raw="$(go test ./internal/role -run 'xxx' -bench 'BenchmarkFailover' \
  -benchtime "$iters" -timeout 20m)"
echo "$raw"

lines="$(echo "$raw" | grep -E '^BenchmarkFailover')"
if [[ -z "$lines" ]]; then
  echo "bench_json.sh: no BenchmarkFailover result in output" >&2
  exit 1
fi

# Shape: BenchmarkFailover/stores=S/containers=C/wal=W-P  <N>  <ns> ns/op  <µs> µs/failover
sweep=""
baseline_n="" baseline_ns="" baseline_us=""
while IFS= read -r line; do
  name="$(echo "$line" | awk '{print $1}')"
  n="$(echo "$line" | awk '{print $2}')"
  ns_per_op="$(echo "$line" | awk '{for (i=1;i<NF;i++) if ($(i+1)=="ns/op") print $i}')"
  us_per_failover="$(echo "$line" | awk '{for (i=1;i<NF;i++) if ($(i+1)=="µs/failover") print $i}')"
  if [[ -z "$n" || -z "$ns_per_op" || -z "$us_per_failover" ]]; then
    echo "bench_json.sh: could not parse: $line" >&2
    exit 1
  fi
  stores="$(echo "$name" | sed -n 's|.*/stores=\([0-9]*\).*|\1|p')"
  containers="$(echo "$name" | sed -n 's|.*/containers=\([0-9]*\).*|\1|p')"
  wal="$(echo "$name" | sed -n 's|.*/wal=\([0-9]*\).*|\1|p')"
  if [[ -z "$baseline_n" ]]; then
    baseline_n="$n" baseline_ns="$ns_per_op" baseline_us="$us_per_failover"
  fi
  [[ -n "$sweep" ]] && sweep+=$',\n'
  sweep+="    {\"stores\": ${stores:-0}, \"containers_per_store\": ${containers:-0}, \"wal_depth\": ${wal:-0}, \"iterations\": $n, \"ns_per_op\": $ns_per_op, \"us_per_failover\": $us_per_failover}"
done <<<"$lines"

commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
cat >"$out" <<EOF
{
  "bench": "BenchmarkFailover",
  "commit": "$commit",
  "iterations": $baseline_n,
  "ns_per_op": $baseline_ns,
  "us_per_failover": $baseline_us,
  "sweep": [
$sweep
  ]
}
EOF
echo "bench_json.sh: wrote $out"
