#!/usr/bin/env bash
# Re-runs the parallel-client and batched serving benchmarks once and gates
# the single-shard queries/sec of each against the committed
# BENCH_locmatcher.json baseline: benchjson exits non-zero when throughput
# regressed by more than MAX_REGRESS_PCT (default 15%). The fresh run is
# written to a temp file so the committed baseline is never clobbered by a
# gating run. Run via `make bench-regress`.
set -euo pipefail

BASELINE="${BASELINE:-BENCH_locmatcher.json}"
GATES="${GATES:-BenchmarkServeQueriesParallel/shards=1 BenchmarkServeQueriesBatch/shards=1}"
GATE_METRIC="${GATE_METRIC:-queries/sec}"
MAX_REGRESS_PCT="${MAX_REGRESS_PCT:-15}"
BENCHTIME="${BENCHTIME:-1s}"

if [ ! -f "$BASELINE" ]; then
  echo "bench_regress: no baseline at $BASELINE" >&2
  exit 1
fi

BIN_DIR="$(mktemp -d)"
trap 'rm -rf "$BIN_DIR"' EXIT

go build -o "$BIN_DIR/benchjson" ./cmd/benchjson

go test -run '^$' -bench 'ServeQueriesParallel|ServeQueriesBatch' -benchtime "$BENCHTIME" . |
  tee "$BIN_DIR/bench_run.txt"

# One benchjson pass per gate over the same run.
for gate in $GATES; do
  "$BIN_DIR/benchjson" \
    -out "$BIN_DIR/bench_run.json" \
    -baseline "$BASELINE" \
    -gate "$gate" \
    -gate-metric "$GATE_METRIC" \
    -max-regress-pct "$MAX_REGRESS_PCT" <"$BIN_DIR/bench_run.txt" >/dev/null
done
