#!/usr/bin/env bash
# Re-runs the parallel-client and batched serving benchmarks, the
# streamed-ingest benchmark, the LocMatcher training benchmark and the
# snapshot-restore benchmark once and gates one row of each — the single-shard
# queries/sec of the two reads, the two-shard fixes/sec of the ingest, the
# serial (workers=1) ns/op of one training epoch, the addrs/s of a
# 200k-address restore — against the committed BENCH_locmatcher.json baseline:
# benchjson exits non-zero when a gated row regressed by more than
# MAX_REGRESS_PCT (default 15%; ns/op is lower-is-better, the ReportMetric
# units higher-is-better). A gate is "<benchmark name>@<metric>"; without "@"
# it takes GATE_METRIC. The fresh run is
# written to a temp file so the committed baseline is never clobbered by a
# gating run. Run via `make bench-regress`.
set -euo pipefail

BASELINE="${BASELINE:-BENCH_locmatcher.json}"
GATES="${GATES:-BenchmarkServeQueriesParallel/shards=1 BenchmarkServeQueriesBatch/shards=1 BenchmarkServeStreamIngest/shards=2@fixes/sec BenchmarkFitParallel/workers=1@ns/op BenchmarkRestoreSnapshot@addrs/s}"
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

go test -run '^$' -bench 'ServeQueriesParallel|ServeQueriesBatch|ServeStreamIngest|FitParallel|RestoreSnapshot' -benchtime "$BENCHTIME" . |
  tee "$BIN_DIR/bench_run.txt"

# One benchjson pass per gate over the same run.
for gate in $GATES; do
  metric="$GATE_METRIC"
  if [[ "$gate" == *@* ]]; then
    metric="${gate#*@}"
    gate="${gate%@*}"
  fi
  "$BIN_DIR/benchjson" \
    -out "$BIN_DIR/bench_run.json" \
    -baseline "$BASELINE" \
    -gate "$gate" \
    -gate-metric "$metric" \
    -max-regress-pct "$MAX_REGRESS_PCT" <"$BIN_DIR/bench_run.txt" >/dev/null
done
