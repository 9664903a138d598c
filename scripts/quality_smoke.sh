#!/usr/bin/env bash
# Model-quality observability smoke: boots a server on the tiny dataset (the
# cold start runs the first re-inference synchronously), triggers a second
# re-inference over the same data, and asserts the quality surface came up
# end to end — GET /v1/debug/swaps holds a churn report per swap, and the
# churn / confidence / data-quality metric families are present and sampled
# in /v1/metrics. Run via `make smoke-quality`.
set -euo pipefail

PORT="${PORT:-18380}"
TMP="$(mktemp -d)"
trap 'kill "${SERVER_PID:-}" 2>/dev/null || true; rm -rf "$TMP"' EXIT

go build -o "$TMP/dlinfma" ./cmd/dlinfma
go build -o "$TMP/metricscheck" ./cmd/metricscheck

"$TMP/dlinfma" generate -profile tiny -out "$TMP/data.json.gz" >/dev/null
"$TMP/dlinfma" serve -data "$TMP/data.json.gz" -listen "127.0.0.1:$PORT" \
  -low-confidence 0.5 >"$TMP/server.log" 2>&1 &
SERVER_PID=$!

# Wait for readiness: the cold start trains before the listener answers ready.
READY=""
for _ in $(seq 1 600); do
  if curl -fsS "http://127.0.0.1:$PORT/v1/healthz" >/dev/null 2>&1; then
    READY=1
    break
  fi
  sleep 0.2
done
if [ -z "$READY" ]; then
  echo "quality smoke: server never became ready" >&2
  cat "$TMP/server.log" >&2
  exit 1
fi

# Swap #1 (the cold-start re-inference) must already have a churn report.
curl -fsS "http://127.0.0.1:$PORT/v1/debug/swaps" >"$TMP/swaps1.json"
if ! grep -q '"count":1' "$TMP/swaps1.json"; then
  echo "quality smoke: expected one swap report after cold start: $(cat "$TMP/swaps1.json")" >&2
  exit 1
fi

# Swap #2: a background re-inference over the same accumulated data.
CODE="$(curl -sS -o /dev/null -w '%{http_code}' -X POST "http://127.0.0.1:$PORT/v1/reinfer")"
if [ "$CODE" != "202" ] && [ "$CODE" != "409" ]; then
  echo "quality smoke: POST /v1/reinfer answered $CODE" >&2
  exit 1
fi
DONE=""
for _ in $(seq 1 600); do
  if curl -fsS "http://127.0.0.1:$PORT/v1/reinfer" | grep -q '"state": *"done"'; then
    DONE=1
    break
  fi
  sleep 0.2
done
if [ -z "$DONE" ]; then
  echo "quality smoke: second re-inference never finished" >&2
  cat "$TMP/server.log" >&2
  exit 1
fi

curl -fsS "http://127.0.0.1:$PORT/v1/debug/swaps" >"$TMP/swaps2.json"
if ! grep -q '"count":2' "$TMP/swaps2.json"; then
  echo "quality smoke: expected two swap reports: $(cat "$TMP/swaps2.json")" >&2
  exit 1
fi
for field in '"kind":"reinfer"' '"churn_ratio"' '"retained"' '"before"' '"after"'; do
  if ! grep -q "$field" "$TMP/swaps2.json"; then
    echo "quality smoke: swap report missing $field: $(cat "$TMP/swaps2.json")" >&2
    exit 1
  fi
done
# The ?limit= contract: asking for one report answers exactly the newest.
if ! curl -fsS "http://127.0.0.1:$PORT/v1/debug/swaps?limit=1" | grep -q '"count":1'; then
  echo "quality smoke: ?limit=1 did not bound the report list" >&2
  exit 1
fi

# A couple of reads so the query-path counters tick.
curl -sS -o /dev/null "http://127.0.0.1:$PORT/v1/locations/1" || true
curl -sS -o /dev/null -X POST -d '{"addrs":[1,2,3]}' "http://127.0.0.1:$PORT/v1/locations:batch" || true

# The exposition must parse and carry every quality family on top of the
# baseline HTTP contract.
"$TMP/metricscheck" -url "http://127.0.0.1:$PORT/v1/metrics" -require \
"dlinfma_http_requests_total,dlinfma_http_request_duration_seconds,dlinfma_http_in_flight_requests,\
dlinfma_engine_queries_total,dlinfma_engine_reinfer_duration_seconds,\
dlinfma_reinfer_churn_ratio,dlinfma_reinfer_moved_distance_meters,dlinfma_reinfer_confidence,\
dlinfma_serving_low_confidence_addresses,dlinfma_engine_low_confidence_queries_total,\
dlinfma_pipeline_noise_points_total,dlinfma_pipeline_stay_points_total,dlinfma_pipeline_stays_per_trip,\
dlinfma_engine_ingest_shard_trips,dlinfma_engine_ingest_skew"

# Registered families is not enough — the swaps must have produced samples.
curl -fsS "http://127.0.0.1:$PORT/v1/metrics" >"$TMP/metrics.txt"
if ! grep -q '^dlinfma_reinfer_churn_ratio{shard="global"}' "$TMP/metrics.txt"; then
  echo "quality smoke: churn ratio gauge has no sample" >&2
  exit 1
fi
if ! grep -q '^dlinfma_reinfer_confidence_count{shard="global"} [1-9]' "$TMP/metrics.txt"; then
  echo "quality smoke: confidence histogram recorded nothing" >&2
  exit 1
fi
if ! grep -q '^dlinfma_pipeline_stays_per_trip_count [1-9]' "$TMP/metrics.txt"; then
  echo "quality smoke: stays-per-trip histogram recorded nothing" >&2
  exit 1
fi
# The boot ingested Tiny in batch windows, so every trip was timed through
# the stay-point extractor; and the re-inference's swap split: the cold
# start and the reinfer above each froze a store and diffed it against the
# one they replaced.
for stage in stay_extract freeze diff; do
  if ! grep -q "^dlinfma_pipeline_stage_duration_seconds_count{stage=\"$stage\"} [1-9]" "$TMP/metrics.txt"; then
    echo "quality smoke: pipeline stage $stage recorded nothing" >&2
    exit 1
  fi
done
echo "quality smoke: OK"
