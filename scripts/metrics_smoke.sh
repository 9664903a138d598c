#!/usr/bin/env bash
# Boots a dlinfma server with no dataset, from a one-address snapshot somebody
# reformatted (the restore families must say encoding/json read it), drives a
# few requests through the /v1 surface (plus a retired pre-/v1 path, which must
# answer the 404 envelope and count under route="other"), then scrapes
# /v1/metrics with metricscheck: the build fails if the exposition doesn't
# parse or a required family is missing — the baseline HTTP contract, the
# per-burst ingest families one streamed session populates, and the
# write-ahead-log families of both logs under -wal-dir. Also sends one
# traced request (synthetic traceparent + X-Request-ID) and asserts the
# correlation headers echo back and the trace lands in /v1/debug/traces. Run
# via `make smoke-metrics`.
set -euo pipefail

PORT="${PORT:-18080}"
BIN_DIR="$(mktemp -d)"
# SIGTERM makes the server save its shutdown snapshot into $BIN_DIR: wait for
# it to exit before removing the directory, or the save can outlive the rm.
trap 'kill "${SERVER_PID:-}" 2>/dev/null || true; wait "${SERVER_PID:-}" 2>/dev/null || true; rm -rf "$BIN_DIR"' EXIT

go build -o "$BIN_DIR/dlinfma" ./cmd/dlinfma
go build -o "$BIN_DIR/metricscheck" ./cmd/metricscheck

# A version-1 snapshot that is not in the writers' form (the space): the
# strict reader declines it and encoding/json restores it.
printf '%s\n' '{ "version":1,"name":"smoke","addresses":[{"ID":1,"Building":1,"Geocode":{"X":1,"Y":2},"POI":0,"GeocodeMode":0}],"locations":{"1":[3,4]}}' >"$BIN_DIR/state.json"

"$BIN_DIR/dlinfma" serve -data "" -snapshot "$BIN_DIR/state.json" -wal-dir "$BIN_DIR/wal" -listen "127.0.0.1:$PORT" -log-level debug \
  -trace-sample 1 -trace-buffer 64 2>"$BIN_DIR/server.log" &
SERVER_PID=$!

# Wait for the listener (cold start with -data "" is immediate, but be safe).
for _ in $(seq 1 50); do
  if curl -fsS "http://127.0.0.1:$PORT/v1/healthz" >/dev/null 2>&1; then
    break
  fi
  if curl -sS -o /dev/null "http://127.0.0.1:$PORT/v1/healthz" 2>/dev/null; then
    break # 503 from a cold engine still means the listener is up
  fi
  sleep 0.1
done

# other404 prints the request counter of unmatched paths answered 404 (0
# before the first one).
other404() {
  curl -fsS "http://127.0.0.1:$PORT/v1/metrics" |
    awk '/^dlinfma_http_requests_total\{/ && /route="other"/ && /code="404"/ { n = $NF } END { print n + 0 }'
}

# Drive traffic: v1 query (503/404 paths count too), batch, a retired
# pre-/v1 path, health, an unmatched route — enough to populate every HTTP
# family.
curl -sS -o /dev/null "http://127.0.0.1:$PORT/v1/locations/1" || true
curl -sS -o /dev/null -X POST -d '{"addrs":[1,2,3]}' "http://127.0.0.1:$PORT/v1/locations:batch" || true
OTHER_BEFORE="$(other404)"
RETIRED_CODE="$(curl -sS -o "$BIN_DIR/retired.json" -w '%{http_code}' "http://127.0.0.1:$PORT/location?addr=1")"
RETIRED_BODY="$(cat "$BIN_DIR/retired.json")"
if [ "$RETIRED_CODE" != "404" ] ||
  [ "$RETIRED_BODY" != '{"error":{"code":"not_found","message":"no such route","details":{"path":"/location"}}}' ]; then
  echo "metrics smoke: retired /location answered $RETIRED_CODE $RETIRED_BODY, want the 404 envelope" >&2
  exit 1
fi
if [ "$(other404)" -le "$OTHER_BEFORE" ]; then
  echo "metrics smoke: 404 for /location did not move dlinfma_http_requests_total{route=\"other\",code=\"404\"}" >&2
  exit 1
fi
curl -sS -o /dev/null "http://127.0.0.1:$PORT/v1/healthz" || true
curl -sS -o /dev/null "http://127.0.0.1:$PORT/no/such/route" || true
# One streamed session: a burst of two fixes and an end marker.
STREAM_ACK="$(curl -sS -X POST --data-binary $'{"courier":1,"x":1,"y":2,"t":3}\n{"courier":1,"x":1,"y":2,"t":13}\n{"courier":1,"end":true}\n' \
  "http://127.0.0.1:$PORT/v1/trajectories:stream")"
if [ "$STREAM_ACK" != '{"points":2,"ends":1}' ]; then
  echo "metrics smoke: stream session answered $STREAM_ACK" >&2
  exit 1
fi

# Traced request: the server must echo the correlation id, continue the
# incoming trace id in its Traceparent echo, and (the root span publishes
# after the response flushes, so retry briefly) surface the trace through
# the debug API with the route as its root span.
TRACE_ID="4bf92f3577b34da6a3ce929d0e0e4736"
HEADERS="$(curl -sS -D - -o /dev/null \
  -H "traceparent: 00-$TRACE_ID-00f067aa0ba902b7-01" \
  -H "X-Request-ID: smoke-req-1" \
  "http://127.0.0.1:$PORT/v1/locations/1" || true)"
if ! grep -qi "^X-Request-ID: smoke-req-1" <<<"$HEADERS"; then
  echo "trace smoke: X-Request-ID not echoed" >&2
  exit 1
fi
if ! grep -qi "^Traceparent: 00-$TRACE_ID-" <<<"$HEADERS"; then
  echo "trace smoke: response traceparent does not continue the trace" >&2
  exit 1
fi

FOUND=""
for _ in $(seq 1 50); do
  if grep -q "$TRACE_ID" <<<"$(curl -fsS "http://127.0.0.1:$PORT/v1/debug/traces")"; then
    FOUND=1
    break
  fi
  sleep 0.1
done
if [ -z "$FOUND" ]; then
  echo "trace smoke: trace $TRACE_ID never reached /v1/debug/traces" >&2
  exit 1
fi
if ! grep -q "/v1/locations/{key}" <<<"$(curl -fsS "http://127.0.0.1:$PORT/v1/debug/traces/$TRACE_ID")"; then
  echo "trace smoke: span tree missing the route's root span" >&2
  exit 1
fi
echo "trace smoke: OK"

"$BIN_DIR/metricscheck" -url "http://127.0.0.1:$PORT/v1/metrics"
"$BIN_DIR/metricscheck" -url "http://127.0.0.1:$PORT/v1/metrics" -require \
  "dlinfma_engine_ingest_lock_wait_seconds,dlinfma_engine_ingest_lock_hold_seconds,dlinfma_engine_stream_burst_ops" >/dev/null
# Each log counts apart: the fix log and the window log, its retained bytes,
# compaction point and deleted segments among them.
WAL_FAMILIES=""
for log in fix window; do
  for family in dlinfma_wal_appends_total dlinfma_wal_append_bytes_total dlinfma_wal_fsyncs_total \
    dlinfma_wal_retained_bytes dlinfma_wal_compacted_seq dlinfma_wal_segments_deleted_total; do
    WAL_FAMILIES+="$family{log=\"$log\"},"
  done
done
"$BIN_DIR/metricscheck" -url "http://127.0.0.1:$PORT/v1/metrics" -require "$WAL_FAMILIES" >/dev/null
# Each check reads a whole scrape first: grep -q stops reading at its first
# match, and a curl still writing into the closed pipe fails the pipeline.
METRICS="$(curl -fsS "http://127.0.0.1:$PORT/v1/metrics")"
if ! grep -q '^dlinfma_engine_stream_burst_ops_count [1-9]' <<<"$METRICS"; then
  echo "metrics smoke: the streamed session left no burst observation" >&2
  exit 1
fi
# The boot restore: one timed restore, through the fallback decoder, and the
# log line that names it.
if ! grep -q '^dlinfma_engine_snapshot_restore_duration_seconds_count 1$' <<<"$METRICS" ||
  ! grep -q '^dlinfma_engine_snapshot_decoder_fallback_total 1$' <<<"$METRICS"; then
  echo "metrics smoke: the reformatted snapshot's restore is not in the restore families:" >&2
  grep '^dlinfma_engine_snapshot_' <<<"$METRICS" >&2 || true
  exit 1
fi
if ! grep 'snapshot restored' "$BIN_DIR/server.log" | grep -q 'decoder=json.*dur='; then
  echo "metrics smoke: no 'snapshot restored' log line with decoder=json and dur" >&2
  exit 1
fi
echo "metrics smoke: OK"
