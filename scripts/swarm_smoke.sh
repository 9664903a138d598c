#!/usr/bin/env bash
# End-to-end smoke for the load-generation swarm: boots a server on the tiny
# dataset, drives a short fixed-rate open-loop swarm against it and asserts
# the run completed with zero errors, zero dropped arrivals and a stage p99
# that is a believable loopback latency in the unit its key names (p99_ms:
# above 0, under one second). Run via `make smoke-swarm`.
set -euo pipefail

PORT="${PORT:-18290}"
RATE="${RATE:-40}"
DURATION="${DURATION:-3s}"
TMP="$(mktemp -d)"
trap 'kill "${SERVER_PID:-}" 2>/dev/null || true; rm -rf "$TMP"' EXIT

go build -o "$TMP/dlinfma" ./cmd/dlinfma
go build -o "$TMP/swarm" ./cmd/swarm

"$TMP/dlinfma" generate -profile tiny -out "$TMP/data.json.gz" >/dev/null
"$TMP/dlinfma" serve -data "$TMP/data.json.gz" -listen "127.0.0.1:$PORT" >"$TMP/server.log" 2>&1 &
SERVER_PID=$!

# Fixed-rate leg: the swarm itself waits for /v1/healthz readiness.
if ! "$TMP/swarm" -target "http://127.0.0.1:$PORT" -rate "$RATE" -duration "$DURATION" \
  -mix 'lookup=80,batch=10,stream=10' -wait 60s >"$TMP/fixed.json" 2>"$TMP/fixed.log"; then
  echo "swarm smoke: fixed-rate run failed" >&2
  cat "$TMP/fixed.log" "$TMP/server.log" >&2
  exit 1
fi
REQS="$(grep -o '"requests": [0-9]*' "$TMP/fixed.json" | head -1 | grep -o '[0-9]*')"
ERRS="$(grep -o '"errors": [0-9]*' "$TMP/fixed.json" | head -1 | grep -o '[0-9]*')"
DROPS="$(grep -o '"dropped": [0-9]*' "$TMP/fixed.json" | head -1 | grep -o '[0-9]*')"
if [ -z "$REQS" ] || [ "$REQS" -eq 0 ]; then
  echo "swarm smoke: no requests completed: $(cat "$TMP/fixed.json")" >&2
  exit 1
fi
if [ "$ERRS" != "0" ] || [ "$DROPS" != "0" ]; then
  echo "swarm smoke: fixed-rate run had errors=$ERRS dropped=$DROPS" >&2
  cat "$TMP/fixed.json" >&2
  exit 1
fi

# Read p99_ms out of the "stage" object only (the per-endpoint summaries carry
# the same key); a raw time.Duration under it would read in the hundreds of
# thousands.
P99="$(sed -n '/"stage": {/,/}/p' "$TMP/fixed.json" | grep -o '"p99_ms": [0-9.e+-]*' | sed 's/.*: //')"
if [ -z "$P99" ] || ! awk -v p="$P99" 'BEGIN { exit !(p > 0 && p < 1000) }'; then
  echo "swarm smoke: stage p99_ms=${P99:-missing}, want a loopback latency in (0, 1000) ms" >&2
  cat "$TMP/fixed.json" >&2
  exit 1
fi

echo "swarm smoke: OK ($REQS requests, 0 errors, p99 ${P99} ms)"
