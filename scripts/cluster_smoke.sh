#!/usr/bin/env bash
# End-to-end smoke for the cluster topology: boots two real shard-peer
# processes plus a frontend started with -peers and -replication 2, lets the
# frontend ingest and retrain the tiny dataset through the cluster (writes
# replicate to every replica), records every answer, SIGKILLs one peer, and
# asserts the surviving replica serves byte-identical answers through
# ring-ordered failover — and a whole snapshot — with the failover visible in
# /v1/metrics and the cross-process hop visible in /v1/debug/traces. Run via `make smoke-cluster`.
set -euo pipefail

FRONT_PORT="${FRONT_PORT:-18200}"
PEER_A_PORT="${PEER_A_PORT:-18201}"
PEER_B_PORT="${PEER_B_PORT:-18202}"
TMP="$(mktemp -d)"
trap 'kill -9 "${PEER_A_PID:-}" "${PEER_B_PID:-}" "${FRONT_PID:-}" 2>/dev/null || true; rm -rf "$TMP"' EXIT

go build -o "$TMP/dlinfma" ./cmd/dlinfma
"$TMP/dlinfma" generate -profile tiny -out "$TMP/data.json.gz" >/dev/null

start_peer() { # port logfile -> pid on stdout
  "$TMP/dlinfma" serve -data "" -listen "127.0.0.1:$1" >"$2" 2>&1 &
  local pid=$!
  disown "$pid" # the SIGKILL at the end is deliberate; keep bash quiet
  echo "$pid"
}

wait_listener() { # port name logfile
  for _ in $(seq 1 100); do
    # A cold peer answers 503 on /v1/healthz; any response means it is up.
    if curl -sS -o /dev/null "http://127.0.0.1:$1/v1/healthz" 2>/dev/null; then
      return
    fi
    sleep 0.1
  done
  echo "cluster smoke: $2 never came up" >&2
  cat "$3" >&2
  exit 1
}

PEER_A_PID="$(start_peer "$PEER_A_PORT" "$TMP/peer_a.log")"
PEER_B_PID="$(start_peer "$PEER_B_PORT" "$TMP/peer_b.log")"
wait_listener "$PEER_A_PORT" "peer A" "$TMP/peer_a.log"
wait_listener "$PEER_B_PORT" "peer B" "$TMP/peer_b.log"

# The frontend ingests and retrains through the cluster before it starts
# listening, so its listener appearing means the cluster is trained.
"$TMP/dlinfma" serve -data "$TMP/data.json.gz" -listen "127.0.0.1:$FRONT_PORT" \
  -peers "http://127.0.0.1:$PEER_A_PORT,http://127.0.0.1:$PEER_B_PORT" \
  -replication 2 -shards 4 \
  -trace-sample 1 -trace-buffer 64 >"$TMP/front.log" 2>&1 &
FRONT_PID=$!
disown "$FRONT_PID"
for _ in $(seq 1 600); do
  if curl -fsS "http://127.0.0.1:$FRONT_PORT/v1/healthz" >"$TMP/health.json" 2>/dev/null; then
    break
  fi
  sleep 0.5
done
if ! grep -q '"ready":true' "$TMP/health.json" 2>/dev/null; then
  echo "cluster smoke: frontend never became ready" >&2
  cat "$TMP/front.log" >&2
  exit 1
fi

# Replicated writes: both peers must hold the full (identical, non-empty)
# trip universe after the frontend's startup ingest.
trips_of() { curl -fsS "http://127.0.0.1:$1/v1/healthz" | sed -E 's/.*"trips":([0-9]+).*/\1/'; }
TRIPS_A="$(trips_of "$PEER_A_PORT")"
TRIPS_B="$(trips_of "$PEER_B_PORT")"
if [ -z "$TRIPS_A" ] || [ "$TRIPS_A" = "0" ] || [ "$TRIPS_A" != "$TRIPS_B" ]; then
  echo "cluster smoke: replicated ingest diverged (peer A: $TRIPS_A trips, peer B: $TRIPS_B)" >&2
  exit 1
fi

# Record every answer while both replicas are alive.
query_all() { # outfile
  : >"$1"
  for id in $(seq 0 120); do
    printf '%s ' "$id" >>"$1"
    curl -sS "http://127.0.0.1:$FRONT_PORT/v1/locations/$id" >>"$1"
    printf '\n' >>"$1"
  done
}
query_all "$TMP/before.txt"
if ! grep -q '"source"' "$TMP/before.txt"; then
  echo "cluster smoke: no address answered before the kill" >&2
  exit 1
fi

# The cross-process hop must be visible in the frontend's trace buffer: some
# buffered query trace must carry a cluster.rpc span under its root.
FOUND_RPC=""
for tid in $(curl -fsS "http://127.0.0.1:$FRONT_PORT/v1/debug/traces" \
  | grep -oE '"trace_id":"[0-9a-f]{32}"' | grep -oE '[0-9a-f]{32}'); do
  if curl -fsS "http://127.0.0.1:$FRONT_PORT/v1/debug/traces/$tid" | grep -q 'cluster.rpc'; then
    FOUND_RPC=1
    break
  fi
done
if [ -z "$FOUND_RPC" ]; then
  echo "cluster smoke: no cluster.rpc span in any /v1/debug/traces trace" >&2
  exit 1
fi

# Kill one replica owner outright: no shutdown, no drain.
kill -9 "$PEER_A_PID"
while kill -0 "$PEER_A_PID" 2>/dev/null; do sleep 0.05; done

query_all "$TMP/after.txt"
if ! diff -u "$TMP/before.txt" "$TMP/after.txt" >&2; then
  echo "cluster smoke: answers changed after killing peer A" >&2
  exit 1
fi
if ! curl -fsS "http://127.0.0.1:$FRONT_PORT/v1/healthz" | grep -q '"ready":true'; then
  echo "cluster smoke: frontend lost readiness after a single-peer failure" >&2
  exit 1
fi

# The snapshot fails over like a read: every shard still has a live replica,
# so the frontend's manifest answers 200 with no shard left out (null).
SNAP_CODE="$(curl -sS -o "$TMP/snapshot.json" -w '%{http_code}' "http://127.0.0.1:$FRONT_PORT/v1/snapshot")"
if [ "$SNAP_CODE" != 200 ] || grep -qE '[[,]null[],]' "$TMP/snapshot.json"; then
  echo "cluster smoke: snapshot after the kill answered $SNAP_CODE or left a shard out" >&2
  head -c 400 "$TMP/snapshot.json" >&2
  exit 1
fi

# The failover must have been counted: some shards' ring owner was peer A,
# so serving the full key range again forces replica attempts.
METRICS="$(curl -fsS "http://127.0.0.1:$FRONT_PORT/v1/metrics")"
if ! grep -E '^dlinfma_cluster_rpc_failovers_total [1-9]' <<<"$METRICS" >/dev/null; then
  echo "cluster smoke: no rpc failovers recorded after the kill" >&2
  grep '^dlinfma_cluster' <<<"$METRICS" >&2 || true
  exit 1
fi

echo "cluster smoke: OK (trips=$TRIPS_A replicated, answers stable across peer kill)"
