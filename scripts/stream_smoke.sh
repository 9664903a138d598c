#!/usr/bin/env bash
# End-to-end durability smoke for the streaming ingest path: boots a server
# with a write-ahead log, streams two complete courier trips plus one
# still-open stream over POST /v1/trajectories:stream, then one more trip as
# a body of over 200 KiB (several reads of the session's 64 KiB buffer, lines
# split across them), kills the server with SIGKILL (no shutdown, no
# snapshot), restarts it on the same -wal-dir, and asserts the replayed engine
# still holds every acknowledged point: the same pending trips, the same open
# stream, and a replay count matching exactly what was acked. A second leg
# streams four trips over three 14-day windows, so two window cuts each write
# a window record and, once sealed, a seal record, SIGKILLs the server and
# restarts it: every acknowledged trip is back, the restart applied the two
# window records, installed both seals from their seal records and
# clustered none, and replayed only the fix log past the last window record,
# and the fix log retains fewer bytes than it appended. A third leg
# cold-starts a server on the tiny dataset with a snapshot path, a log and a
# backlog bound below its trip count, at one shard and then at two, stops it
# with SIGTERM (which saves the snapshot as state.json and no other file),
# restarts it on the same flags, and asserts the log still holds the
# evidence: the replay line is printed and says every seal was installed
# from its seal record and none clustered, -data is skipped, the trip count
# survives, the replayed trips the snapshot was trained on are not pending
# again (so a streamed fix is taken, not refused with 429), and a
# re-inference over the replayed evidence ends done; the cold start's batch
# windows must have written window records, of under a tenth of the bytes
# their JSON records took. Run via
# `make smoke-stream`.
set -euo pipefail

PORT="${PORT:-18081}"
BIN_DIR="$(mktemp -d)"
WAL_DIR="$(mktemp -d)"
trap 'kill -9 "${SERVER_PID:-}" 2>/dev/null || true; rm -rf "$BIN_DIR" "$WAL_DIR"' EXIT

go build -o "$BIN_DIR/dlinfma" ./cmd/dlinfma

# start_server LOG FLAGS... runs `serve` on $PORT with FLAGS and waits for
# its listener (a cold start on a dataset trains first).
start_server() {
  local log="$1"
  shift
  "$BIN_DIR/dlinfma" serve -listen "127.0.0.1:$PORT" "$@" >"$log" 2>&1 &
  SERVER_PID=$!
  disown "$SERVER_PID" # keep bash from reporting the deliberate SIGKILL
  for _ in $(seq 1 300); do
    # A cold engine answers 503 on /v1/healthz; any response means the
    # listener is up.
    if curl -sS -o /dev/null "http://127.0.0.1:$PORT/v1/healthz" 2>/dev/null; then
      return
    fi
    sleep 0.1
  done
  echo "stream smoke: server never came up" >&2
  cat "$log" >&2
  exit 1
}

# stop_server SIGNAL sends SIGNAL to the server and waits for it to exit.
stop_server() {
  kill "-$1" "$SERVER_PID"
  while kill -0 "$SERVER_PID" 2>/dev/null; do sleep 0.05; done
}

start_server "$BIN_DIR/server1.log" -data "" -wal-dir "$WAL_DIR" -wal-fsync always

# Two complete trips (10 fixes each, explicit end), one open stream
# (3 fixes, no end) and a stray end for a courier that never sent a fix:
# 23 points + 3 ends = 26 WAL records. The stray end changes nothing, but it
# is acknowledged, so it is logged and replayed like every other line.
BODY='{"courier":9,"end":true}'$'\n'
for i in $(seq 0 9); do
  BODY+="{\"courier\":1,\"x\":100,\"y\":100,\"t\":$((i * 10))}"$'\n'
done
BODY+='{"courier":1,"end":true}'$'\n'
for i in $(seq 0 9); do
  BODY+="{\"courier\":2,\"x\":400,\"y\":250,\"t\":$((500 + i * 10))}"$'\n'
done
BODY+='{"courier":2,"end":true}'$'\n'
for i in $(seq 0 2); do
  BODY+="{\"courier\":3,\"x\":100,\"y\":100,\"t\":$((900 + i * 10))}"$'\n'
done

ACK="$(curl -sS -X POST --data-binary "$BODY" "http://127.0.0.1:$PORT/v1/trajectories:stream")"
if ! grep -q '"points":23' <<<"$ACK" || ! grep -q '"ends":3' <<<"$ACK"; then
  echo "stream smoke: unexpected ack: $ACK" >&2
  exit 1
fi

# A fourth courier's trip as one big body: 4000 fixes of 55+ bytes and an end
# marker, > 200 KiB, so the session reads it in several bursts and lines
# straddle the reads. Every line must be acknowledged, and logged.
BIG="$BIN_DIR/big.ndjson"
awk 'BEGIN { for (i = 0; i < 4000; i++) printf "{\"courier\":4,\"x\":700.%04d,\"y\":-12345.678,\"t\":%d.125}\n", i, 2000 + i * 10;
             print "{\"courier\":4,\"end\":true}" }' >"$BIG"
if [ "$(wc -c <"$BIG")" -lt 204800 ]; then
  echo "stream smoke: big body is only $(wc -c <"$BIG") bytes" >&2
  exit 1
fi
BIG_ACK="$(curl -sS -X POST -H 'Expect:' --data-binary "@$BIG" "http://127.0.0.1:$PORT/v1/trajectories:stream")"
if [ "$BIG_ACK" != '{"points":4000,"ends":1}' ]; then
  echo "stream smoke: big body ack: $BIG_ACK" >&2
  exit 1
fi
ACKED=$((23 + 3 + 4000 + 1))

BEFORE="$(curl -sS "http://127.0.0.1:$PORT/v1/healthz")"
if ! grep -q '"pending_trips":3' <<<"$BEFORE" || ! grep -q '"open_streams":1' <<<"$BEFORE"; then
  echo "stream smoke: pre-kill status wrong: $BEFORE" >&2
  exit 1
fi

# Crash: no graceful shutdown, no snapshot — the WAL is all that survives.
stop_server KILL

start_server "$BIN_DIR/server2.log" -data "" -wal-dir "$WAL_DIR" -wal-fsync always

if ! grep -q "replayed $ACKED WAL records" "$BIN_DIR/server2.log"; then
  echo "stream smoke: restart did not replay all $ACKED acked records" >&2
  cat "$BIN_DIR/server2.log" >&2
  exit 1
fi
if ! grep -Eq "replayed $ACKED WAL records from .* in [0-9.]+m?s" "$BIN_DIR/server2.log"; then
  echo "stream smoke: the replay line does not say how long the replay took" >&2
  exit 1
fi
# The replay publishes its record count and wall time.
REPLAY_METRICS="$(curl -fsS "http://127.0.0.1:$PORT/v1/metrics")"
if ! grep -q "^dlinfma_engine_wal_replayed_records $ACKED\$" <<<"$REPLAY_METRICS" ||
  ! grep -Eq '^dlinfma_engine_wal_replay_seconds [0-9]' <<<"$REPLAY_METRICS"; then
  echo "stream smoke: replay gauges missing or wrong:" >&2
  grep '^dlinfma_engine_wal_replay' <<<"$REPLAY_METRICS" >&2 || true
  exit 1
fi
AFTER="$(curl -sS "http://127.0.0.1:$PORT/v1/healthz")"
if ! grep -q '"pending_trips":3' <<<"$AFTER" || ! grep -q '"open_streams":1' <<<"$AFTER"; then
  echo "stream smoke: acked state lost across the crash: $AFTER" >&2
  exit 1
fi

# The recovered stream keeps going: closing courier 3 yields a fourth trip.
CLOSE="$(curl -sS -X POST --data-binary '{"courier":3,"end":true}' "http://127.0.0.1:$PORT/v1/trajectories:stream")"
if ! grep -q '"ends":1' <<<"$CLOSE"; then
  echo "stream smoke: close after recovery failed: $CLOSE" >&2
  exit 1
fi
FINAL="$(curl -sS "http://127.0.0.1:$PORT/v1/healthz")"
# open_streams is omitempty: absence means zero.
if ! grep -q '"pending_trips":4' <<<"$FINAL" || grep -q '"open_streams"' <<<"$FINAL"; then
  echo "stream smoke: post-recovery close not reflected: $FINAL" >&2
  exit 1
fi

stop_server KILL

# Leg two: bounded history. Four trips of ten fixes at one spot, on days 0,
# 15, 30 and 31: the second and third trips each start a new 14-day window,
# so their bursts cut one and write a window record that resumes the fix log
# past the burst; the fourth stays in the third's window.
# metric NAME prints the value of the exposition line starting NAME.
metric() {
  curl -fsS "http://127.0.0.1:$PORT/v1/metrics" | awk -v name="$1" 'index($0, name " ") == 1 { print $2 }'
}
start_server "$BIN_DIR/server-h1.log" -data "" -wal-dir "$BIN_DIR/wal-history" -wal-fsync always
for day in 0 15 30 31; do
  TRIP=""
  for i in $(seq 0 9); do
    TRIP+="{\"courier\":$((day + 10)),\"x\":$((100 + day)),\"y\":100,\"t\":$((day * 86400 + i * 10))}"$'\n'
  done
  TRIP+="{\"courier\":$((day + 10)),\"end\":true}"$'\n'
  TRIP_ACK="$(curl -sS -X POST --data-binary "$TRIP" "http://127.0.0.1:$PORT/v1/trajectories:stream")"
  if [ "$TRIP_ACK" != '{"points":10,"ends":1}' ]; then
    echo "stream smoke: the day-$day trip answered $TRIP_ACK" >&2
    exit 1
  fi
done
APPENDED="$(metric 'dlinfma_wal_append_bytes_total{log="fix"}')"
WINDOWS="$(metric dlinfma_engine_window_records_total)"
if [ "$APPENDED" != 1532 ] || [ "$WINDOWS" != 2 ]; then
  echo "stream smoke: the fix log took ${APPENDED:-no} bytes (want 4 x 383) and the window log ${WINDOWS:-no} window records (want 2)" >&2
  exit 1
fi
# Each cut's window is sealed beside ingest, and its sealer then appends a
# seal record to the window log: wait for both, so the window log holds 4.
for _ in $(seq 1 100); do
  WINDOW_APPENDS="$(metric 'dlinfma_wal_appends_total{log="window"}')"
  [ "$WINDOW_APPENDS" = 4 ] && break
  sleep 0.05
done
if [ "$WINDOW_APPENDS" != 4 ]; then
  echo "stream smoke: the window log took ${WINDOW_APPENDS:-no} records (want 2 window and 2 seal records)" >&2
  exit 1
fi
stop_server KILL

start_server "$BIN_DIR/server-h2.log" -data "" -wal-dir "$BIN_DIR/wal-history" -wal-fsync always
# Two window records, then the fourth trip's eleven fix records.
if ! grep -q "replayed 13 WAL records from $BIN_DIR/wal-history" "$BIN_DIR/server-h2.log"; then
  echo "stream smoke: the restart did not replay 2 window records and 11 fix records" >&2
  cat "$BIN_DIR/server-h2.log" >&2
  exit 1
fi
# Both cuts' seals install their seal records instead of clustering.
SEALS="$(metric dlinfma_engine_replayed_seals_total)"
if [ "$SEALS" != 2 ] || ! grep -q "in [0-9.]*m\?s: 2 pool-window seals installed, 0 clustered" "$BIN_DIR/server-h2.log"; then
  echo "stream smoke: the restart installed ${SEALS:-no} seal records (want 2, and none clustered)" >&2
  cat "$BIN_DIR/server-h2.log" >&2
  exit 1
fi
HISTORY="$(curl -sS "http://127.0.0.1:$PORT/v1/healthz")"
if ! grep -q '"trips":4' <<<"$HISTORY" || ! grep -q '"pending_trips":4' <<<"$HISTORY"; then
  echo "stream smoke: acknowledged trips lost across the compacted restart: $HISTORY" >&2
  exit 1
fi
RETAINED="$(metric 'dlinfma_wal_retained_bytes{log="fix"}')"
if [ -z "$RETAINED" ] || [ "$RETAINED" -ge "$APPENDED" ]; then
  echo "stream smoke: the fix log retains ${RETAINED:-no} bytes of the $APPENDED it appended" >&2
  exit 1
fi
stop_server KILL

# Leg three: snapshot, restart, re-inference, at one shard and at two. The
# snapshot holds the serving state only; the evidence a re-inference needs
# survives in the log.
"$BIN_DIR/dlinfma" generate -profile tiny -out "$BIN_DIR/tiny.json.gz" >/dev/null

# snapshot_leg SHARDS runs leg three at -shards SHARDS, on a state file and
# log directory of its own.
snapshot_leg() {
  local shards="$1"
  local dir="$BIN_DIR/snap-shards$shards"
  mkdir -p "$dir"
  local SNAP_FLAGS=(-shards "$shards" -data "$BIN_DIR/tiny.json.gz" -snapshot "$dir/state.json" -wal-dir "$dir/wal" -max-pending-trips 20)
  start_server "$dir/server3.log" "${SNAP_FLAGS[@]}"
  local TRIPS
  TRIPS="$(curl -sS "http://127.0.0.1:$PORT/v1/healthz" | grep -o '"trips":[0-9]*' | head -1)"
  if [ -z "$TRIPS" ] || [ "$TRIPS" = '"trips":0' ]; then
    echo "stream smoke (-shards $shards): cold start on the tiny dataset holds no trips" >&2
    exit 1
  fi
  # The dataset's batch windows, addresses and truth are compacted window
  # records: under a tenth of the 490,870 bytes of JSON the fix log took for
  # them while batch windows had a JSON record.
  local WINDOW_RECORDS WINDOW_BYTES
  WINDOW_RECORDS="$(metric dlinfma_engine_window_records_total)"
  WINDOW_BYTES="$(metric 'dlinfma_wal_append_bytes_total{log="window"}')"
  if [ -z "$WINDOW_RECORDS" ] || [ "$WINDOW_RECORDS" -le 0 ] || [ -z "$WINDOW_BYTES" ] || [ "$WINDOW_BYTES" -ge 49087 ]; then
    echo "stream smoke (-shards $shards): the cold start wrote ${WINDOW_RECORDS:-no} window records of ${WINDOW_BYTES:-no} bytes (want some, under 49087)" >&2
    exit 1
  fi
  echo "stream smoke (-shards $shards): the cold start wrote $WINDOW_RECORDS window records, $WINDOW_BYTES bytes"
  stop_server TERM
  if ! grep -q "saved serving state to $dir/state.json" "$dir/server3.log"; then
    echo "stream smoke (-shards $shards): SIGTERM did not save the snapshot" >&2
    cat "$dir/server3.log" >&2
    exit 1
  fi
  # The snapshot is one file at every shard count, no temp file or
  # per-shard sibling beside it: the shard's version-1 document, or the
  # version-2 manifest with every shard's document inline.
  if [ ! -s "$dir/state.json" ] || compgen -G "$dir/state.json.*" >/dev/null; then
    echo "stream smoke (-shards $shards): the save left more than state.json:" >&2
    ls "$dir" >&2
    exit 1
  fi
  local version=1
  [ "$shards" -gt 1 ] && version=2
  if [ "$(head -c 12 "$dir/state.json")" != "{\"version\":$version" ]; then
    echo "stream smoke (-shards $shards): state.json is not a version-$version document: $(head -c 40 "$dir/state.json")" >&2
    exit 1
  fi

  start_server "$dir/server4.log" "${SNAP_FLAGS[@]}"
  if ! grep -q "restored serving state from $dir/state.json" "$dir/server4.log" ||
    ! grep -Eq "replayed [0-9]+ WAL records from $dir/wal in [0-9.]+m?s: [1-9][0-9]* pool-window seals installed, 0 clustered" "$dir/server4.log" ||
    ! grep -q "skipping -data" "$dir/server4.log"; then
    echo "stream smoke (-shards $shards): restart did not restore the snapshot, replay the log installing every seal, and skip -data" >&2
    cat "$dir/server4.log" >&2
    exit 1
  fi
  local HEALTH_AFTER TRIPS_AFTER
  HEALTH_AFTER="$(curl -sS "http://127.0.0.1:$PORT/v1/healthz")"
  TRIPS_AFTER="$(grep -o '"trips":[0-9]*' <<<"$HEALTH_AFTER" | head -1)"
  if [ "$TRIPS_AFTER" != "$TRIPS" ]; then
    echo "stream smoke (-shards $shards): $TRIPS before the restart, ${TRIPS_AFTER:-none} after" >&2
    exit 1
  fi
  # The snapshot covers every replayed trip: no backlog, and the bound admits
  # a streamed fix.
  if [ "$(grep -o '"pending_trips":[0-9]*' <<<"$HEALTH_AFTER" | head -1)" != '"pending_trips":0' ]; then
    echo "stream smoke (-shards $shards): the restart counts the snapshotted trips as pending: $HEALTH_AFTER" >&2
    exit 1
  fi
  local FIX_CODE JOB
  FIX_CODE="$(curl -sS -o "$dir/fix.json" -w '%{http_code}' -X POST --data-binary '{"courier":77,"x":1,"y":2,"t":3}' "http://127.0.0.1:$PORT/v1/trajectories:stream")"
  if [ "$FIX_CODE" != 200 ]; then
    echo "stream smoke (-shards $shards): a streamed fix after the restart answered $FIX_CODE: $(cat "$dir/fix.json")" >&2
    exit 1
  fi
  JOB="$(curl -sS -X POST "http://127.0.0.1:$PORT/v1/reinfer")"
  if ! grep -q '"state":"running"' <<<"$JOB"; then
    echo "stream smoke (-shards $shards): reinfer after the restart did not start: $JOB" >&2
    exit 1
  fi
  for _ in $(seq 1 600); do
    JOB="$(curl -sS "http://127.0.0.1:$PORT/v1/reinfer")"
    grep -q '"state":"running"' <<<"$JOB" || break
    sleep 0.1
  done
  if ! grep -q '"state":"done"' <<<"$JOB"; then
    echo "stream smoke (-shards $shards): reinfer after the restart ended: $JOB" >&2
    exit 1
  fi
  stop_server KILL
}

snapshot_leg 1
snapshot_leg 2

echo "stream smoke: OK"
