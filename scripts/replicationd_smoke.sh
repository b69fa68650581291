#!/usr/bin/env bash
# End-to-end replicationd smoke (registered as ctest `replicationd_smoke`,
# label `service`):
#
#   Phase 1 — boot the daemon on a Unix socket with an ephemeral metrics
#   port and --snapshot-every, stream 1k+ events through the socket,
#   scrape /metrics (including the snapshot writer's counters), and shut
#   down via SIGTERM (graceful: exit 0, final snapshot written).
#
#   Phase 2 — crash-safety + warm restart: run with --snapshot-every, kill
#   the daemon with SIGKILL mid-stream, restart with --restore, feed the
#   tail of the stream, and require the final snapshot to be byte-identical
#   to an uninterrupted reference run (docs/service.md).
#
#   Phase 3 — TCP ingest and the incremental delta chain end to end.
#   Boot with --tcp/--snapshot-deltas, SIGKILL mid-run at a delta
#   checkpoint, --restore from the base+delta chain, feed the tail, and
#   require the finalized base to be byte-identical to the same
#   uninterrupted reference run as phase 2.
#
# Environment: REPLICATIOND points at the built binary (the ctest wrapper
# sets it); defaults to build/apps/replicationd for manual runs.
set -euo pipefail

BIN="${REPLICATIOND:-build/apps/replicationd}"
if [[ ! -x "$BIN" ]]; then
  echo "replicationd_smoke: binary not found: $BIN" >&2
  exit 1
fi

WORK="$(mktemp -d "${TMPDIR:-/tmp}/replicationd_smoke.XXXXXX")"
DAEMON_PID=""
cleanup() {
  [[ -n "$DAEMON_PID" ]] && kill -KILL "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

SCENARIO=(--nodes 20 --items 20 --capacity 4 --seed 7)

wait_for_file() {
  local path="$1"
  for _ in $(seq 100); do
    [[ -s "$path" ]] && return 0
    sleep 0.1
  done
  echo "replicationd_smoke: timed out waiting for $path" >&2
  return 1
}

wait_for_exit() {
  local pid="$1"
  for _ in $(seq 100); do
    kill -0 "$pid" 2>/dev/null || return 0
    sleep 0.1
  done
  echo "replicationd_smoke: pid $pid did not exit" >&2
  return 1
}

# Deterministic workload, shared by both phases. The generator emits a
# trailing Q frame; phases that must keep the daemon alive strip it.
"$BIN" --gen-stream 1000 "${SCENARIO[@]}" --out "$WORK/stream.txt"
grep -v '^Q$' "$WORK/stream.txt" > "$WORK/stream_noquit.txt"

feed_socket() {
  local socket="$1" file="$2"
  python3 - "$socket" "$file" <<'PY'
import socket, sys
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
with open(sys.argv[2], "rb") as f:
    s.sendall(f.read())
s.close()
PY
}

feed_tcp() {
  local port="$1" file="$2"
  python3 - "$port" "$file" <<'PY'
import socket, sys
s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
s.connect(("127.0.0.1", int(sys.argv[1])))
with open(sys.argv[2], "rb") as f:
    s.sendall(f.read())
s.close()
PY
}

http_get() {
  local port="$1" path="$2"
  python3 - "$port" "$path" <<'PY'
import sys, urllib.request
url = f"http://127.0.0.1:{sys.argv[1]}{sys.argv[2]}"
with urllib.request.urlopen(url, timeout=10) as r:
    sys.stdout.write(r.read().decode())
PY
}

metric() {  # metric <file> <key>
  awk -v key="$2" '$1 == key { print $2 }' "$1"
}

echo "== phase 1: boot, stream via socket, scrape /metrics, SIGTERM =="
"$BIN" "${SCENARIO[@]}" \
    --socket "$WORK/repl.sock" --port 0 --announce "$WORK/announce.txt" \
    --snapshot "$WORK/phase1.snap" --snapshot-every 200 \
    2> "$WORK/phase1.log" &
DAEMON_PID=$!
wait_for_file "$WORK/announce.txt"
PORT="$(metric "$WORK/announce.txt" http_port)"

feed_socket "$WORK/repl.sock" "$WORK/stream_noquit.txt"

# Wait until every frame of the stream has been applied, then scrape.
TOTAL_FRAMES="$(grep -cv '^\s*\(#\|$\)' "$WORK/stream_noquit.txt")"
for _ in $(seq 100); do
  http_get "$PORT" /metrics > "$WORK/metrics.txt" || true
  [[ "$(metric "$WORK/metrics.txt" replicationd_events_total)" == "$TOTAL_FRAMES" ]] && break
  sleep 0.1
done

[[ "$(metric "$WORK/metrics.txt" replicationd_events_total)" == "$TOTAL_FRAMES" ]] \
  || { echo "FAIL: /metrics events_total != $TOTAL_FRAMES"; cat "$WORK/metrics.txt"; exit 1; }
[[ "$(metric "$WORK/metrics.txt" replicationd_mandate_conservation_ok)" == "1" ]] \
  || { echo "FAIL: mandate conservation violated"; exit 1; }
SERVED="$(metric "$WORK/metrics.txt" replicationd_requests_served_total)"
[[ "$SERVED" -gt 0 ]] || { echo "FAIL: no requests served"; exit 1; }
[[ "$(http_get "$PORT" /healthz)" == "ok" ]] || { echo "FAIL: /healthz"; exit 1; }

# Snapshot writer: every by-sequence boundary is counted once its persist
# returns; waits count captures that found a persist still in flight.
BOUNDARIES=$((TOTAL_FRAMES / 200))
for _ in $(seq 100); do
  http_get "$PORT" /metrics > "$WORK/metrics.txt" || true
  [[ "$(metric "$WORK/metrics.txt" replicationd_snapshots_total)" == "$BOUNDARIES" ]] && break
  sleep 0.1
done
SNAPSHOTS="$(metric "$WORK/metrics.txt" replicationd_snapshots_total)"
WAITS="$(metric "$WORK/metrics.txt" replicationd_snapshot_waits_total)"
WRITE_S="$(metric "$WORK/metrics.txt" replicationd_snapshot_write_seconds_last)"
[[ "$SNAPSHOTS" == "$BOUNDARIES" ]] \
  || { echo "FAIL: snapshots_total $SNAPSHOTS != $BOUNDARIES boundaries"; cat "$WORK/metrics.txt"; exit 1; }
[[ "$WAITS" =~ ^[0-9]+$ && "$WAITS" -le "$SNAPSHOTS" ]] \
  || { echo "FAIL: snapshot_waits_total '$WAITS' not in [0, $SNAPSHOTS]"; exit 1; }
awk -v s="$WRITE_S" 'BEGIN { exit !(s ~ /^[0-9.e+-]+$/ && s + 0 > 0 && s + 0 < 60) }' \
  || { echo "FAIL: snapshot_write_seconds_last '$WRITE_S' not in (0, 60)"; exit 1; }
# The last capture's time under the store lock, timed apart from the write.
CAPTURE_S="$(metric "$WORK/metrics.txt" replicationd_snapshot_capture_seconds_last)"
awk -v s="$CAPTURE_S" 'BEGIN { exit !(s ~ /^[0-9.e+-]+$/ && s + 0 > 0 && s + 0 < 60) }' \
  || { echo "FAIL: snapshot_capture_seconds_last '$CAPTURE_S' not in (0, 60)"; exit 1; }

kill -TERM "$DAEMON_PID"
wait_for_exit "$DAEMON_PID"
wait "$DAEMON_PID" || { echo "FAIL: SIGTERM exit status $?"; exit 1; }
DAEMON_PID=""
[[ -s "$WORK/phase1.snap" ]] || { echo "FAIL: no final snapshot"; exit 1; }
echo "phase 1 OK: $TOTAL_FRAMES events, $SERVED served, $SNAPSHOTS snapshots" \
     "($WAITS waits, last write ${WRITE_S}s), graceful SIGTERM"

echo "== phase 2: SIGKILL mid-run, --restore warm-restart equivalence =="
# Reference: uninterrupted run over the whole stream.
"$BIN" "${SCENARIO[@]}" --input "$WORK/stream.txt" --port -1 \
    --snapshot "$WORK/reference.snap" 2> "$WORK/reference.log"

# Interrupted run: snapshot every 200 events, SIGKILL after the snapshot
# at seq 600 exists, restore, feed exactly the not-yet-applied tail.
split -l 700 "$WORK/stream_noquit.txt" "$WORK/part_"
"$BIN" "${SCENARIO[@]}" \
    --socket "$WORK/repl2.sock" --port -1 \
    --snapshot "$WORK/phase2.snap" --snapshot-every 200 \
    2> "$WORK/phase2.log" &
DAEMON_PID=$!
for _ in $(seq 100); do
  [[ -S "$WORK/repl2.sock" ]] && break
  sleep 0.1
done
feed_socket "$WORK/repl2.sock" "$WORK/part_aa"
wait_for_file "$WORK/phase2.snap"
# Let it reach the last multiple-of-200 snapshot covered by part_aa.
for _ in $(seq 100); do
  SEQ="$(awk '/^state /{ print $3 }' "$WORK/phase2.snap" 2>/dev/null || true)"
  [[ "${SEQ:-0}" -ge 600 ]] && break
  sleep 0.1
done
kill -KILL "$DAEMON_PID"   # no graceful path: the snapshot is all we keep
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

SEQ="$(awk '/^state /{ print $3 }' "$WORK/phase2.snap")"
[[ "$SEQ" -ge 200 ]] || { echo "FAIL: no usable snapshot (seq=$SEQ)"; exit 1; }
echo "killed at snapshot seq=$SEQ; restoring and replaying the tail"

# Feed exactly the frames the snapshot has not seen (frames are applied in
# order, so the snapshot's seq is a cursor into the noise-free stream).
grep -v '^\s*\(#\|$\)' "$WORK/stream_noquit.txt" | tail -n "+$((SEQ + 1))" \
  > "$WORK/tail.txt"
"$BIN" "${SCENARIO[@]}" --input "$WORK/tail.txt" --port -1 \
    --snapshot "$WORK/phase2.snap" --restore 2> "$WORK/restore.log"
grep -q "(restored)" "$WORK/restore.log" \
  || { echo "FAIL: daemon did not restore"; cat "$WORK/restore.log"; exit 1; }

cmp "$WORK/reference.snap" "$WORK/phase2.snap" \
  || { echo "FAIL: warm restart diverged from uninterrupted run"; exit 1; }
echo "phase 2 OK: SIGKILL + --restore is byte-identical to the reference"

echo "== phase 3: TCP + delta chain, SIGKILL, --restore =="
chain_seq() {  # seq the committed manifest's last element ends at
  awk '$1 == "base" || $1 == "delta" { seq = $4 } END { print seq + 0 }' \
      "$WORK/phase3.snap.manifest" 2>/dev/null || echo 0
}
"$BIN" "${SCENARIO[@]}" \
    --tcp 0 --port -1 --announce "$WORK/announce3.txt" \
    --snapshot "$WORK/phase3.snap" --snapshot-every 200 \
    --snapshot-deltas true --snapshot-delta-limit 16 \
    2> "$WORK/phase3.log" &
DAEMON_PID=$!
wait_for_file "$WORK/announce3.txt"
TCP_PORT="$(metric "$WORK/announce3.txt" tcp_port)"
[[ -n "$TCP_PORT" ]] || { echo "FAIL: no tcp_port announced"; exit 1; }

feed_tcp "$TCP_PORT" "$WORK/part_aa"
wait_for_file "$WORK/phase3.snap.manifest"
# Let the chain reach the last multiple-of-200 checkpoint in part_aa:
# base at seq 200, deltas at 400 and 600.
for _ in $(seq 100); do
  [[ "$(chain_seq)" -ge 600 ]] && break
  sleep 0.1
done
kill -KILL "$DAEMON_PID"   # the committed chain is all we keep
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

SEQ="$(chain_seq)"
[[ "$SEQ" -ge 200 ]] || { echo "FAIL: no usable chain (seq=$SEQ)"; exit 1; }
DELTA_COUNT="$(awk '$1 == "delta"' "$WORK/phase3.snap.manifest" | wc -l)"
[[ "$DELTA_COUNT" -ge 1 ]] \
  || { echo "FAIL: chain has no deltas (the phase must exercise them)"; exit 1; }
echo "killed at chain seq=$SEQ ($DELTA_COUNT deltas); restoring from the chain"

grep -v '^\s*\(#\|$\)' "$WORK/stream_noquit.txt" | tail -n "+$((SEQ + 1))" \
  > "$WORK/tail3.txt"
"$BIN" "${SCENARIO[@]}" --input "$WORK/tail3.txt" --port -1 \
    --snapshot "$WORK/phase3.snap" --snapshot-deltas true --restore \
    2> "$WORK/restore3.log"
grep -q "(restored)" "$WORK/restore3.log" \
  || { echo "FAIL: daemon did not restore from the chain"; cat "$WORK/restore3.log"; exit 1; }

# Graceful exit finalizes the chain into a single full base; that base
# must be byte-identical to the plain uninterrupted reference snapshot.
FINAL_SEQ="$(chain_seq)"
FINAL_DELTAS="$(awk '$1 == "delta"' "$WORK/phase3.snap.manifest" | wc -l)"
[[ "$FINAL_DELTAS" -eq 0 ]] \
  || { echo "FAIL: finalize left $FINAL_DELTAS deltas in the chain"; exit 1; }
cmp "$WORK/reference.snap" "$WORK/phase3.snap.base.$FINAL_SEQ" \
  || { echo "FAIL: chain restore diverged from uninterrupted run"; exit 1; }
echo "phase 3 OK: TCP + delta chain is byte-identical to the reference"

echo "replicationd_smoke: all phases passed"
