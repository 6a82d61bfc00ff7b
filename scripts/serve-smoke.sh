#!/usr/bin/env bash
# serve-smoke: start the `fosm serve` daemon, fire 32 concurrent mixed
# profile/model requests with byte-identity verification against
# in-process execution, spot-check wire vs one-shot CLI bytes, assert
# the telemetry snapshot (`fosm top --once --json`) is populated under
# load and that the store answered repeated requests from memory, check
# that the idle daemon runs only its main and accept threads and that
# sequential connections do not grow its address space, then shut down
# cleanly — the daemon must join every thread and exit 0.
#
# Usage: scripts/serve-smoke.sh
#        FOSM overrides the binary path; TELEMETRY_OUT overrides where
#        the telemetry snapshot is copied for artifact upload
#        (default ./telemetry-snapshot.json).
set -euo pipefail

FOSM="${FOSM:-./target/release/fosm}"
WORK="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

"$FOSM" serve --addr 127.0.0.1:0 --workers 4 --port-file "$WORK/port" &
SERVE_PID=$!
for _ in $(seq 1 150); do
  [ -s "$WORK/port" ] && break
  sleep 0.1
done
[ -s "$WORK/port" ] || { echo "daemon never published its port" >&2; exit 1; }
ADDR="$(cat "$WORK/port")"
echo "daemon listening on $ADDR (pid $SERVE_PID)"

# 32 concurrent mixed profile/model requests across 8 connections;
# --verify byte-compares every daemon response against in-process
# one-shot execution of the same request.
timeout 300 "$FOSM" loadgen --addr "$ADDR" \
  --clients 8 --requests 4 --insts 20000 --verify

# Spot-check: the same request over the wire and as a one-shot
# `--local` invocation must print identical bytes.
for action in model profile; do
  "$FOSM" client "$action" --bench gzip --insts 20000 \
    --addr "$ADDR" > "$WORK/wire.txt"
  "$FOSM" client "$action" --bench gzip --insts 20000 \
    --local > "$WORK/local.txt"
  cmp "$WORK/wire.txt" "$WORK/local.txt"
done

echo "--- daemon stats ---"
"$FOSM" client stats --addr "$ADDR" | tee "$WORK/stats.txt"

# Telemetry snapshot under load: one schema-versioned JSON body. The
# phase histograms must be populated for the kinds loadgen sent, and
# the flight recorder must hold those request kinds.
SNAPSHOT="${TELEMETRY_OUT:-$PWD/telemetry-snapshot.json}"
"$FOSM" top --addr "$ADDR" --once --json > "$WORK/telemetry.json"
cp "$WORK/telemetry.json" "$SNAPSHOT"
for needle in '"fosm_telemetry":4' \
              '"serve.queue_us.profile"' \
              '"serve.exec_us.model"' \
              '"serve.total_us.profile"' \
              '"kind":"profile"' \
              '"kind":"model"'; do
  grep -qF "$needle" "$WORK/telemetry.json" || {
    echo "telemetry snapshot is missing $needle" >&2
    cat "$WORK/telemetry.json" >&2
    exit 1
  }
done
# Repeated requests (loadgen's 32 requests cycle through five probes
# of two workloads) must be answered from the store's memory.
profile_hits="$(awk '$1 == "store.profile_hit" { print $2 }' "$WORK/stats.txt")"
[ "${profile_hits:-0}" -ge 1 ] || {
  echo "daemon stats show no store.profile_hit" >&2
  exit 1
}
echo "--- fosm top (one frame) ---"
"$FOSM" top --addr "$ADDR" --once
echo "telemetry snapshot saved to $SNAPSHOT"

# Idle daemon: once the load's connections close, only the main and
# accept threads remain, whatever --workers says, and 300 sequential
# connections leave no thread stacks behind (the accept loop joins
# each finished connection thread).
status_field() { awk -v key="$1:" '$1 == key { print $2 }' "/proc/$SERVE_PID/status"; }
threads=""
for _ in $(seq 1 50); do
  threads="$(status_field Threads)"
  [ "$threads" -le 2 ] && break
  sleep 0.1
done
if [ "$threads" -gt 2 ]; then
  echo "idle daemon runs $threads threads (want at most 2)" >&2
  exit 1
fi
vm_before="$(status_field VmSize)"
for _ in $(seq 1 300); do
  "$FOSM" client ping --addr "$ADDR" > /dev/null
done
vm_growth=$(( $(status_field VmSize) - vm_before ))
echo "idle daemon: $threads threads; VmSize grew ${vm_growth} kB over 300 pings"
if [ "$vm_growth" -ge $((64 * 1024)) ]; then
  echo "VmSize grew ${vm_growth} kB over 300 sequential connections (limit 65536 kB)" >&2
  exit 1
fi

# Clean shutdown: the daemon must exit 0 (it joins the accept loop and
# every connection thread before returning).
"$FOSM" client shutdown --addr "$ADDR"
for _ in $(seq 1 300); do
  kill -0 "$SERVE_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVE_PID" 2>/dev/null; then
  echo "daemon still running after shutdown request" >&2
  exit 1
fi
wait "$SERVE_PID"
SERVE_PID=""
echo "serve-smoke OK"
