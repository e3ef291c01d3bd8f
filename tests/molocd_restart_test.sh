#!/usr/bin/env bash
# molocd keeps every acknowledged observation across restarts.
#
# Two runs against one --wal-dir each report observations through
# moloc_loadgen and stop on SIGTERM; the intake writer checkpoints
# (every 32 records, checked at each publish) and compacts the WAL as
# it goes.  A third boot must recover exactly the observations both
# runs accepted from a checkpoint those runs wrote, and serve what it
# recovered: moloc_loadgen --wal-dir recovers the same directory into
# its in-process reference and verifies every answer bitwise.
#
# Any further arguments go to every molocd boot (e.g. --image PATH to
# boot from a venue image of the hall instead of building it).
#
# Usage: molocd_restart_test.sh <molocd> <moloc_loadgen> <work dir>
#                               [molocd args...]
set -euo pipefail

molocd=$1
loadgen=$2
work=$3
shift 3
extra=("$@")
rm -rf "$work"
mkdir -p "$work"
wal="$work/wal"
daemon=

cleanup() {
  if [ -n "$daemon" ]; then kill -KILL "$daemon" 2>/dev/null || true; fi
}
trap cleanup EXIT

# boot <run>: starts molocd on an ephemeral port, waits for its port
# file, and leaves the pid in $daemon and the boot line in <run>.log.
boot() {
  "$molocd" --port 0 --port-file "$work/$1.port" --wal-dir "$wal" \
    --checkpoint-every 32 ${extra[@]+"${extra[@]}"} > "$work/$1.log" &
  daemon=$!
  for _ in $(seq 1 600); do
    [ -s "$work/$1.port" ] && return 0
    kill -0 "$daemon" 2>/dev/null || break
    sleep 0.1
  done
  echo "molocd ($1) never wrote its port"
  cat "$work/$1.log"
  exit 1
}

stop() {
  kill -TERM "$daemon"
  wait "$daemon"
  daemon=
}

# recovered <run>: the record count on that run's boot line.
recovered() {
  sed -n 's/.*recovered \([0-9]*\) records.*/\1/p' "$work/$1.log"
}

total=0
for run in 1 2; do
  boot "run$run"
  got=$(recovered "run$run")
  if [ "$got" != "$total" ]; then
    echo "run $run booted with ${got:-no} recovered records, want $total"
    cat "$work/run$run.log"
    exit 1
  fi
  "$loadgen" --smoke --skip-verify --observations 100 \
    --port-file "$work/run$run.port" --out "$work/run$run.json" \
    > "$work/load$run.log"
  stop
  accepted=$(sed -n \
    's/.*observations [0-9]* reported \/ \([0-9]*\) accepted, flush ok.*/\1/p' \
    "$work/load$run.log")
  if [ -z "$accepted" ] || [ "$accepted" -le 32 ]; then
    echo "run $run: expected a flushed report of more than 32 accepted"
    cat "$work/load$run.log"
    exit 1
  fi
  total=$((total + accepted))
done

boot run3
got=$(recovered run3)
if [ "$got" != "$total" ]; then
  echo "third boot recovered ${got:-no} records, want $total"
  cat "$work/run3.log"
  exit 1
fi
ckpt=$(sed -n 's/.*(checkpoint seq \([0-9]*\),.*/\1/p' "$work/run3.log")
if [ -z "$ckpt" ] || [ "$ckpt" -le 0 ] || [ "$ckpt" -gt "$total" ]; then
  echo "third boot loaded checkpoint seq ${ckpt:-none}, want 1..$total"
  cat "$work/run3.log"
  exit 1
fi
if ! "$loadgen" --smoke --wal-dir "$wal" --port-file "$work/run3.port" \
    --out "$work/run3.json" > "$work/load3.log"; then
  echo "third boot: bitwise verification against the recovered state failed"
  cat "$work/load3.log"
  exit 1
fi
stop
echo "recovered $got of $total acknowledged observations from checkpoint seq $ckpt; third boot verified bitwise"
