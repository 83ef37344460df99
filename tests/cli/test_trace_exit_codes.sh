#!/usr/bin/env bash
# Enforces realtor_trace's documented exit-code contract (the README's
# "Exit codes" table): 0 = analysis ran and every requested gate passed,
# 1 = bad usage or unreadable input, 2 = a gate tripped. CI relies on
# these values, so every row here is a regression fence — including the
# --follow combinations, where the contract is easy to erode by accident.
#
# Usage: test_trace_exit_codes.sh <realtor_trace> <realtor_sim>
set -u

TRACE_BIN=$1
SIM_BIN=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fails=0

expect() { # expect <description> <wanted-exit> -- <command...>
  local desc=$1 want=$2
  shift 3 # drop desc, want, and the '--' separator
  "$@" >/dev/null 2>&1
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL [$desc]: expected exit $want, got $got: $*" >&2
    fails=$((fails + 1))
  else
    echo "ok   [$desc]: exit $got"
  fi
}

# One clean trace (with live ticks, so --follow sees the full event mix)
# and one damaged copy with a malformed tail line; one clean flight dump
# of the same run and one copy cut 100 bytes short, mid-record.
"$SIM_BIN" --lambda=12 --duration=60 --seed=7 --attack=30:8:1:20 \
  --live-cadence=10 --trace="$tmp/run.jsonl" >/dev/null 2>&1 || {
  echo "FAIL: could not generate the fixture trace" >&2
  exit 1
}
cp "$tmp/run.jsonl" "$tmp/damaged.jsonl"
echo '{truncated mid-write' >>"$tmp/damaged.jsonl"
"$SIM_BIN" --lambda=12 --duration=60 --seed=7 --attack=30:8:1:20 \
  --flight-recorder --flight-out="$tmp/flight.bin" >/dev/null 2>&1 || {
  echo "FAIL: could not generate the fixture flight dump" >&2
  exit 1
}
flight_bytes=$(wc -c <"$tmp/flight.bin")
head -c $((flight_bytes - 100)) "$tmp/flight.bin" >"$tmp/cut.bin"

# exit 0: every requested gate passed.
expect "check on a clean trace" 0 -- \
  "$TRACE_BIN" "$tmp/run.jsonl" --check
expect "check on a clean flight dump" 0 -- \
  "$TRACE_BIN" "$tmp/flight.bin" --check
expect "offline analysis (episodes)" 0 -- \
  "$TRACE_BIN" "$tmp/run.jsonl" --episodes
expect "follow --once dashboard" 0 -- \
  "$TRACE_BIN" "$tmp/run.jsonl" --follow --once --plain
expect "follow --once --check on a clean trace" 0 -- \
  "$TRACE_BIN" "$tmp/run.jsonl" --follow --once --plain --check
# max-frames=1: frames only advance when the file changes, so a higher
# cap would wait forever on a static fixture.
expect "follow --max-frames --check on a clean trace" 0 -- \
  "$TRACE_BIN" "$tmp/run.jsonl" --follow --max-frames=1 --plain --check

# exit 1: bad usage or unreadable input.
expect "no arguments" 1 -- \
  "$TRACE_BIN"
expect "missing input file" 1 -- \
  "$TRACE_BIN" "$tmp/does_not_exist.jsonl" --check
expect "follow combined with an offline mode" 1 -- \
  "$TRACE_BIN" "$tmp/run.jsonl" --follow --episodes
expect "follow combined with scorecard" 1 -- \
  "$TRACE_BIN" "$tmp/run.jsonl" --follow --scorecard
expect "follow --check without a termination condition" 1 -- \
  "$TRACE_BIN" "$tmp/run.jsonl" --follow --check
# realtor_sim treats a malformed attack spec as bad usage, too.
expect "simulation with a malformed --attack entry" 1 -- \
  "$SIM_BIN" --duration=10 --attack=10:2:1:5,1:2:3:4x
expect "sweep with a malformed --attack-sweep set" 1 -- \
  "$SIM_BIN" --sweep=2 --reps=1 --duration=10 --attack-sweep="10:2:1:5;10:-2:1:5"

# exit 2: a gate tripped — here, dropped input under --check (a clean
# verdict over a partial parse must not read as clean).
expect "check with dropped input" 2 -- \
  "$TRACE_BIN" "$tmp/damaged.jsonl" --check
expect "follow --once --check with dropped input" 2 -- \
  "$TRACE_BIN" "$tmp/damaged.jsonl" --follow --once --plain --check
expect "check on a byte-truncated flight dump" 2 -- \
  "$TRACE_BIN" "$tmp/cut.bin" --check
expect "follow --once --check on a byte-truncated flight dump" 2 -- \
  "$TRACE_BIN" "$tmp/cut.bin" --follow --once --plain --check

if [ "$fails" -ne 0 ]; then
  echo "$fails contract row(s) violated" >&2
  exit 1
fi
echo "exit-code contract holds (17 rows)"
