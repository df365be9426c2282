#!/usr/bin/env bash
# Chaos-test the sharded fuzz fleet against the real binary.  A 150-seed
# campaign with an injected wedge seed must
#   - complete with exit 4, quarantining exactly the wedge seed with a
#     ddmin-minimized reproducer strictly smaller than the generated
#     program, after hang-hunting bisection isolates it;
#   - serve live campaign gauges over the STATS socket;
#   - survive kill -9 of a shard mid-unit (the unit is requeued whole)
#     and a SIGTERM drain (exit 3, checkpoint written): resumed, the
#     JSONL stream is identical to the uninterrupted run modulo the
#     volatile cached/attempts/ms trailer;
#   - reject a resume against a different campaign (exit 2).
set -u

WEAKORD="$1"
fails=0

fail() {
  echo "FAIL: $*" >&2
  fails=$((fails + 1))
}

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# 150 seeds in 25-seed units across 3 shards; seed 57 wedges its shard.
# A 1s heartbeat budget and 2 retries keep the hang hunt fast: first
# hang bisects 50..74 around 57, second hang poisons it.
FLAGS=(--count 150 --unit 25 --shards 3 --wedge-seed 57
  --hang-timeout 1 --retries 2 --backoff 50 --quarantine "$tmp/quar")

# Strip the volatile trailer; what remains must be identical across runs.
norm() {
  sed -E 's/,"cached":(true|false),"attempts":[0-9]+,"ms":[0-9.]+\}/}/' "$1" \
    | sort
}

# --- 1. uninterrupted reference: wedge hunted, minimized, quarantined --------
"$WEAKORD" fleet "${FLAGS[@]}" -o "$tmp/ref.jsonl" 2> "$tmp/ref.err"
code=$?
if [ "$code" -ne 4 ]; then
  fail "fleet with a wedge seed: expected exit 4, got $code"
fi
if [ "$(grep -c '"status":"poison"' "$tmp/ref.jsonl")" -ne 1 ]; then
  fail "expected exactly one poison record"
fi
if ! grep '"status":"poison"' "$tmp/ref.jsonl" | grep -q '"seed":57'; then
  fail "poison record does not name the wedge seed"
fi
if ! grep '"status":"poison"' "$tmp/ref.jsonl" | grep -q 'heartbeat stalled'; then
  fail "poison record lacks the hang diagnosis"
fi
if grep -q '"status":"disagreement"' "$tmp/ref.jsonl"; then
  fail "clean corpus produced a disagreement record"
fi
# every seed except the poison was checked exactly once
total="$(grep '"status":"done"' "$tmp/ref.jsonl" \
  | grep -o '"programs":[0-9]*' | cut -d: -f2 \
  | awk '{ s += $1 } END { print s }')"
if [ "$total" -ne 149 ]; then
  fail "done units cover $total seed(s), expected 149"
fi
# the dossier ships source, report and a strictly smaller reproducer
if [ ! -s "$tmp/quar/seed57.litmus" ] || [ ! -s "$tmp/quar/seed57.report" ]; then
  fail "wedge dossier incomplete (missing source or report)"
fi
if [ ! -s "$tmp/quar/seed57.min.litmus" ]; then
  fail "wedge dossier lacks the minimized reproducer"
else
  full="$(grep -c ';' "$tmp/quar/seed57.litmus")"
  mini="$(grep -c ';' "$tmp/quar/seed57.min.litmus")"
  if [ "$mini" -ge "$full" ]; then
    fail "minimized reproducer ($mini rows) not smaller than original ($full)"
  fi
fi
if ! grep -q 'gen flags' "$tmp/quar/seed57.report"; then
  fail "dossier does not record the generator flag set"
fi

# --- 2. kill -9 a shard + SIGTERM drain + resume == uninterrupted ------------
SOCK="$tmp/fleet.sock"
"$WEAKORD" fleet "${FLAGS[@]}" --verbose -o "$tmp/b.jsonl" \
  --checkpoint "$tmp/fleet.ckpt" --stats-socket "$SOCK" \
  2> "$tmp/b.err" &
FPID=$!

# Live gauges over the wire protocol while the campaign runs.
stats=""
for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && stats="$(echo STATS | "$WEAKORD" client "$SOCK" 2>/dev/null)"
  [ -n "$stats" ] && break
  sleep 0.05
done
if [ -z "$stats" ]; then
  fail "no STATS response from the fleet socket"
elif ! echo "$stats" | grep -q '"shards"'; then
  fail "STATS response lacks the shard gauge: $stats"
fi

# Murder the shard working unit 50..74 mid-unit: an external kill
# convicts no seed, so the unit must be requeued whole, not bisected
# (record identity depends on it).  This is the wedge seed's unit: its
# shard stays alive for at least the 1s hang budget, far longer than the
# 50ms poll below.  A healthy unit can finish before the poll sees its
# pid, and the kill then lands on nothing.
wpid=""
for _ in $(seq 1 100); do
  wpid="$(grep -o 'shard [0-9]* started unit 50\.\.74' "$tmp/b.err" 2>/dev/null \
    | head -1 | grep -o '[0-9]*' | head -1)"
  [ -n "$wpid" ] && break
  sleep 0.05
done
if [ -n "$wpid" ]; then
  kill -9 "$wpid" 2>/dev/null
else
  fail "could not find the unit 50..74 shard pid in the verbose log"
fi

sleep 0.6 # let the kill land and some units finish before draining
kill -TERM "$FPID" 2>/dev/null
wait "$FPID"
code=$?
if [ "$code" -ne 3 ]; then
  fail "SIGTERM mid-campaign: expected exit 3 (suspended), got $code"
fi
if [ ! -s "$tmp/fleet.ckpt" ]; then
  fail "drained fleet left no checkpoint"
fi
if ! grep -q 'killed by SIGKILL' "$tmp/b.err"; then
  fail "the external kill -9 did not surface as a retried attempt"
fi

"$WEAKORD" fleet "${FLAGS[@]}" -o "$tmp/b.jsonl" \
  --checkpoint "$tmp/fleet.ckpt" --resume "$tmp/fleet.ckpt" \
  2> "$tmp/resume.err"
code=$?
if [ "$code" -ne 4 ]; then
  fail "resumed fleet: expected exit 4, got $code"
fi
if ! diff <(norm "$tmp/ref.jsonl") <(norm "$tmp/b.jsonl"); then
  fail "kill -9 + drain + resume diverged from the uninterrupted run"
fi

# --- 3. a resume against a different campaign is rejected loudly -------------
"$WEAKORD" fleet "${FLAGS[@]}" --wedge-seed 99 \
  --resume "$tmp/fleet.ckpt" >/dev/null 2> "$tmp/reject.err"
code=$?
if [ "$code" -ne 2 ]; then
  fail "resume of a different campaign: expected exit 2, got $code"
fi
if ! grep -q 'different campaign' "$tmp/reject.err"; then
  fail "resume rejection does not explain the fingerprint mismatch"
fi

if [ "$fails" -ne 0 ]; then
  echo "$fails fleet chaos check(s) failed" >&2
  exit 1
fi
echo "fleet chaos: ok"
