#!/usr/bin/env bash
# Crash-safety end to end: SIGKILL a checkpointed verify mid-flight, resume
# from the checkpoint, and require the final report — verdicts AND state
# counts — to be byte-identical to an uninterrupted run.  This is the
# contract the whole resilience layer exists for: a hard kill at an
# arbitrary moment loses bounded work and corrupts nothing.
set -u

WEAKORD="$1"
fails=0

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# A four-processor workload big enough that verification takes seconds:
# the kill lands mid-exploration, not in the epilogue.
cat > "$tmp/big4.litmus" <<'EOF'
name big4
{ x=0; y=0; z=0; w=0 }
P0          | P1          | P2          | P3          ;
W x 1       | W y 1       | W z 1       | W w 1       ;
r0 := R y   | r3 := R z   | r6 := R w   | r9 := R x   ;
W x 2       | W y 2       | W z 2       | W w 2       ;
r1 := R z   | r4 := R w   | r7 := R x   | r10 := R y  ;
exists (0:r0=0)
EOF

run_verify() { # run_verify EXTRA_ARGS... (stdout to caller)
  "$WEAKORD" verify -m def2 --model drf0 "$@" "$tmp/big4.litmus"
}

# Uninterrupted baseline.
run_verify > "$tmp/baseline.out" 2>/dev/null
baseline_code=$?

# Checkpointed run, killed the moment a checkpoint exists on disk.
run_verify --checkpoint "$tmp/ck.snap" --checkpoint-every 200 \
  > /dev/null 2>&1 &
pid=$!
for _ in $(seq 1 600); do
  [ -s "$tmp/ck.snap" ] && break
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.05
done
if ! kill -0 "$pid" 2>/dev/null; then
  # Finished before we could kill it: the machine is too fast for the
  # workload, but the final checkpoint still pins the resume path below.
  echo "note: verify finished before SIGKILL; resuming from the final checkpoint" >&2
else
  kill -9 "$pid" 2>/dev/null
fi
wait "$pid" 2>/dev/null

if [ ! -s "$tmp/ck.snap" ]; then
  echo "FAIL: no checkpoint on disk after the kill" >&2
  exit 1
fi

# Resume and compare: same exit code, same report (verdicts + state counts).
run_verify --resume "$tmp/ck.snap" > "$tmp/resumed.out" 2>/dev/null
resumed_code=$?

if [ "$resumed_code" -ne "$baseline_code" ]; then
  echo "FAIL: resumed exit $resumed_code, uninterrupted exit $baseline_code" >&2
  fails=$((fails + 1))
fi
if ! cmp -s "$tmp/baseline.out" "$tmp/resumed.out"; then
  echo "FAIL: resumed report differs from the uninterrupted run:" >&2
  diff "$tmp/baseline.out" "$tmp/resumed.out" >&2
  fails=$((fails + 1))
fi

# --- SIGKILL mid-spill -------------------------------------------------------
# The same round trip under a memory budget tight enough that the visited
# set spills to disk: the kill lands while immutable run files exist, and
# the resumed run must re-open exactly those runs and finish with the
# verbose report — including spill statistics — byte-identical to an
# uninterrupted spilling run.
MEM=2000000
spill_base="$tmp/spill-base"; mkdir -p "$spill_base"
spill="$tmp/spill"; mkdir -p "$spill"

run_verify -v --mem-budget "$MEM" --spill-dir "$spill_base" \
  > "$tmp/spill-baseline.out" 2>/dev/null
spill_base_code=$?

if ! grep -q "spilled-runs=" "$tmp/spill-baseline.out"; then
  echo "FAIL: spilling baseline wrote no runs (budget too generous?)" >&2
  fails=$((fails + 1))
fi
if grep -q "bounded" "$tmp/spill-baseline.out"; then
  echo "FAIL: spilling baseline reported bounded coverage" >&2
  fails=$((fails + 1))
fi

run_verify -v --mem-budget "$MEM" --spill-dir "$spill" \
  --checkpoint "$tmp/ck-spill.snap" --checkpoint-every 200 \
  > /dev/null 2>&1 &
pid=$!
# Kill only once at least one run file has been spilled and a checkpoint
# exists: the kill lands mid-spill, the worst moment for the store.
for _ in $(seq 1 600); do
  if ls "$spill"/run-*.spill >/dev/null 2>&1 && [ -s "$tmp/ck-spill.snap" ]; then
    break
  fi
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.05
done
if ! kill -0 "$pid" 2>/dev/null; then
  echo "note: spilling verify finished before SIGKILL; resuming from the final checkpoint" >&2
else
  kill -9 "$pid" 2>/dev/null
fi
wait "$pid" 2>/dev/null

if [ ! -s "$tmp/ck-spill.snap" ]; then
  echo "FAIL: no checkpoint on disk after the mid-spill kill" >&2
  exit 1
fi

run_verify -v --mem-budget "$MEM" --spill-dir "$spill" \
  --resume "$tmp/ck-spill.snap" > "$tmp/spill-resumed.out" 2>/dev/null
spill_resumed_code=$?

if [ "$spill_resumed_code" -ne "$spill_base_code" ]; then
  echo "FAIL: spill-resumed exit $spill_resumed_code, uninterrupted exit $spill_base_code" >&2
  fails=$((fails + 1))
fi
if ! cmp -s "$tmp/spill-baseline.out" "$tmp/spill-resumed.out"; then
  echo "FAIL: spill-resumed report differs from the uninterrupted run:" >&2
  diff "$tmp/spill-baseline.out" "$tmp/spill-resumed.out" >&2
  fails=$((fails + 1))
fi

if [ "$fails" -ne 0 ]; then
  # Keep the checkpoint around for the CI artifact upload.
  if [ -n "${RESILIENCE_ARTIFACT_DIR:-}" ]; then
    mkdir -p "$RESILIENCE_ARTIFACT_DIR"
    cp "$tmp/ck.snap" "$RESILIENCE_ARTIFACT_DIR/" 2>/dev/null
    cp "$tmp/ck.snap.prev" "$RESILIENCE_ARTIFACT_DIR/" 2>/dev/null
    cp "$tmp"/*.out "$RESILIENCE_ARTIFACT_DIR/" 2>/dev/null
  fi
  echo "$fails kill-9 resume check(s) failed" >&2
  exit 1
fi
echo "resilience kill-9 round trip: ok"
