#!/usr/bin/env bash
# Pin the weakord exit-code contract:
#   0  success
#   1  the check ran and failed (data race, verification counterexample,
#      fault-campaign failure)
#   2  parse failure or unreadable input (including an unusable checkpoint)
#   3  a budget suspended the run cleanly; the checkpoint (if configured)
#      holds the resume point
#   4  a batch completed but quarantined at least one poison job
set -u

WEAKORD="$1"
LITMUS_DIR="$2"
fails=0

expect() { # expect CODE DESCRIPTION CMD...
  local want="$1" desc="$2"
  shift 2
  "$@" >/dev/null 2>&1
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $desc: expected exit $want, got $got" >&2
    fails=$((fails + 1))
  fi
}

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# success paths
expect 0 "run on a shipped file" "$WEAKORD" run "$LITMUS_DIR/mp_sync.litmus"
expect 0 "races on a race-free program" "$WEAKORD" races mp_sync
expect 0 "verify def2 against drf0" "$WEAKORD" verify -m def2 --model drf0
expect 0 "verify without partial-order reduction" \
  "$WEAKORD" verify --no-por -m def2 --model drf0
expect 0 "run without partial-order reduction" \
  "$WEAKORD" run --no-por "$LITMUS_DIR/mp_sync.litmus"
expect 0 "run with reduction telemetry" \
  "$WEAKORD" run --por-stats "$LITMUS_DIR/mp_sync.litmus"
expect 0 "run with explicit --jobs" \
  "$WEAKORD" run --jobs 2 "$LITMUS_DIR/mp_sync.litmus"
expect 0 "run with --jobs auto" \
  "$WEAKORD" run --jobs auto "$LITMUS_DIR/mp_sync.litmus"
expect 0 "fault campaign that passes" \
  "$WEAKORD" faults --seeds 1 -s delay mp_sync

# --no-por affects both enumerations, never the results: the full run
# report (SC sets and machine outcome sets) must be byte-identical with
# the reduction on and off, on either side of the oracle size threshold.
"$WEAKORD" run "$LITMUS_DIR/mp_sync.litmus" > "$tmp/por.out" 2>/dev/null
"$WEAKORD" run --no-por "$LITMUS_DIR/mp_sync.litmus" > "$tmp/nopor.out" 2>/dev/null
if ! cmp -s "$tmp/por.out" "$tmp/nopor.out"; then
  echo "FAIL: --no-por changed the run report" >&2
  fails=$((fails + 1))
fi
if ! "$WEAKORD" run --por-stats dekker 2>/dev/null | grep -q 'por: '; then
  echo "FAIL: --por-stats printed no reduction telemetry" >&2
  fails=$((fails + 1))
fi
# the bad --jobs values are usage errors (cmdliner's exit 124)
expect 124 "rejects --jobs 0" "$WEAKORD" run --jobs 0 dekker
expect 124 "rejects garbage --jobs" "$WEAKORD" run --jobs tortoise dekker
expect 0 "trace to stdout summary" "$WEAKORD" trace dekker -m def2
expect 0 "trace to a file" \
  "$WEAKORD" trace dekker -m def2 --normalize -o "$tmp/dekker.json"
expect 0 "sim with a trace summary" \
  "$WEAKORD" sim -w fig3 -p def1 --trace-summary

if [ ! -s "$tmp/dekker.json" ]; then
  echo "FAIL: trace -o did not write a nonempty file" >&2
  fails=$((fails + 1))
elif ! grep -q '"traceEvents"' "$tmp/dekker.json"; then
  echo "FAIL: trace output is not a Chrome trace document" >&2
  fails=$((fails + 1))
fi

# the check ran and failed: exit 1
expect 1 "races on a racy program" "$WEAKORD" races dekker
expect 1 "verify with a counterexample" "$WEAKORD" verify -m wbuf --model all

# parse failures: exit 2, with a located file:line:col report
printf 'P0 | P1 ;\nW @ 1 | ;\n' > "$tmp/bad.litmus"
expect 2 "garbled file" "$WEAKORD" run "$tmp/bad.litmus"
expect 2 "garbled stdin" sh -c "\"$WEAKORD\" run - < \"$tmp/bad.litmus\""
expect 2 "missing file" "$WEAKORD" run "$tmp/does_not_exist.litmus"

if ! "$WEAKORD" run "$tmp/bad.litmus" 2>&1 \
  | grep -q 'bad\.litmus:2:3: parse error'; then
  echo "FAIL: parse error report is not located (want bad.litmus:2:3)" >&2
  fails=$((fails + 1))
fi

# budget suspension: exit 3, with a resumable checkpoint
expect 3 "verify suspends on an expired deadline" \
  "$WEAKORD" verify -m def2 --model drf0 --deadline 0 --checkpoint "$tmp/v.ckpt"
if [ ! -s "$tmp/v.ckpt" ]; then
  echo "FAIL: suspended verify left no checkpoint" >&2
  fails=$((fails + 1))
fi
expect 3 "suspension without a checkpoint still exits 3" \
  "$WEAKORD" verify -m def2 --model drf0 --deadline 0

# resuming the suspended run (without the budget) finishes with exit 0 and
# the same verdicts as an uninterrupted run
"$WEAKORD" verify -m def2 --model drf0 > "$tmp/uninterrupted.out" 2>/dev/null
expect 0 "resume completes the suspended verify" \
  sh -c "\"$WEAKORD\" verify -m def2 --model drf0 --resume \"$tmp/v.ckpt\" > \"$tmp/resumed.out\" 2>/dev/null"
if ! cmp -s "$tmp/uninterrupted.out" "$tmp/resumed.out"; then
  echo "FAIL: resumed verify verdicts differ from the uninterrupted run" >&2
  fails=$((fails + 1))
fi

# an unusable checkpoint is exit 2, loudly — and with the .prev last-good
# generation intact, corruption of the primary recovers instead
"$WEAKORD" verify -m def2 --model drf0 --deadline 0 --checkpoint "$tmp/r.ckpt" >/dev/null 2>&1
"$WEAKORD" verify -m def2 --model drf0 --deadline 0.5 \
  --checkpoint "$tmp/r.ckpt" --resume "$tmp/r.ckpt" >/dev/null 2>&1
if [ -f "$tmp/r.ckpt.prev" ]; then
  printf 'smashed' > "$tmp/r.ckpt"
  expect 0 "corrupt primary falls back to .prev" \
    "$WEAKORD" verify -m def2 --model drf0 --resume "$tmp/r.ckpt"
fi
printf 'smashed' > "$tmp/r.ckpt"
rm -f "$tmp/r.ckpt.prev"
expect 2 "corrupt checkpoint without .prev is rejected" \
  "$WEAKORD" verify -m def2 --model drf0 --resume "$tmp/r.ckpt"
expect 2 "checkpoint resumed under the wrong machine" \
  sh -c "\"$WEAKORD\" verify -m def2 --model drf0 --deadline 0 --checkpoint \"$tmp/m.ckpt\" >/dev/null 2>&1; \
         \"$WEAKORD\" verify -m wbuf --model drf0 --resume \"$tmp/m.ckpt\""

# fault campaigns: suspension is exit 3 and a resumed campaign replays the
# identical deterministic fault schedule
expect 3 "faults suspends on an expired deadline" \
  "$WEAKORD" faults --seeds 2 -s delay --deadline 0 --checkpoint "$tmp/f.ckpt" mp_sync
"$WEAKORD" faults --seeds 2 -s delay mp_sync > "$tmp/f_full.out" 2>/dev/null
expect 0 "resumed fault campaign completes" \
  sh -c "\"$WEAKORD\" faults --seeds 2 -s delay --resume \"$tmp/f.ckpt\" mp_sync > \"$tmp/f_resumed.out\" 2>/dev/null"
if ! cmp -s "$tmp/f_full.out" "$tmp/f_resumed.out"; then
  echo "FAIL: resumed fault campaign diverged from the uninterrupted schedule" >&2
  fails=$((fails + 1))
fi
expect 2 "fault checkpoint with a different grid is rejected" \
  "$WEAKORD" faults --seeds 3 -s delay --resume "$tmp/f.ckpt" mp_sync

# gen: deterministic seed -> program mapping, usable as run/batch input
expect 0 "gen emits a program" "$WEAKORD" gen 42
"$WEAKORD" gen 42 > "$tmp/g1.litmus" 2>/dev/null
"$WEAKORD" gen 42 > "$tmp/g2.litmus" 2>/dev/null
if ! cmp -s "$tmp/g1.litmus" "$tmp/g2.litmus"; then
  echo "FAIL: gen is not deterministic for the same seed" >&2
  fails=$((fails + 1))
fi
"$WEAKORD" gen 42 --no-await --no-rmw > "$tmp/g3.litmus" 2>/dev/null
if cmp -s "$tmp/g1.litmus" "$tmp/g3.litmus"; then
  echo "FAIL: gen config flags changed nothing for seed 42" >&2
  fails=$((fails + 1))
fi
expect 0 "gen output parses back in" \
  sh -c "\"$WEAKORD\" gen 42 | \"$WEAKORD\" run -"
expect 0 "gen to a file" "$WEAKORD" gen 7 -o "$tmp/g7.litmus"
expect 124 "gen without a seed is a usage error" "$WEAKORD" gen

# batch: the supervised service's exit-code contract
printf 'machine def2\ntest mp\ntest mp_sync\nseeds 0..3\n' > "$tmp/ok.jobs"
expect 0 "clean batch" \
  "$WEAKORD" batch "$tmp/ok.jobs" --workers 2 --timeout 5
printf 'test dekker machine=wbuf\n' > "$tmp/viol.jobs"
expect 1 "batch that finds a violation" \
  "$WEAKORD" batch "$tmp/viol.jobs" --model all --timeout 5
printf 'frobnicate 3\n' > "$tmp/bad.jobs"
expect 2 "unparseable job file" "$WEAKORD" batch "$tmp/bad.jobs"
printf 'test mp machine=warpdrive\n' > "$tmp/badm.jobs"
expect 2 "job file naming an unknown machine" "$WEAKORD" batch "$tmp/badm.jobs"
expect 2 "missing job file" "$WEAKORD" batch "$tmp/no_such.jobs"
expect 2 "batch with an unknown model" \
  "$WEAKORD" batch "$tmp/ok.jobs" --model sc9000
expect 3 "batch suspended by its deadline" \
  "$WEAKORD" batch "$tmp/ok.jobs" --deadline 0 --checkpoint "$tmp/b.ckpt"
printf 'wedge\n' > "$tmp/poison.jobs"
expect 4 "batch that quarantines a poison job" \
  "$WEAKORD" batch "$tmp/poison.jobs" --timeout 0.3 --retries 1 --backoff 10
printf 'smashed' > "$tmp/b2.ckpt"
expect 2 "batch with an unusable resume checkpoint" \
  "$WEAKORD" batch "$tmp/ok.jobs" --resume "$tmp/b2.ckpt"

# the batch/serve --help must document the JSONL telemetry fields the
# records actually carry, and -v must explain the dedup counters
for sub in batch serve; do
  if ! "$WEAKORD" "$sub" --help=plain 2>/dev/null \
    | grep -q 'spilled_runs'; then
    echo "FAIL: $sub --help does not document the spilled_runs field" >&2
    fails=$((fails + 1))
  fi
done

# a memory budget without --spill-dir spills into a private temporary
# directory: exit 0, runs spilled, coverage exhaustive, nothing left in
# $TMPDIR afterwards (sb's 20 def2 states at about 150 bytes a packed
# key cross 2048 bytes once)
mkdir -p "$tmp/tmpdir"
TMPDIR="$tmp/tmpdir" "$WEAKORD" verify --mem-budget 2048 -v \
  "$LITMUS_DIR/sb.litmus" > "$tmp/membudget.out" 2>/dev/null
code=$?
if [ "$code" -ne 0 ]; then
  echo "FAIL: verify --mem-budget without --spill-dir: expected exit 0, got $code" >&2
  fails=$((fails + 1))
fi
if ! grep -q 'spilled-runs=' "$tmp/membudget.out"; then
  echo "FAIL: verify --mem-budget without --spill-dir spilled no runs" >&2
  fails=$((fails + 1))
fi
if grep -q 'bounded' "$tmp/membudget.out"; then
  echo "FAIL: verify --mem-budget without --spill-dir reported bounded coverage" >&2
  fails=$((fails + 1))
fi
if [ -n "$(ls -A "$tmp/tmpdir")" ]; then
  echo "FAIL: verify --mem-budget left files in \$TMPDIR" >&2
  fails=$((fails + 1))
fi
# batch spills each attempt into a jobN subdirectory of --spill-dir,
# creating the directory if it is missing, and removes the subdirectory
# once the attempt ends: the spill dir is left empty
printf 'machine def2\nseeds 0..3\n' > "$tmp/spill_jobs.txt"
"$WEAKORD" batch "$tmp/spill_jobs.txt" --spill-dir "$tmp/sp" \
  --mem-budget 2000 -o "$tmp/spill.jsonl" 2>/dev/null
code=$?
if [ "$code" -ne 0 ]; then
  echo "FAIL: batch --spill-dir --mem-budget: expected exit 0, got $code" >&2
  fails=$((fails + 1))
fi
if ! grep -q '"spilled_runs":[1-9]' "$tmp/spill.jsonl"; then
  echo "FAIL: batch --mem-budget 2000 spilled no runs" >&2
  fails=$((fails + 1))
fi
if [ -n "$(ls -A "$tmp/sp" 2>/dev/null)" ]; then
  echo "FAIL: batch left files in --spill-dir: $(ls -A "$tmp/sp")" >&2
  fails=$((fails + 1))
fi
if ! "$WEAKORD" batch --help=plain 2>/dev/null | grep -q 'sym_dedup'; then
  echo "FAIL: batch --help does not explain the sym_dedup counter" >&2
  fails=$((fails + 1))
fi
if ! "$WEAKORD" gen --help=plain 2>/dev/null | grep -q 'JSONL'; then
  echo "FAIL: gen --help does not mention the JSONL repro contract" >&2
  fails=$((fails + 1))
fi

# serve: startup misconfiguration is exit 2 before any job runs
expect 2 "serve with an unknown model" \
  "$WEAKORD" serve "$tmp/s.sock" --model sc9000
expect 2 "serve with an unknown machine" \
  "$WEAKORD" serve "$tmp/s.sock" -m warpdrive
expect 2 "serve with an unusable resume checkpoint" \
  sh -c "printf smashed > \"$tmp/s.ckpt\"; \
         \"$WEAKORD\" serve \"$tmp/s.sock\" --resume \"$tmp/s.ckpt\""

# client: connecting to nothing is exit 2
expect 2 "client against a dead socket" \
  "$WEAKORD" client "$tmp/no_such.sock"

# fuzz: seed-range validation is exit 2; a clean range exits 0; the
# deadline suspends with exit 3
expect 2 "fuzz without a range" "$WEAKORD" fuzz
expect 2 "fuzz with a backwards range" "$WEAKORD" fuzz --seeds 9..3
expect 2 "fuzz with both --seeds and --count" \
  "$WEAKORD" fuzz --seeds 0..3 --count 4
expect 0 "fuzz over a clean seed range" \
  "$WEAKORD" fuzz --seeds 0..3 --no-sim
expect 3 "fuzz suspended by its deadline" \
  "$WEAKORD" fuzz --count 500 --deadline 0

# gen --profile: each named profile is a distinct deterministic mapping
expect 0 "gen with a named profile" "$WEAKORD" gen 42 --profile wide
expect 124 "gen with an unknown profile is a usage error" \
  "$WEAKORD" gen 42 --profile sideways
"$WEAKORD" gen 42 --profile wide > "$tmp/p1.litmus" 2>/dev/null
"$WEAKORD" gen 42 --profile wide > "$tmp/p2.litmus" 2>/dev/null
if ! cmp -s "$tmp/p1.litmus" "$tmp/p2.litmus"; then
  echo "FAIL: gen --profile wide is not deterministic for the same seed" >&2
  fails=$((fails + 1))
fi
if cmp -s "$tmp/g1.litmus" "$tmp/p1.litmus"; then
  echo "FAIL: gen --profile wide matched the default mapping for seed 42" >&2
  fails=$((fails + 1))
fi

# fleet: range/flag validation is exit 2; a clean range exits 0; the
# deadline drains with exit 3; a wedge seed quarantines with exit 4
expect 2 "fleet without a range" "$WEAKORD" fleet
expect 2 "fleet with a backwards range" "$WEAKORD" fleet --seeds 9..3
expect 2 "fleet with zero shards" "$WEAKORD" fleet --count 10 --shards 0
expect 2 "fleet with an unusable resume checkpoint" \
  sh -c "printf smashed > \"$tmp/fl.ckpt\"; \
         \"$WEAKORD\" fleet --count 10 --resume \"$tmp/fl.ckpt\""
expect 0 "fleet over a clean seed range" \
  "$WEAKORD" fleet --count 20 --unit 5 --shards 2 --no-sim
expect 3 "fleet drained by its deadline" \
  "$WEAKORD" fleet --count 5000 --deadline 0 --checkpoint "$tmp/fd.ckpt"
expect 4 "fleet that quarantines a wedge seed" \
  "$WEAKORD" fleet --count 8 --unit 4 --shards 2 --wedge-seed 3 \
  --hang-timeout 0.5 --retries 1 --backoff 10

if [ "$fails" -ne 0 ]; then
  echo "$fails exit-code check(s) failed" >&2
  exit 1
fi
echo "cli exit codes: ok"
