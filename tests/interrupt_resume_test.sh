#!/usr/bin/env bash
# Interrupt/resume integration test for the rigorbench CLI.
#
# Drives the real binary end to end: a suite run is SIGTERM'd
# mid-flight (exit 3), resumed at a different --jobs value (exit 0),
# and the final state, metrics and trace files must be byte-identical
# to an uninterrupted reference run. The same interrupted checkpoint
# is then corrupted to prove recovery via the .bak fallback. Also
# checks rejection of unusable and config-mismatched state and the
# stable exit-code table (0/1/2/3).
#
# The experiment is deliberately small (2 invocations x 2 iterations)
# and the kill delay is derived from the measured reference duration,
# so the signal lands mid-suite on fast release builds and on
# sanitizer builds that run an order of magnitude slower.
#
# Usage: interrupt_resume_test.sh /path/to/rigorbench
set -u

BIN=${1:?usage: $0 /path/to/rigorbench}
WORK=$(mktemp -d /tmp/rigor_resume_XXXXXX)
trap 'rm -rf "$WORK"' EXIT

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

# Common flags: every run must share the resume-config fingerprint
# (seed, invocation plan, quietness, ...). Runs are not --quiet so
# the resume/recovery bookkeeping messages can be checked; the
# progress heartbeats they also get are mirrored into the trace at
# modelled (deterministic) timestamps, so byte-identity still holds.
SUITE_FLAGS=(suite --invocations 2 --iterations 2 --seed 0xfeed
             --checkpoint-every 2 --inject throw:wl=sieve:inv=1:n=1)

run_suite() { # run_suite <dir> <jobs> [extra flags...]
    local dir=$1 jobs=$2
    shift 2
    mkdir -p "$dir"
    "$BIN" "${SUITE_FLAGS[@]}" --jobs "$jobs" \
        --resume "$dir/state.json" --metrics "$dir/metrics.json" \
        --trace "$dir/trace.json" "$@" \
        >"$dir/stdout.txt" 2>"$dir/stderr.txt"
}

# --- reference: one uninterrupted run --------------------------------
ref_start=$SECONDS
run_suite "$WORK/ref" 1 || fail "reference suite run failed (rc=$?)"
ref_dur=$((SECONDS - ref_start))
[ -s "$WORK/ref/state.json" ] || fail "reference wrote no state file"

# --- interrupt a run mid-suite ---------------------------------------
# The binary must be launched directly in the background (not inside a
# compound command) so $! is the benchmark pid, not a subshell's. The
# nap before the SIGTERM starts at a third of the reference duration
# and shrinks on the (unlikely) chance the run still finished first.
interrupt_run() { # interrupt_run <dir> <jobs>
    local dir=$1 jobs=$2 nap rc pid
    for nap in $(awk -v d="$ref_dur" 'BEGIN {
            if (d < 1) d = 1
            printf "%.2f %.2f %.2f 0.1", d / 3, d / 6, d / 15 }'); do
        rm -rf "$dir"
        mkdir -p "$dir"
        "$BIN" "${SUITE_FLAGS[@]}" --jobs "$jobs" \
            --resume "$dir/state.json" \
            --metrics "$dir/metrics.json" \
            --trace "$dir/trace.json" \
            >"$dir/stdout.txt" 2>"$dir/stderr.txt" &
        pid=$!
        sleep "$nap"
        kill -TERM "$pid" 2>/dev/null
        wait "$pid"
        rc=$?
        if [ "$rc" -eq 3 ]; then
            [ -s "$dir/state.json" ] ||
                fail "interrupted run left no checkpoint"
            return 0
        fi
        [ "$rc" -eq 0 ] ||
            fail "interrupted run exited $rc (want 3, or 0 to retry)"
    done
    fail "suite kept finishing before SIGTERM landed"
}

resume_suite() { # resume_suite <dir> <jobs>
    run_suite "$1" "$2" || fail "resume in $1 exited $? (want 0)"
    grep -q "resuming from" "$1/stderr.txt" ||
        fail "resume in $1 did not report resuming"
}

check_identical() { # check_identical <dir> <label>
    local dir=$1 label=$2 f
    for f in state.json metrics.json trace.json; do
        cmp -s "$WORK/ref/$f" "$dir/$f" ||
            fail "$label: $f differs from the uninterrupted reference"
    done
    echo "ok: $label byte-identical to reference"
}

# Interrupt at --jobs 1; keep a copy of the checkpoint (and its .bak)
# for the corruption scenario before the resume consumes it.
interrupt_run "$WORK/cross" 1
[ -s "$WORK/cross/state.json.bak" ] ||
    fail "checkpointing left no .bak to recover from"
mkdir -p "$WORK/corrupt"
cp "$WORK/cross/state.json" "$WORK/cross/state.json.bak" \
    "$WORK/corrupt/"

# Resume at --jobs 4: the acceptance check — byte-identical artifacts
# even though the interrupt and the resume used different job counts.
resume_suite "$WORK/cross" 4
check_identical "$WORK/cross" "interrupt+resume (jobs 1 -> 4)"

# --- corruption recovery: fall back to .bak --------------------------
echo "trailing garbage" >>"$WORK/corrupt/state.json"
resume_suite "$WORK/corrupt" 1
grep -q "recovered the last good checkpoint" \
    "$WORK/corrupt/stderr.txt" ||
    fail "corrupted-state resume did not report .bak recovery"
check_identical "$WORK/corrupt" "resume after state corruption"

# --- unusable state (no backup) is a runtime failure (exit 2) --------
mkdir -p "$WORK/bad"
echo "not a state file" >"$WORK/bad/state.json"
run_suite "$WORK/bad" 1
rc=$?
[ "$rc" -eq 2 ] || fail "garbage state without .bak exited $rc (want 2)"

# --- mismatched config is rejected (exit 2) --------------------------
mkdir -p "$WORK/mismatch"
cp "$WORK/ref/state.json" "$WORK/mismatch/state.json"
"$BIN" suite --invocations 2 --iterations 2 --seed 0xdead \
    --resume "$WORK/mismatch/state.json" \
    >"$WORK/mismatch/stdout.txt" 2>"$WORK/mismatch/stderr.txt"
rc=$?
[ "$rc" -eq 2 ] || fail "config-mismatched resume exited $rc (want 2)"
grep -q "config" "$WORK/mismatch/stderr.txt" ||
    fail "config-mismatched resume did not explain the mismatch"

# --- flag validation is a usage error (exit 1) -----------------------
"$BIN" run nbody --checkpoint-every 2 >/dev/null 2>&1
rc=$?
[ "$rc" -eq 1 ] || fail "--checkpoint-every without suite --resume" \
    "exited $rc (want 1)"
# A suite writes no run document or series CSV: the flags are
# rejected, never silently ignored.
for flag in --json --csv; do
    "$BIN" suite --invocations 1 --iterations 1 "$flag" "$WORK/ignored" \
        >"$WORK/flag.txt" 2>&1
    rc=$?
    [ "$rc" -eq 1 ] || fail "suite $flag exited $rc (want 1)"
    grep -q -- "$flag" "$WORK/flag.txt" ||
        fail "suite $flag: the error does not name the flag"
    [ ! -e "$WORK/ignored" ] || fail "suite $flag wrote a file"
done

echo "PASS: interrupt/resume integration"
