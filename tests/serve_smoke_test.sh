#!/usr/bin/env bash
# Serve-daemon integration test for the rigorbench CLI.
#
# Drives the real binary end to end in daemon mode: a job submitted
# over the socket must produce report text and artifacts (json, csv,
# metrics, trace, archive entry) byte-identical to the same
# configuration run at a shell, and so do the stdout and metrics of a
# submitted sequential, compare and profile job; two clients submit
# overlapping suites that both come back byte-identical to the
# one-shot reference; an
# archive query (compare) is answered over the socket while jobs are
# in flight, and after a byte of an entry flips (size and mtime kept)
# the next one quarantines it and fails as the one-shot CLI does;
# admission control rejects io:* fault injection with the
# documented exit code; and a SIGTERM drain (exit 3) followed by
# `serve --resume` completes the interrupted job with the same report
# an uninterrupted run produces.
#
# Experiments are deliberately small, and the drain's kill delay is
# derived from a measured reference duration so the signal lands
# mid-suite on release builds and on sanitizer builds that run an
# order of magnitude slower.
#
# Usage: serve_smoke_test.sh /path/to/rigorbench
set -u

BIN=${1:?usage: $0 /path/to/rigorbench}
WORK=$(mktemp -d /tmp/rigor_serve_XXXXXX)
SOCK="$WORK/daemon.sock"
STATE="$WORK/daemon-state"
DAEMON_PID=""

cleanup() {
    [ -n "$DAEMON_PID" ] && kill -KILL "$DAEMON_PID" 2>/dev/null
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

start_daemon() { # start_daemon [extra flags...]
    "$BIN" serve --socket "$SOCK" --state-dir "$STATE" \
        --max-queue 8 --max-active 1 "$@" \
        >"$WORK/daemon.out" 2>"$WORK/daemon.err" &
    DAEMON_PID=$!
    # Ready when the status op answers; the daemon creates the socket
    # before accepting, so poll the protocol, not the filesystem.
    local i
    for i in $(seq 1 300); do
        if "$BIN" status --socket "$SOCK" >/dev/null 2>&1; then
            return 0
        fi
        kill -0 "$DAEMON_PID" 2>/dev/null ||
            fail "daemon died at startup: $(cat "$WORK/daemon.err")"
        sleep 0.1
    done
    fail "daemon never answered on $SOCK"
}

wait_job_done() { # wait_job_done <job-id>
    local id=$1 i state
    for i in $(seq 1 1200); do
        state=$("$BIN" status "$id" --socket "$SOCK" 2>/dev/null |
            sed -n "s/^job #$id: //p")
        case "$state" in
        done) return 0 ;;
        failed | cancelled) fail "job #$id ended as '$state'" ;;
        esac
        sleep 0.25
    done
    fail "job #$id never finished (last state: '${state:-none}')"
}

job_report() { # job_report <job-id>  -> report bytes on stdout
    "$BIN" status "$1" --socket "$SOCK" |
        sed -n '/^--- report ---$/,$p' | tail -n +2
}

# Normalize user-chosen paths out of a report so one-shot and daemon
# reports (which write artifacts into different directories) compare.
scrub_paths() { sed "s|$WORK/[a-z-]*/|DIR/|g" "$1"; }

RUN_FLAGS=(--invocations 3 --iterations 5 --seed 0xabc --label smoke)
SUITE_FLAGS=(--invocations 2 --iterations 2 --size 4 --seed 0xfeed)

# --- reference one-shot artifacts ------------------------------------
mkdir -p "$WORK/one" "$WORK/dmn"
"$BIN" run queens "${RUN_FLAGS[@]}" \
    --json "$WORK/one/run.json" --csv "$WORK/one/run.csv" \
    --metrics "$WORK/one/metrics.json" --trace "$WORK/one/trace.json" \
    --archive "$WORK/one/archive" \
    >"$WORK/one/report.txt" 2>"$WORK/one/stderr.txt" ||
    fail "one-shot reference run failed (rc=$?)"
"$BIN" suite "${SUITE_FLAGS[@]}" --quiet >"$WORK/suite-ref.txt" ||
    fail "one-shot reference suite failed (rc=$?)"

# Client commands without a daemon: exit 7, not a hang or a crash.
"$BIN" status --socket "$SOCK" >/dev/null 2>&1
rc=$?
[ "$rc" -eq 7 ] || fail "status with no daemon exited $rc (want 7)"

start_daemon

# --- byte-identity: daemon-executed run vs one-shot CLI --------------
"$BIN" submit run queens "${RUN_FLAGS[@]}" --socket "$SOCK" \
    --client tenant-a \
    --json "$WORK/dmn/run.json" --csv "$WORK/dmn/run.csv" \
    --metrics "$WORK/dmn/metrics.json" --trace "$WORK/dmn/trace.json" \
    --archive "$WORK/dmn/archive" \
    >"$WORK/dmn/report.txt" 2>"$WORK/dmn/stderr.txt" ||
    fail "submitted run failed (rc=$?)"
for f in run.json run.csv metrics.json trace.json \
    archive/entry-000001.json; do
    cmp -s "$WORK/one/$f" "$WORK/dmn/$f" ||
        fail "daemon artifact $f differs from the one-shot CLI's"
done
diff <(scrub_paths "$WORK/one/report.txt") \
    <(scrub_paths "$WORK/dmn/report.txt") >/dev/null ||
    fail "daemon report text differs from the one-shot CLI's"
echo "ok: daemon artifacts byte-identical to one-shot CLI"

# --- sequential, compare and profile: same bytes through the daemon --
# Both sides write --metrics (where the command takes it) to the same
# path in turn, so their stdout must match byte for byte.
JOBS=("sequential nbody --iterations 3 --metrics $WORK/sequential.json"
      "compare nbody --invocations 2 --iterations 3
       --metrics $WORK/compare.json"
      "profile nbody --iterations 3")
for job in "${JOBS[@]}"; do
    name=${job%% *}
    # shellcheck disable=SC2086 # split the job's words
    "$BIN" $job --size 4 --quiet >"$WORK/one/$name.txt" ||
        fail "one-shot $name failed (rc=$?)"
    [ -e "$WORK/$name.json" ] && mv "$WORK/$name.json" "$WORK/one/"
    # shellcheck disable=SC2086
    "$BIN" submit $job --size 4 --quiet --socket "$SOCK" \
        >"$WORK/dmn/$name.txt" || fail "submitted $name failed (rc=$?)"
    cmp -s "$WORK/one/$name.txt" "$WORK/dmn/$name.txt" ||
        fail "daemon stdout of $name differs from the one-shot CLI's"
    if [ -e "$WORK/one/$name.json" ]; then
        cmp -s "$WORK/one/$name.json" "$WORK/$name.json" ||
            fail "daemon metrics of $name differ from the one-shot's"
    fi
done
echo "ok: submitted sequential, compare and profile match one-shot"

# A second archived run so the archive has two entries to compare.
"$BIN" submit run queens "${RUN_FLAGS[@]}" --socket "$SOCK" \
    --client tenant-a --archive "$WORK/dmn/archive" \
    >/dev/null 2>&1 || fail "second archived run failed (rc=$?)"

# --- two clients, overlapping suites ---------------------------------
out_a=$("$BIN" submit suite "${SUITE_FLAGS[@]}" --quiet \
    --socket "$SOCK" --client tenant-a --no-wait) ||
    fail "tenant-a suite submit failed"
out_b=$("$BIN" submit suite "${SUITE_FLAGS[@]}" --quiet \
    --socket "$SOCK" --client tenant-b --priority 5 --no-wait) ||
    fail "tenant-b suite submit failed"
job_a=$(echo "$out_a" | sed -n 's/^submitted job #//p')
job_b=$(echo "$out_b" | sed -n 's/^submitted job #//p')
[ -n "$job_a" ] && [ -n "$job_b" ] ||
    fail "submit --no-wait did not print job ids"

# While those are queued/running: an archive query over the socket.
"$BIN" compare 1 2 --archive "$WORK/dmn/archive" --socket "$SOCK" \
    >"$WORK/compare.txt" 2>&1 ||
    fail "compare over the socket failed (rc=$?)"
grep -q "queens" "$WORK/compare.txt" ||
    fail "remote compare output names no workload"

# A warm daemon never accepts bytes a cold scan rejects. Flip one byte
# of entry 2 in place, size and mtime kept: the next remote compare
# must quarantine it and fail exactly as the one-shot CLI does on the
# same bytes in the same directory.
E2="$WORK/dmn/archive/entry-000002.json"
cp -p "$E2" "$WORK/entry2.good"
off=$(grep -bo '"smoke"' "$E2" | head -n 1 | cut -d: -f1)
[ -n "$off" ] || fail "entry 2 holds no label to flip"
printf x | dd of="$E2" bs=1 seek=$((off + 1)) conv=notrunc 2>/dev/null
touch -r "$WORK/entry2.good" "$E2"
! cmp -s "$E2" "$WORK/entry2.good" &&
    [ "$(wc -c <"$E2")" -eq "$(wc -c <"$WORK/entry2.good")" ] &&
    [ ! "$E2" -nt "$WORK/entry2.good" ] &&
    [ ! "$E2" -ot "$WORK/entry2.good" ] ||
    fail "the flip did not keep entry 2's size and mtime"
"$BIN" compare 1 2 --archive "$WORK/dmn/archive" --socket "$SOCK" \
    >"$WORK/damaged-remote.txt" 2>&1
rc_remote=$?
[ -e "$E2.quarantine" ] && [ ! -e "$E2" ] ||
    fail "remote compare did not quarantine the flipped entry 2"
mv "$E2.quarantine" "$E2"
"$BIN" compare 1 2 --archive "$WORK/dmn/archive" \
    >"$WORK/damaged-one.out" 2>"$WORK/damaged-one.err"
rc_one=$?
[ -e "$E2.quarantine" ] && [ ! -e "$E2" ] ||
    fail "one-shot compare did not quarantine the flipped entry 2"
[ "$rc_one" -ne 0 ] && [ "$rc_remote" -eq "$rc_one" ] ||
    fail "compare of a flipped entry exited $rc_remote remote," \
        "$rc_one one-shot"
verdict=$(sed -n 's/^error: //p' "$WORK/damaged-one.err")
warning=$(grep 'quarantined as' "$WORK/damaged-one.err")
[ -n "$verdict" ] && [ -n "$warning" ] &&
    grep -qF "$verdict" "$WORK/damaged-remote.txt" &&
    grep -qxF "$warning" "$WORK/daemon.err" ||
    fail "remote compare of a flipped entry failed unlike the one-shot"
mv "$WORK/entry2.good" "$E2"
rm -f "$E2.quarantine"
echo "ok: a warm daemon quarantines a flipped entry as the CLI does"

# Admission control: io:* faults are rejected with exit 8.
"$BIN" submit run queens --inject io:enospc --socket "$SOCK" \
    >/dev/null 2>&1
rc=$?
[ "$rc" -eq 8 ] || fail "io-fault submit exited $rc (want 8)"

wait_job_done "$job_a"
wait_job_done "$job_b"
job_report "$job_a" >"$WORK/suite-a.txt"
job_report "$job_b" >"$WORK/suite-b.txt"
cmp -s "$WORK/suite-ref.txt" "$WORK/suite-a.txt" ||
    fail "tenant-a suite report differs from the one-shot reference"
cmp -s "$WORK/suite-ref.txt" "$WORK/suite-b.txt" ||
    fail "tenant-b suite report differs from the one-shot reference"
"$BIN" status --socket "$SOCK" >"$WORK/status.txt" ||
    fail "status table failed"
grep -q "tenant-a" "$WORK/status.txt" &&
    grep -q "tenant-b" "$WORK/status.txt" ||
    fail "status table does not attribute jobs to their clients"
echo "ok: overlapping multi-tenant suites byte-identical to reference"

# --- SIGTERM drain, then serve --resume ------------------------------
# A bigger suite so the signal has a window to land mid-job; the nap
# before the SIGTERM scales with a measured one-shot reference.
DRAIN_FLAGS=(--invocations 2 --iterations 3 --seed 0xfeed --quiet)
ref_start=$SECONDS
"$BIN" suite "${DRAIN_FLAGS[@]}" >"$WORK/drain-ref.txt" ||
    fail "drain reference suite failed (rc=$?)"
ref_dur=$((SECONDS - ref_start))
nap=$(awk -v d="$ref_dur" \
    'BEGIN { if (d < 1) d = 1; printf "%.2f", d / 3 }')

out_c=$("$BIN" submit suite "${DRAIN_FLAGS[@]}" --socket "$SOCK" \
    --client tenant-c --no-wait) || fail "drain suite submit failed"
job_c=$(echo "$out_c" | sed -n 's/^submitted job #//p')
[ -n "$job_c" ] || fail "drain submit printed no job id"

sleep "$nap"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"
rc=$?
DAEMON_PID=""
[ "$rc" -eq 3 ] || fail "drained daemon exited $rc (want 3)"
[ -s "$STATE/queue.json" ] || fail "drain left no durable queue state"
[ -e "$SOCK" ] && fail "drained daemon left its socket behind"

start_daemon --resume
wait_job_done "$job_c"
job_report "$job_c" >"$WORK/drain-resumed.txt"
cmp -s "$WORK/drain-ref.txt" "$WORK/drain-resumed.txt" ||
    fail "resumed suite report differs from the one-shot reference"
echo "ok: SIGTERM drain + serve --resume reproduced the reference"

# --- clean client-initiated shutdown ---------------------------------
"$BIN" shutdown --socket "$SOCK" >/dev/null ||
    fail "shutdown request failed (rc=$?)"
wait "$DAEMON_PID"
rc=$?
DAEMON_PID=""
[ "$rc" -eq 0 ] || fail "daemon exited $rc after drain shutdown (want 0)"

# --- version / archive-list satellites -------------------------------
"$BIN" version >"$WORK/version.txt" || fail "version exited nonzero"
grep -q "^rigorbench " "$WORK/version.txt" &&
    grep -q "rigorbench-serve" "$WORK/version.txt" ||
    fail "version output misses the binary or serve protocol line"
"$BIN" archive list --archive "$WORK/dmn/archive" --json - \
    >"$WORK/list.json" || fail "archive list --json failed"
grep -q '"schema": "rigorbench-archive-list"' "$WORK/list.json" ||
    fail "archive list --json carries no schema header"

echo "PASS: serve daemon integration"
