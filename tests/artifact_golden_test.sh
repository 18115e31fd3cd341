#!/usr/bin/env bash
# Byte-identity gate across commits for the rigorbench CLI.
#
# Every other byte-identity check compares two runs of the same
# build, so it cannot see a change in how bytes are written. This
# script runs a fixed small set of commands in a fresh directory and
# checks every artifact against the committed SHA-256 manifest
# tests/artifact_golden.sha256:
#   - `run nbody` on each tier with --json, --metrics, --trace and
#     --archive (the archive entries are hashed too);
#   - `archive list`;
#   - `compare 1 2 --json` (interp entry vs adaptive entry);
#   - `sequential nbody` with --metrics and --trace;
#   - the one-shot `compare nbody` (stdout, --metrics, --trace) and
#     `profile nbody` (stdout);
#   - a small `suite` with a per-invocation checkpoint, --metrics and
#     --trace (report, resume state, metrics, trace), the same design
#     with --archive (its entry), and the same checkpointed suite
#     killed by `--inject io:crash-at=N` at the write that leaves one
#     complete and one partial tier in the state's in_progress record.
#
# A change that alters any of these bytes on purpose must say so and
# regenerate the manifest with --update. The modelled noise goes
# through libm, so the manifest holds for the x86-64 glibc builds CI
# uses; another libm may round a noise draw differently.
#
# Usage: artifact_golden_test.sh /path/to/rigorbench [--update]
set -u

BIN=${1:?usage: $0 /path/to/rigorbench [--update]}
MODE=${2:-check}
BIN=$(cd "$(dirname "$BIN")" && pwd)/$(basename "$BIN")
MANIFEST=$(cd "$(dirname "$0")" && pwd)/artifact_golden.sha256
WORK=$(mktemp -d /tmp/rigor_golden_XXXXXX)
trap 'rm -rf "$WORK"' EXIT

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

# Relative paths only: JSON artifacts echo the paths they were given.
cd "$WORK" || fail "cannot enter $WORK"
for tier in interp adaptive threaded; do
    "$BIN" run nbody --tier "$tier" --invocations 2 --iterations 6 \
        --json "run-$tier.json" --metrics "metrics-$tier.json" \
        --trace "trace-$tier.json" --archive archive --label "$tier" \
        --quiet >/dev/null 2>&1 || fail "run --tier $tier exited $?"
done
"$BIN" archive list --archive archive >archive-list.txt 2>/dev/null ||
    fail "archive list exited $?"
"$BIN" compare 1 2 --base-tier interp --cand-tier adaptive \
    --archive archive --json compare.json >compare.md 2>/dev/null ||
    fail "compare exited $?"

"$BIN" sequential nbody --size 4 --metrics seq-metrics.json \
    --trace seq-trace.json --quiet >seq.txt 2>/dev/null ||
    fail "sequential exited $?"
"$BIN" compare nbody --size 4 --invocations 2 --iterations 3 \
    --metrics cmp-metrics.json --trace cmp-trace.json \
    >cmp.txt 2>/dev/null || fail "compare nbody exited $?"
"$BIN" profile nbody --size 4 --iterations 3 >profile.txt \
    2>/dev/null || fail "profile exited $?"

SUITE=(suite --invocations 2 --iterations 2 --size 4 --quiet)
CKPT=(--checkpoint-every 1 --metrics suite-metrics.json
      --trace suite-trace.json)
"$BIN" "${SUITE[@]}" "${CKPT[@]}" --resume suite-state.json \
    >suite-report.txt 2>/dev/null || fail "suite exited $?"
"$BIN" "${SUITE[@]}" --archive suite-archive >/dev/null 2>&1 ||
    fail "suite --archive exited $?"
# Each checkpoint is nine durable-I/O calls; the 24th renames the
# third checkpoint into place: richards with interp complete and
# adaptive one invocation in.
mkdir crash && (cd crash && "$BIN" "${SUITE[@]}" "${CKPT[@]}" \
    --resume suite-state.json --inject io:crash-at=24 >/dev/null 2>&1)
rc=$?
[ "$rc" -eq 6 ] || fail "suite --inject io:crash-at=24 exited $rc (want 6)"

FILES=(run-*.json metrics-*.json trace-*.json archive/entry-*.json
       archive-list.txt compare.json compare.md
       seq.txt seq-metrics.json seq-trace.json
       cmp.txt cmp-metrics.json cmp-trace.json profile.txt
       suite-report.txt suite-state.json suite-metrics.json
       suite-trace.json suite-archive/entry-*.json
       crash/suite-state.json)
if [ "$MODE" = "--update" ]; then
    sha256sum "${FILES[@]}" >"$MANIFEST" || fail "cannot write manifest"
    echo "updated $MANIFEST"
    exit 0
fi
[ "$MODE" = check ] || fail "unknown mode '$MODE' (want --update)"

# Every manifest file must exist and match, and nothing may be new.
sha256sum --quiet -c "$MANIFEST" ||
    fail "artifact bytes differ from $MANIFEST"
listed=$(awk '{print $2}' "$MANIFEST" | sort)
written=$(printf '%s\n' "${FILES[@]}" | sort)
[ "$listed" = "$written" ] ||
    fail "artifact set differs from the manifest"
echo "PASS: ${#FILES[@]} artifacts match $MANIFEST"
