#!/usr/bin/env bash
# Archive/compare/gate integration test for the rigorbench CLI.
#
# Drives the real binary end to end: two runs of the same
# configuration are archived (at different --jobs values, which must
# not change a single measured byte), compared (byte-identical reports
# across repeats) and gated (no false positive). A deliberately
# de-JIT-ed run is then gated against the fast baseline and must fail
# with the stable exit code 4 (true positive). Archive hygiene is
# exercised by planting a truncated entry (quarantined with a warning,
# list still exits 0), hand-reformatting two entries (they must list
# and compare exactly as before), planting a CRC-valid entry without
# a fingerprint (quarantined, exit 0) and pruning down to the newest
# entry.
#
# Usage: archive_gate_test.sh /path/to/rigorbench
set -u

BIN=${1:?usage: $0 /path/to/rigorbench}
WORK=$(mktemp -d /tmp/rigor_archive_XXXXXX)
trap 'rm -rf "$WORK"' EXIT

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

ARCH="$WORK/archive"
# Enough iterations for the JIT to dominate the steady state, so
# disabling it later is an unmistakable regression.
RUN_FLAGS=(run richards --tier adaptive --invocations 4
           --iterations 30 --seed 0xfeed --quiet)

# --- archive two same-config runs at different --jobs ----------------
"$BIN" "${RUN_FLAGS[@]}" --jobs 1 --archive "$ARCH" --label base \
    >/dev/null 2>&1 || fail "archiving run 1 failed (rc=$?)"
"$BIN" "${RUN_FLAGS[@]}" --jobs 4 --archive "$ARCH" --label fast \
    >/dev/null 2>&1 || fail "archiving run 2 failed (rc=$?)"

# --- compare: byte-identical across repeats, exact 1.0 speedup -------
"$BIN" compare HEAD~1 HEAD --archive "$ARCH" \
    >"$WORK/cmp1.md" 2>/dev/null || fail "compare exited $? (want 0)"
"$BIN" compare HEAD~1 HEAD --archive "$ARCH" \
    >"$WORK/cmp2.md" 2>/dev/null ||
    fail "repeated compare exited $? (want 0)"
cmp -s "$WORK/cmp1.md" "$WORK/cmp2.md" ||
    fail "compare reports differ across repeats"
"$BIN" compare HEAD~1 HEAD --archive "$ARCH" \
    --json "$WORK/cmp1.json" >/dev/null 2>&1 ||
    fail "compare --json exited $? (want 0)"
"$BIN" compare HEAD~1 HEAD --archive "$ARCH" \
    --json "$WORK/cmp2.json" >/dev/null 2>&1 ||
    fail "repeated compare --json exited $? (want 0)"
cmp -s "$WORK/cmp1.json" "$WORK/cmp2.json" ||
    fail "compare JSON differs across repeats"
# --jobs 1 vs --jobs 4 source runs measured identical samples, so the
# point speedup is exactly 1.000 and the verdict is inconclusive.
grep -q "1.000 \[" "$WORK/cmp1.md" ||
    fail "same-config compare did not report an exact 1.000 speedup"
grep -q "inconclusive" "$WORK/cmp1.md" ||
    fail "same-config compare was not inconclusive"
grep -q '"schema": "rigorbench-compare"' "$WORK/cmp1.json" ||
    fail "compare JSON carries no schema field"

# --- gate false-positive check: same config must pass ----------------
"$BIN" gate base --archive "$ARCH" >"$WORK/gate_ok.txt" 2>&1
rc=$?
[ "$rc" -eq 0 ] || fail "same-config gate exited $rc (want 0)"
grep -q "PASS" "$WORK/gate_ok.txt" || fail "passing gate said no PASS"

# --- gate true-positive check: de-JIT-ed run must fail with 4 --------
"$BIN" "${RUN_FLAGS[@]}" --jobs 1 --jit-threshold 100000000 \
    --archive "$ARCH" --label slow >/dev/null 2>&1 ||
    fail "archiving the slow run failed (rc=$?)"
"$BIN" gate fast slow --archive "$ARCH" --json "$WORK/gate.json" \
    >"$WORK/gate_fail.txt" 2>&1
rc=$?
[ "$rc" -eq 4 ] || fail "regressed gate exited $rc (want 4)"
grep -q "FAIL" "$WORK/gate_fail.txt" || fail "failing gate said no FAIL"
grep -q '"pass": false' "$WORK/gate.json" ||
    fail "gate JSON does not record the failure"

# --- archive hygiene: truncated entry is quarantined, not fatal ------
printf '{"format":"rigorbench-state","ver' \
    >"$ARCH/entry-000900.json"
"$BIN" archive list --archive "$ARCH" >"$WORK/list.txt" 2>&1
rc=$?
[ "$rc" -eq 0 ] || fail "archive list with a bad entry exited $rc"
grep -q "quarantined" "$WORK/list.txt" ||
    fail "archive list did not report the quarantine"
[ -e "$ARCH/entry-000900.json.quarantine" ] ||
    fail "bad entry was not renamed aside"
[ ! -e "$ARCH/entry-000900.json" ] ||
    fail "bad entry still present after quarantine"
# The healthy entries survived.
grep -q "base" "$WORK/list.txt" && grep -q "slow" "$WORK/list.txt" ||
    fail "healthy entries vanished from the listing"

# --- a hand-reformatted entry lists and compares as before -----------
# Entry 1 gets tab indentation (still canonical once whitespace is
# stripped); entry 2 gets its crc32 member moved last (only the tree
# path can verify that). Both edits keep the file size, which the
# listing prints.
"$BIN" archive list --archive "$ARCH" >"$WORK/list_before.txt" \
    2>/dev/null || fail "archive list exited $?"
"$BIN" compare 1 2 --archive "$ARCH" >"$WORK/cmp_before.md" \
    2>/dev/null || fail "compare exited $? (want 0)"
E1="$ARCH/entry-000001.json"
E2="$ARCH/entry-000002.json"
sed 's/^  /\t\t/' "$E1" >"$WORK/e1" && mv "$WORK/e1" "$E1" ||
    fail "re-indenting entry 1 failed"
awk 'NR == 2 { crc = $0; sub(/,$/, "", crc); next }
     $0 == "  \"version\": 1" { print $0 ","; print crc; next }
     { print }' "$E2" >"$WORK/e2" && mv "$WORK/e2" "$E2" ||
    fail "reordering entry 2 failed"
grep -q '^  "crc32"' "$E2" && ! sed -n 2p "$E2" | grep -q crc32 ||
    fail "entry 2 was not reordered"
"$BIN" archive list --archive "$ARCH" >"$WORK/list_after.txt" \
    2>"$WORK/list_after.err" || fail "archive list exited $?"
cmp -s "$WORK/list_before.txt" "$WORK/list_after.txt" ||
    fail "reformatted entries changed the listing"
[ ! -s "$WORK/list_after.err" ] ||
    fail "reformatted entries drew warnings: $(cat "$WORK/list_after.err")"
"$BIN" compare 1 2 --archive "$ARCH" >"$WORK/cmp_after.md" \
    2>/dev/null || fail "compare exited $? (want 0)"
cmp -s "$WORK/cmp_before.md" "$WORK/cmp_after.md" ||
    fail "reformatted entries changed the compare report"

# --- a CRC-valid entry without a fingerprint is quarantined ----------
python3 - "$ARCH/entry-000901.json" <<'EOF' ||
import json, sys, zlib
payload = {"command": "run", "runs": [{}],
           "schema": "rigorbench-archive-entry", "version": 2}
compact = json.dumps(payload, separators=(",", ":"), sort_keys=True)
envelope = {"crc32": "%08x" % zlib.crc32(compact.encode()),
            "format": "rigorbench-state", "payload": payload,
            "version": 1}
with open(sys.argv[1], "w") as f:
    f.write(json.dumps(envelope, indent=2, sort_keys=True) + "\n")
EOF
    fail "planting the fingerprint-less entry failed"
"$BIN" archive list --archive "$ARCH" >"$WORK/list3.txt" 2>&1
rc=$?
[ "$rc" -eq 0 ] || fail "archive list with a fingerprint-less entry exited $rc"
grep -q "payload has no fingerprint" "$WORK/list3.txt" ||
    fail "archive list did not say why it quarantined"
[ -e "$ARCH/entry-000901.json.quarantine" ] ||
    fail "fingerprint-less entry was not renamed aside"
"$BIN" compare HEAD~1 HEAD --archive "$ARCH" >/dev/null 2>&1 ||
    fail "compare after the quarantine exited $? (want 0)"

# --- prune keeps the newest entries ----------------------------------
"$BIN" archive prune --archive "$ARCH" --keep 1 \
    >"$WORK/prune.txt" 2>&1 || fail "archive prune exited $?"
grep -q "pruned 2" "$WORK/prune.txt" ||
    fail "prune did not remove the 2 older entries"
"$BIN" archive list --archive "$ARCH" >"$WORK/list2.txt" 2>&1
grep -q "slow" "$WORK/list2.txt" ||
    fail "prune removed the newest entry"

# --- flag/ref validation uses the stable exit codes ------------------
"$BIN" suite --archive "$ARCH" --resume "$WORK/state.json" \
    >/dev/null 2>&1
rc=$?
[ "$rc" -eq 1 ] || fail "--archive with --resume exited $rc (want 1)"
"$BIN" compare HEAD~1 HEAD >/dev/null 2>&1
rc=$?
[ "$rc" -eq 2 ] ||
    fail "two-ref compare without --archive exited $rc (want 2)"
"$BIN" gate no-such-label --archive "$ARCH" >/dev/null 2>&1
rc=$?
[ "$rc" -eq 2 ] || fail "unknown gate ref exited $rc (want 2)"
"$BIN" archive prune --archive "$ARCH" >/dev/null 2>&1
rc=$?
[ "$rc" -eq 2 ] || fail "prune without --keep exited $rc (want 2)"

echo "PASS: archive/compare/gate integration"
