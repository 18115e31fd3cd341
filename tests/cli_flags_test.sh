#!/usr/bin/env bash
# Every flag acts or is rejected: the rigorbench flag x command check.
#
# The expected matrix below is written out here, independently of the
# table in src/serve/jobspec.cc. The flag list comes from `rigorbench
# help`, so a flag added without a row here fails this test.
#   - For every command form and every flag the matrix rejects,
#     `rigorbench <command> <positionals> <flag> [value]` must exit 1
#     and name the flag and the command on stderr.
#   - For every pair the matrix accepts, the same line plus a flag the
#     command rejects must exit 1 naming only that other flag: the
#     accepted flag passed the check, and no work started.
#   - Named cases: command lines that used to exit 0 while ignoring a
#     flag or measuring something else, and malformed job ids.
#
# Usage: cli_flags_test.sh /path/to/rigorbench
set -u

BIN=${1:?usage: $0 /path/to/rigorbench}
WORK=$(mktemp -d /tmp/rigor_flags_XXXXXX)
trap 'rm -rf "$WORK"' EXIT

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

# Command forms: key -> the command and positionals that select it.
declare -A FORM=(
    [run]="run nbody" [suite]="suite" [sequential]="sequential nbody"
    [profile]="profile nbody" [compare]="compare nbody"
    [entries]="compare 1 2" [gate]="gate 1 2" [explain]="explain 1 2"
    [alist]="archive list" [aprune]="archive prune" [fsck]="fsck"
    [serve]="serve" [submit]="submit run nbody" [status]="status"
    [cancel]="cancel 1" [shutdown]="shutdown" [list]="list" [env]="env"
    [version]="version" [disasm]="disasm nbody"
)

# `submit run nbody` takes run's flags plus the client's own.
RUNNER="run suite sequential compare submit"
QUERIES="entries gate explain"
# Flag -> the form keys it applies to.
declare -A ACCEPTS=(
    [--tier]="run sequential profile submit"
    [--invocations]="$RUNNER"
    [--iterations]="$RUNNER profile"
    [--size]="$RUNNER profile"
    [--jobs]="$RUNNER"
    [--seed]="$RUNNER profile $QUERIES"
    [--jit-threshold]="$RUNNER profile"
    [--target]="sequential"
    [--json]="run sequential $QUERIES alist fsck submit"
    [--csv]="run sequential submit"
    [--no-noise]="$RUNNER"
    [--inject]="$RUNNER"
    [--max-retries]="$RUNNER"
    [--deadline-ms]="$RUNNER"
    [--resume]="suite serve"
    [--checkpoint-every]="suite"
    [--metrics]="$RUNNER fsck"
    [--trace]="$RUNNER"
    [--quiet]="${!FORM[*]}"
    [--archive]="run suite $QUERIES alist aprune fsck submit"
    [--label]="run suite submit"
    [--resamples]="$QUERIES"
    [--confidence]="$QUERIES"
    [--gate-threshold]="gate"
    [--keep]="aprune"
    [--explain]="gate"
    [--repair]="fsck"
    [--base-tier]="$QUERIES"
    [--cand-tier]="$QUERIES"
    [--socket]="$QUERIES serve submit status cancel shutdown"
    [--state-dir]="serve"
    [--max-queue]="serve"
    [--max-active]="serve"
    [--priority]="submit"
    [--client]="submit"
    [--no-wait]="submit"
    [--now]="shutdown"
)

# A valid value for each flag that takes one.
declare -A VALUE=(
    [--tier]=interp [--invocations]=2 [--iterations]=2 [--size]=4
    [--jobs]=1 [--seed]=3 [--jit-threshold]=5 [--target]=5
    [--json]="$WORK/out.json" [--csv]="$WORK/out.csv"
    [--inject]=throw [--max-retries]=1 [--deadline-ms]=5
    [--resume]="$WORK/state.json" [--checkpoint-every]=2
    [--metrics]="$WORK/metrics.json" [--trace]="$WORK/trace.json"
    [--archive]="$WORK/archive" [--label]=lbl [--resamples]=100
    [--confidence]=0.9 [--gate-threshold]=5 [--keep]=1
    [--base-tier]=interp [--cand-tier]=adaptive
    [--socket]="$WORK/none.sock" [--state-dir]="$WORK/state"
    [--max-queue]=4 [--max-active]=1 [--priority]=3 [--client]=c
)

# flag_args <form-key> <flag>: the flag and its value, if it takes one.
flag_args() {
    if [ "$2" = --resume ] && [ "$1" = serve ]; then
        echo "$2"    # serve --resume restores the queue: no value
    elif [ -n "${VALUE[$2]+x}" ]; then
        echo "$2 ${VALUE[$2]}"
    else
        echo "$2"
    fi
}

accepts() { # accepts <flag> <form-key>
    case " ${ACCEPTS[$1]} " in *" $2 "*) return 0 ;; esac
    return 1
}

# --- the matrix covers exactly the flags `help` lists -----------------
help_flags=$("$BIN" help | grep -o -- '--[a-z][a-z-]*' | sort -u)
[ -n "$help_flags" ] || fail "help lists no flags"
for flag in $help_flags; do
    [ -n "${ACCEPTS[$flag]+x}" ] ||
        fail "help lists $flag, which the expected matrix lacks"
done
for flag in "${!ACCEPTS[@]}"; do
    echo "$help_flags" | grep -qx -- "$flag" ||
        fail "the expected matrix has $flag, which help does not list"
done

# --- every command x flag pair ---------------------------------------
pairs=0
for key in "${!FORM[@]}"; do
    # A flag this command rejects, to prove an accepted one passed.
    poison=--now
    [ "$key" = shutdown ] && poison=--repair
    command=${FORM[$key]%% *}
    for flag in $help_flags; do
        # shellcheck disable=SC2046 # split the form and flag words
        if accepts "$flag" "$key"; then
            "$BIN" ${FORM[$key]} $(flag_args "$key" "$flag") $poison \
                >/dev/null 2>"$WORK/err"
            rc=$?
            [ "$rc" -eq 1 ] && grep -q -- "$poison does not apply" \
                "$WORK/err" ||
                fail "${FORM[$key]} $flag: the flag is rejected" \
                    "(rc=$rc: $(cat "$WORK/err"))"
        else
            "$BIN" ${FORM[$key]} $(flag_args "$key" "$flag") \
                >/dev/null 2>"$WORK/err"
            rc=$?
            [ "$rc" -eq 1 ] ||
                fail "${FORM[$key]} $flag exited $rc (want 1)"
            grep -q -- "$flag" "$WORK/err" &&
                grep -q -- "$command" "$WORK/err" ||
                fail "${FORM[$key]} $flag: stderr names not both the" \
                    "flag and the command: $(cat "$WORK/err")"
        fi
        pairs=$((pairs + 1))
    done
done
[ -e "$WORK/out.json" ] || [ -e "$WORK/metrics.json" ] ||
    [ -e "$WORK/archive" ] && fail "a rejected command line wrote a file"
echo "ok: $pairs command x flag pairs act or are rejected"

# --- named cases ------------------------------------------------------
passes() { # passes <argv...>: the table check accepts every flag
    "$BIN" "$@" --now >/dev/null 2>"$WORK/err"
    rc=$?
    [ "$rc" -eq 1 ] && grep -q -- "--now does not apply" "$WORK/err" ||
        fail "$*: a flag is rejected (rc=$rc: $(cat "$WORK/err"))"
}
rejects() { # rejects <flag> <argv...>: exit 1 naming the flag
    local flag=$1
    shift
    "$BIN" "$@" >/dev/null 2>"$WORK/err"
    rc=$?
    [ "$rc" -eq 1 ] || fail "$* exited $rc (want 1)"
    grep -q -- "$flag" "$WORK/err" ||
        fail "$*: stderr does not name $flag: $(cat "$WORK/err")"
}
A="$WORK/archive"
rejects --base-tier compare nbody --base-tier interp --cand-tier threaded
rejects --archive sequential nbody --archive "$A"
for flag in --metrics --trace; do
    rejects "$flag" profile nbody "$flag" "$WORK/f.json"
    rejects "$flag" gate 1 2 --archive "$A" "$flag" "$WORK/f.json"
    rejects "$flag" archive list --archive "$A" "$flag" "$WORK/f.json"
done
rejects --json profile nbody --json "$WORK/x.json" --inject throw --jobs 4
rejects --tier compare nbody --tier threaded
rejects --tier suite --tier threaded
rejects --target suite --target 5
rejects --seed disasm nbody --seed 3
rejects --jobs gate 1 2 --archive "$A" --jobs 3 --inject throw
rejects --checkpoint-every suite --checkpoint-every 2
rejects --archive suite --archive "$A" --resume "$WORK/s.json"
rejects --tier submit suite --tier threaded --socket "$WORK/none.sock"
rejects --resume submit suite --resume "$WORK/s.json" \
    --socket "$WORK/none.sock"
rejects --cand-tier compare 1 2 --archive "$A" --base-tier interp
rejects --confidence gate 1 2 --archive "$A" --confidence 1
# A label names the archived entry: without --archive there is none.
rejects --label run nbody --label x
rejects --label submit suite --label x
[ -e "$WORK/x.json" ] || [ -e "$WORK/f.json" ] || [ -e "$A" ] &&
    fail "a rejected command line wrote a file"
# A submitted job takes its own command's flags.
S=(--socket "$WORK/none.sock")
passes submit suite --checkpoint-every 2 "${S[@]}"
passes submit sequential nbody --target 5 "${S[@]}"
passes submit profile nbody --tier threaded --size 4 "${S[@]}"
passes submit compare nbody --invocations 2 --metrics "$WORK/m" "${S[@]}"
rejects --target submit run nbody --target 5 "${S[@]}"
rejects --json submit compare nbody --json "$WORK/x.json" "${S[@]}"
rejects --archive submit suite --archive "$A" --checkpoint-every 2 \
    "${S[@]}"
# Malformed job ids and stray positionals are usage errors too.
rejects status status abc
rejects cancel cancel 12x
rejects run run nbody extra
rejects submit submit frobnicate
echo "ok: named cases exit 1 naming the flag"

# --- an accepted flag acts: fsck --metrics writes its counters --------
mkdir "$WORK/empty-archive"
"$BIN" fsck --archive "$WORK/empty-archive" --metrics "$WORK/fsck.json" \
    >/dev/null 2>&1 || fail "fsck --metrics exited $?"
grep -q '"counters"' "$WORK/fsck.json" ||
    fail "fsck --metrics wrote no metrics document"

echo "PASS: every flag acts or is rejected"
