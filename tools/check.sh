#!/usr/bin/env bash
# Build and test both the regular and the ASan+UBSan configurations.
# The sanitizer pass matters most for the fault-tolerance error paths
# (injected faults, retries, quarantine), which normal runs rarely hit.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)

# Warnings fail the build here, as in CI. The default configuration
# (a plain `cmake -B build -S .`) only reports them.
werror=-DCMAKE_CXX_FLAGS=-Werror

echo "== regular build =="
cmake -B build -S . "$werror" >/dev/null
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

echo "== sanitizer build (ASan+UBSan) =="
cmake -B build-asan -S . -DRIGOR_SANITIZE=ON \
    -DCMAKE_BUILD_TYPE=Debug "$werror" >/dev/null
cmake --build build-asan -j "$jobs"
ctest --test-dir build-asan --output-on-failure -j "$jobs"

echo "== switch-fallback dispatch build (-DRIGOR_NO_COMPUTED_GOTO) =="
# The threaded tier's computed-goto loop has a portable switch twin;
# both must build warning-free and produce byte-identical artifacts
# (the *model* charges dispatch costs, not the host dispatch
# mechanism).
cmake -B build-nocg -S . \
    -DCMAKE_CXX_FLAGS="-DRIGOR_NO_COMPUTED_GOTO -Werror" >/dev/null
cmake --build build-nocg -j "$jobs" --target rigorbench

echo "== parallel determinism (--jobs 4 vs --jobs 1, every tier) =="
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for tier in interp adaptive threaded; do
    for n in 1 4; do
        ./build/tools/rigorbench run nbody --tier "$tier" \
            --invocations 6 --iterations 5 \
            --jobs "$n" --inject checksum:inv=2:n=1 \
            --json "$tmp/j$n.json" --metrics "$tmp/m$n.json" \
            --trace "$tmp/t$n.json" --quiet >/dev/null 2>&1
    done
    cmp "$tmp/j1.json" "$tmp/j4.json"
    cmp "$tmp/m1.json" "$tmp/m4.json"
    cmp "$tmp/t1.json" "$tmp/t4.json"
    # ... and across the dispatch mechanisms.
    ./build-nocg/tools/rigorbench run nbody --tier "$tier" \
        --invocations 6 --iterations 5 \
        --jobs 1 --inject checksum:inv=2:n=1 \
        --json "$tmp/jn.json" --quiet >/dev/null 2>&1
    cmp "$tmp/j1.json" "$tmp/jn.json"
done

echo "== interrupt/resume smoke (SIGTERM mid-suite, byte-identity) =="
bash tests/interrupt_resume_test.sh ./build/tools/rigorbench
bash tests/interrupt_resume_test.sh ./build-asan/tools/rigorbench

echo "== archive/compare/gate smoke (false + true positive) =="
bash tests/archive_gate_test.sh ./build/tools/rigorbench
bash tests/archive_gate_test.sh ./build-asan/tools/rigorbench

echo "== explain smoke (attribution, byte-identity, gate --explain) =="
bash tests/explain_cli_test.sh ./build/tools/rigorbench
bash tests/explain_cli_test.sh ./build-asan/tools/rigorbench

echo "== tier smoke (three tiers, cross-tier compare, rejection) =="
bash tests/tier_roundtrip_test.sh ./build/tools/rigorbench
bash tests/tier_roundtrip_test.sh ./build-asan/tools/rigorbench
bash tests/tier_roundtrip_test.sh ./build-nocg/tools/rigorbench

echo "== crash torture (io:* crash sweep, ENOSPC, locks, fsck) =="
bash tests/crash_torture_test.sh ./build/tools/rigorbench
bash tests/crash_torture_test.sh ./build-asan/tools/rigorbench

echo "== serve daemon smoke (multi-tenant byte-identity, drain) =="
bash tests/serve_smoke_test.sh ./build/tools/rigorbench
bash tests/serve_smoke_test.sh ./build-asan/tools/rigorbench

echo "all checks passed"
