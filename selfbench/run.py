#!/usr/bin/env python3
"""RigorBench self-benchmark entry point.

Builds the `selfbench` program from the repository sources (CMake, the
repository's default RelWithDebInfo build type) into the build
directory, then runs it from the repository root:

    python3 selfbench/run.py --workload suite-serial --seed 1 \\
        --seconds 10 --trace 0

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}. Other forms:

    python3 selfbench/run.py --all [--seed N] [--seconds S]
    python3 selfbench/run.py --smoke            # every workload, 1 round
    python3 selfbench/run.py --fold LABEL       # results -> archive
    python3 selfbench/run.py --compare A B [--gate PCT]

The build directory is $CARGO_TARGET_DIR when set, else .bench_build,
relative to the repository root. See selfbench/BENCHMARK.md.
"""

import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

# Every workload selfbench runs (also the two BENCHMARK.json leaves out;
# see BENCHMARK.md), with the workload metrics it prints in its
# human-readable block beside the end-to-end metrics, and their units.
COMMON = {"wall_p50_s": "s", "setup_p50_s": "s", "failed_share": "ratio"}
WORKLOAD_METRICS = {
    "suite-serial": dict(COMMON, sim_bytecodes_per_s="bytecodes/s"),
    "suite-observed-parallel": dict(COMMON,
                                    sim_bytecodes_per_s="bytecodes/s"),
    "archive-query": dict(COMMON, query_p50_ms="ms", query_tail_ms="ms",
                          queries_per_s="1/s"),
    "daemon-mixed": dict(COMMON, query_p50_ms="ms", query_tail_ms="ms",
                         job_p50_ms="ms", job_tail_ms="ms",
                         jobs_per_s="1/s"),
}


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.relpath(os.path.join(ROOT, d), ROOT)


def build():
    """Configure and build selfbench; returns the binary path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("selfbench: the RigorBench sources (src/) are missing; "
                 "run from a full checkout")
    bdir = build_dir()
    cmake_dir = os.path.join(bdir, "selfbench-build")
    os.makedirs(bdir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(bdir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", "selfbench", "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", cmake_dir, "--target",
                      "selfbench", "-j", jobs])
        for cmd in steps:
            # Build chatter goes to stderr: stdout ends in the result.
            r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                               stderr=sys.stderr)
            if r.returncode != 0:
                sys.exit("selfbench: build step failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "selfbench")


def run(binary, args):
    cmd = [binary] + args + ["--state-dir",
                             os.path.join(build_dir(), "selfbench")]
    return subprocess.run(cmd, cwd=ROOT)


def last_json_line(text):
    lines = [l for l in text.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def smoke(binary):
    """Every workload once at minimal size, traced and untraced;
    asserts every metric is printed with its unit."""
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    failures = []
    for name in WORKLOAD_METRICS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            before = len(failures)
            args = ["--workload", name, "--seed", "1", "--seconds", "1",
                    "--trace", trace, "--smoke", "--state-dir",
                    os.path.join(build_dir(), "selfbench")]
            r = subprocess.run([binary] + args, cwd=ROOT,
                               capture_output=True, text=True, timeout=170)
            res = last_json_line(r.stdout)
            where = "%s --trace %s" % (name, trace)
            if r.returncode != 0 or not res or not res.get("correct"):
                failures.append("%s: run failed (exit %d)\n%s%s"
                                % (where, r.returncode, r.stdout,
                                   r.stderr))
                continue
            for m in spec[key]:
                got = res["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    failures.append("%s: metric %s missing or not in %s"
                                    % (where, m["name"], m["unit"]))
            if trace == "0":
                for metric, unit in WORKLOAD_METRICS[name].items():
                    if not any(line.split()[:1] == [metric] and
                               line.split()[2:3] == [unit]
                               for line in r.stdout.splitlines()):
                        failures.append("%s: %s not printed in %s"
                                        % (where, metric, unit))
            if len(failures) == before:
                print("smoke %-40s ok" % where)
    for f in failures:
        print("SMOKE FAILED: " + f, file=sys.stderr)
    return 1 if failures else 0


def run_all(binary, argv):
    """Every workload untraced, one after another: --all [--seed N]
    [--seconds S]. Exits nonzero when any run is not correct."""
    opts = {"--seed": "1", "--seconds": "25"}
    for flag, value in zip(argv[1::2], argv[2::2]):
        opts[flag] = value
    bad = 0
    for name in WORKLOAD_METRICS:
        r = subprocess.run([binary, "--workload", name, "--trace", "0",
                            "--seed", opts["--seed"], "--seconds",
                            opts["--seconds"], "--state-dir",
                            os.path.join(build_dir(), "selfbench")],
                           cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(r.stdout)
        res = last_json_line(r.stdout)
        bad += r.returncode != 0 or not res or not res.get("correct")
    return 1 if bad else 0


def main(argv):
    binary = build()
    if argv == ["--smoke"]:
        return smoke(binary)
    if argv[:1] == ["--all"]:
        return run_all(binary, argv)
    return run(binary, argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
