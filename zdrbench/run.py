#!/usr/bin/env python3
"""Builds the benchmark from source (first run only) and runs one workload.

    python3 zdrbench/run.py --workload api_steady --seed 1 --seconds 6 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR, or
.bench_build when that is unset; spans of traced runs and the takeover
sockets go to <build>/out. The last line of standard output is the
benchmark's JSON result. Exits non-zero, without a result, when the
program's sources are missing, the build fails, a ZDR_* switch is set,
or any correctness or validity check fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("api_steady", "upload_pubsub", "rolling_release")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("zdrbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        fail("the program's sources (src/ next to zdrbench/) are missing")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "zdr_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        try:
            rc = subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            fail("cannot run %s: %s" % (cmd[0], e))
        if rc != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "zdr_perfbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    switches = sorted(k for k in os.environ if k.startswith("ZDR_"))
    if switches:
        fail("refusing to run with %s set: the benchmark measures the "
             "program's defaults" % ", ".join(switches))

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
