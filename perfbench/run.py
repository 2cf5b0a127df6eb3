#!/usr/bin/env python3
"""Builds and runs the rrspmm end-to-end serving benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the library and the benchmark program from
source with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the self-test, then the benchmark program.
Everything the program prints goes to stdout; its last line is the result
object. Build output goes to stderr. Exits nonzero, without a result
line, when the build, the self-test or a workload premise fails.

Extra arguments after the four above are passed to the program
(for example --inject-fault mismatch).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("clustered_spmm", "scattered_attn", "frontier_spgemm")
BUILD_JOBS = "4"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=2):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(code)


def build(build_dir):
    """Configures once, then builds; the library rebuilds only what changed."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", BUILD_JOBS]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args, extra = ap.parse_known_args()

    root = os.getcwd()
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    build(build_dir)

    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        fail("self-test failed")

    trace_file = os.path.join(build_dir, "traces",
                              "%s-seed%d.json" % (args.workload, args.seed))
    cmd = [os.path.join(build_dir, "perfbench_main"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.join(build_dir, "work"),
           "--trace-file", trace_file] + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1):
        # Premise failure or error: show the report but no result line.
        sys.stdout.write("\n".join(l for l in lines if not l.startswith("{")) + "\n")
        fail("benchmark program exited with %d" % proc.returncode, proc.returncode)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark program printed no result line", 3)
    if set(result) != RESULT_KEYS:
        fail("result line has keys %s" % sorted(result), 3)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
