#!/usr/bin/env python3
"""Build and run the repo benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test

The first form builds the benchmark (perfbench/CMakeLists.txt, which
compiles the library from src/) if needed, runs one workload and passes
its output through; the last line of standard output is the result
object. The second builds and runs the benchmark's own helper tests.

Build output goes to $CARGO_TARGET_DIR/perfbench when that is set, else
to .bench_build/perfbench; everything the benchmark writes stays there.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig11-llc", "private-stream", "serve-tail")
RUN_TIMEOUT_S = 170
JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        os.path.dirname(HERE), ".bench_build")
    return os.path.join(os.path.abspath(root), "perfbench")


def build(target):
    """Configure once, then build @target; logs go to stderr."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("configure failed")
    cmd = ["cmake", "--build", out, "--target", target, "-j", JOBS]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build of %s failed" % target)
    return out


def parse(argv):
    opts = {}
    i = 0
    while i < len(argv):
        key = argv[i]
        if not key.startswith("--") or i + 1 >= len(argv):
            fail("bad argument %r" % key)
        opts[key[2:]] = argv[i + 1]
        i += 2
    for key in ("workload", "seed", "seconds", "trace"):
        if key not in opts:
            fail("--%s is required" % key)
    if opts["workload"] not in WORKLOADS:
        fail("unknown workload %r (one of %s)"
             % (opts["workload"], ", ".join(WORKLOADS)))
    return opts


def main(argv):
    if argv == ["--test"]:
        out = build("perfbench_tests")
        return subprocess.run([os.path.join(out, "perfbench_tests")]).returncode
    opts = parse(argv)
    out = build("perfbench")
    workdir = os.path.join(out, "work")
    cmd = [os.path.join(out, "perfbench"),
           "--workload", opts["workload"], "--seed", opts["seed"],
           "--seconds", opts["seconds"], "--trace", opts["trace"],
           "--workdir", workdir]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
