#!/usr/bin/env python3
"""Builds and runs the repository benchmark (definitions in METRICS.md).

Run from the repository root:

  python3 perfbench/run.py --workload fig4_wan|bulk_rw \
      --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest     # tests of the benchmark helpers

The first run configures and builds the library layers and the benchmark
into the build directory ($CARGO_TARGET_DIR, default .bench_build); later
runs rebuild incrementally. Build output goes to standard error, so the
last line of standard output is the benchmark's result object. With
--trace 1 the spans of the run are written to <build dir>/traces/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_logged(cmd, env, timeout):
    """Runs a build step with its output on standard error."""
    return subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout, check=False).returncode


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: the repository sources are missing next to "
              "perfbench/", file=sys.stderr)
        return False
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        rc = run_logged(["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"], env, BUILD_TIMEOUT_S)
        if rc != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = run_logged(["cmake", "--build", out, "-j", jobs], env,
                    BUILD_TIMEOUT_S)
    return rc == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(out, "perfbench_selftest")],
                              timeout=RUN_TIMEOUT_S, check=False).returncode

    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
