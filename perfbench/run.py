#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first run configures and builds the
benchmark (CMake, Release) into $CARGO_TARGET_DIR, or .bench_build when that
is unset; later runs reuse the build.  Build output goes to stderr, the
benchmark's own output to stdout, whose last line is the run's JSON result.
Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    bdir = os.path.join(bdir, "perfbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(bdir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(os.path.dirname(exe),
                             "spans-%s.csv" % args.workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print("perfbench: run failed (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
        keys = {"correct", "attempted", "failed", "metrics"}
        if set(result) != keys:
            raise ValueError("result keys %s" % sorted(result))
    except ValueError as e:
        sys.stdout.write(proc.stdout)
        print("perfbench: malformed result line: %s" % e, file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
