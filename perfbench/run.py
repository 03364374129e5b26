#!/usr/bin/env python3
"""Builds and runs the DISC pipeline benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload g8-lattice --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ -- which compiles the program
from the repository sources -- into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs rebuild only what changed. Every run then
executes the benchmark's self-tests and perfbench_disc with the given
arguments. Build and self-test output go to stderr; the benchmark's report
goes to stdout, whose last line is the result JSON. With --trace 1 the
benchmark-side spans are written to <build dir>/traces/.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


class Child:
    """Runs one process at a time and makes sure it is gone on exit."""

    def __init__(self):
        self.proc = None

    def run(self, cmd, stdout):
        self.proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr)
        try:
            return self.proc.wait()
        finally:
            self.stop()

    def stop(self):
        if self.proc is not None and self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None


def build(child, out):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if child.run(configure, sys.stderr) != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return child.run(["cmake", "--build", out, "--parallel", jobs, "--target",
                      "perfbench_disc", "perfbench_selftest"],
                     sys.stderr) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    child = Child()
    # On SIGTERM, unwind through the finally below so the child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        out = build_dir()
        if not build(child, out):
            print("perfbench: build failed", file=sys.stderr)
            return 1
        if child.run([os.path.join(out, "perfbench_selftest")],
                     sys.stderr) != 0:
            print("perfbench: self-test failed", file=sys.stderr)
            return 1
        cmd = [os.path.join(out, "perfbench_disc"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace == 1:
            traces = os.path.join(out, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
        sys.stdout.flush()
        return child.run(cmd, sys.stdout)
    finally:
        child.stop()


if __name__ == "__main__":
    sys.exit(main())
