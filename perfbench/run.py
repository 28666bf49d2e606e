#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root.  Configures and builds perfbench/ (the
library sources under src/ plus the benchmark driver) into
.bench_build/perfbench, or into $CARGO_TARGET_DIR/perfbench when that is
set, then runs the workload.  Build output goes to stderr; the benchmark's
report goes to stdout and its last line is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 1 the traced run's
spans are written to <build dir>/spans/<workload>-seed<N>.json.  Exits
nonzero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_500k", "fleet_faults", "paper_closed_loop")
# A run must end within 180 s; the benchmark itself measures for
# --seconds and needs a few more for set-up and its checks.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "fleet", "fleet_runner.h")):
        raise RuntimeError("library sources not found under " +
                           os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seconds",
           str(args.seconds), "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.trace == 1:
        spans_dir = os.path.join(out_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        seed = "default" if args.seed is None else str(args.seed)
        cmd += ["--spans",
                os.path.join(spans_dir, f"{args.workload}-seed{seed}.json")]
    started = time.monotonic()
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        print(f"run.py: benchmark exited with {run.returncode}",
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(run.stdout)
        print("run.py: benchmark printed no result line", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(f"run seconds {time.monotonic() - started:.1f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
