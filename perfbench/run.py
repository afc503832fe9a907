#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the program (sdadcs_netd and its libraries) and the benchmark
client from this checkout, then runs one workload:

    python3 perfbench/run.py --workload mine_wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest      # the benchmark's own tests

The last line of standard output is the result object. Build output
goes to standard error. Everything is written under .bench_build/ and
.bench_run/ at the root of the checkout.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_run")
WORKLOADS = ("mine_wide", "mine_tall", "serve_mixed")
CLIENT_TIMEOUT_S = 175


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(targets):
    if not os.path.exists(os.path.join(ROOT, "src", "serve", "net_server.h")):
        die("no program sources in " + ROOT)
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))


def run(cmd):
    """Runs `cmd` in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=CLIENT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("timed out after %d s" % CLIENT_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="corrupt every oracle reference; the run must fail")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        build(["perfbench_tests"])
        tmp = os.path.join(BUILD, "test_tmp")
        os.makedirs(tmp, exist_ok=True)
        os.environ["TEST_TMPDIR"] = tmp
        sys.exit(run([os.path.join(BUILD, "perfbench_tests")]))
    if args.workload is None:
        die("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    build(["perfbench_client", "sdadcs_netd"])
    cmd = [os.path.join(BUILD, "perfbench_client"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--netd", os.path.join(BUILD, "sdadcs", "tools", "sdadcs_netd"),
           "--out", OUT]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    sys.stdout.flush()
    sys.exit(run(cmd))


if __name__ == "__main__":
    main()
