#!/usr/bin/env python3
"""Run one workload of the ctamem benchmark and print its result.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

Builds the library and the benchmark binary from this checkout's sources
with CMake (into $CARGO_TARGET_DIR, default .bench_build), then runs it.  The last line of stdout is one JSON object with the keys
"correct", "attempted", "failed" and "metrics": the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  setup_s is the
median over several set-ups: the binary is spawned SETUP_SAMPLES extra
times in its --setup-only mode, and its own run adds one more sample.

--self-test builds and runs the unit tests of the benchmark's helpers.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign-cold", "svc-session", "fuzz-search", "paper-tables")
SETUP_SAMPLES = 20
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    """The CMake build tree, kept inside the checkout."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.realpath(os.path.join(ROOT, target))
    if os.path.commonpath([path, os.path.realpath(ROOT)]) != \
            os.path.realpath(ROOT):
        path = os.path.join(ROOT, ".bench_build")
    return path


def run_bounded(cmd, timeout, capture, env=None):
    """Run @cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, env=env,
                            stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build(bdir, targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no ctamem sources under {ROOT}/src; run from a checkout")
        return False
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", "4", "--target"] + targets)
    for step in steps:
        code, _ = run_bounded(step, max(1.0, deadline - time.monotonic()),
                              capture=False)
        if code != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


def spawn(bdir, args, extra):
    """Spawn the benchmark binary; returns (exit code, stdout lines)."""
    cmd = [os.path.join(bdir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--build-dir", bdir] + extra
    cmd += ["--t0-ns", str(time.monotonic_ns())]
    code, out = run_bounded(cmd, RUN_TIMEOUT_S, capture=True)
    return code, out.splitlines()


def last_json(lines):
    for line in reversed(lines):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("benchmark printed no JSON result")


def self_test(bdir):
    if not build(bdir, ["perfbench_tests"]):
        return 1
    exe = os.path.join(bdir, "perfbench_tests")
    if not os.path.isfile(exe):
        log("GTest not found; perfbench_tests was not built")
        return 1
    # Test scratch files stay inside the build tree.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TEST_TMPDIR=tmp)
    code, _ = run_bounded([exe], RUN_TIMEOUT_S, capture=False, env=env)
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    bdir = build_dir()
    if args.self_test:
        return self_test(bdir)
    if not args.workload:
        ap.error("--workload is required")
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")
    if not build(bdir, ["perfbench", "ctamemd"]):
        return 2

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            code, lines = spawn(bdir, args, ["--setup-only"])
            if code != 0:
                log(f"set-up run exited with {code}")
                return 1
            setups.append(last_json(lines)["setup_s"])

    code, lines = spawn(bdir, args, [])
    if code != 0:
        log(f"benchmark exited with {code}")
        return 1
    result = last_json(lines)
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.TimeoutExpired as err:
        log(f"timed out: {err.cmd[0]}")
        sys.exit(1)
