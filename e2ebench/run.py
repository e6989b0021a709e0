#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 e2ebench/run.py --workload codesign --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --selftest

Run from the repository root. The first run configures and builds the
e2ebench binary (a Release build of the dosa sources plus e2ebench/src) into
$CARGO_TARGET_DIR (default .bench_build); later runs only rebuild what
changed. The binary's report goes to stdout and its last line is the
JSON verdict {"correct", "attempted", "failed", "metrics"}; build
output goes to stderr. A traced run (--trace 1) also writes a Chrome
trace to .bench_out/. See e2ebench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("codesign", "rtl-surrogate", "service")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(root, base, "e2ebench")


def build(root, target):
    """Configure (once) and build `target`; returns the build dir."""
    if not os.path.isfile(os.path.join(root, "src", "api", "search_api.hh")):
        fail("no dosa sources under %s/src; run from the repository root"
             % root)
    out = build_dir(root)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", out, "--target", target, "-j",
           str(min(4, os.cpu_count() or 1))]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return out


def git_sha(root):
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(root)))
    try:
        res = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=root, env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def selftest(root):
    """The benchmark's unit tests, plus BENCHMARK.json vs the binary's
    metric catalogue."""
    out = build(root, "e2ebench_tests")
    tests = os.path.join(out, "e2ebench_tests")
    if not os.path.isfile(tests):
        fail("e2ebench_tests was not built (GoogleTest not found)")
    code = subprocess.run([tests]).returncode
    out = build(root, "e2ebench")
    listing = subprocess.run([os.path.join(out, "e2ebench"), "--list-metrics"],
                             capture_output=True, text=True, check=True)
    catalogue = json.loads(listing.stdout)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        declared = json.load(f)
    for key in ("end_to_end", "per_layer"):
        have = [[m["name"], m["unit"]] for m in declared[key]]
        if have != catalogue[key]:
            print("BENCHMARK.json %s differs from the binary's catalogue:\n"
                  "  declared %s\n  binary   %s" % (key, have, catalogue[key]))
            code = code or 1
    print("selftest: %s" % ("ok" if code == 0 else "FAILED"))
    return code


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    root = os.getcwd()
    if args.selftest:
        return selftest(root)
    if args.workload is None:
        fail("--workload is required")
    if args.seed < 0:
        fail("--seed must be >= 0")

    out = build(root, "e2ebench")
    cmd = [os.path.join(out, "e2ebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            root, ".bench_out", "trace-%s-%d.json" % (args.workload,
                                                      args.seed))]
    env = dict(os.environ, E2E_GIT_SHA=git_sha(root))
    try:
        res = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s exceeded %d s" % (args.workload, RUN_TIMEOUT_S), 3)
    sys.stdout.write(res.stdout)
    sys.stdout.flush()
    lines = res.stdout.strip().splitlines()
    try:
        verdict = json.loads(lines[-1]) if lines else None
    except ValueError:
        verdict = None
    if not isinstance(verdict, dict) or sorted(verdict) != [
            "attempted", "correct", "failed", "metrics"]:
        fail("the e2ebench binary printed no verdict (exit %d)"
             % res.returncode, 4)
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
