#!/usr/bin/env python3
"""Build the checker benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload swmr4-sym --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt)
that compiles the checker sources of the surrounding tree.  It is
configured and built incrementally under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); run records, trace files and the
daemon's socket live in its run/ subdirectory.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit status is 0 when
every output check passed, 1 when one failed or the run broke, and 2
when the tree holds no checker sources to build.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("swmr4-sym", "swmr3-nosym-mmap", "checkd-mix", "paper-suite")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def sources_present():
    return os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and \
        os.path.isfile(os.path.join(ROOT, "src", "api", "check.hh"))


def build(targets):
    """Configure once, then build @targets incrementally."""
    out = build_dir()
    cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")) and \
            shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    for step in (cmd, ["cmake", "--build", out, "-j", jobs, "--target"] +
                 list(targets)):
        proc = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            log("build step failed: " + " ".join(step))
            return None
    return out


def revision():
    """Git commit of the tree, or a content hash of the sources the
    benchmark compiles when the tree is not a git checkout."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if proc.returncode == 0:
            return "git:" + proc.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    """Metric names BENCHMARK.json registers for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def selftest():
    out = build(["perfbench_tests"])
    if out is None:
        return 1
    return subprocess.run([os.path.join(out, "perfbench_tests")],
                          check=False).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if not sources_present():
        log("no checker sources next to " + HERE + "; nothing to build")
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")

    out = build(["perfbench"])
    if out is None:
        return 1
    work = os.path.join(out, "run")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--golden", os.path.join(ROOT, "tests", "golden",
                                    "scenario_verdicts_2dev.txt"),
           "--work-dir", work, "--revision", revision()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError, IndexError):
        sys.stdout.write(proc.stdout)
        log("no result line (exit status %d)" % proc.returncode)
        return 1
    for line in lines[:-1]:
        print(line)
    wanted = expected_metrics(args.trace == 1)
    if wanted is not None and sorted(wanted) != sorted(result["metrics"]):
        log("metrics differ from BENCHMARK.json: %s" %
            sorted(set(wanted) ^ set(result["metrics"])))
        return 1
    print(json.dumps(result), flush=True)
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
