#!/usr/bin/env python3
"""Build and run the repository's benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which pulls in the
simulator sources from src/) into .bench_build/perfbench in Release
mode; later calls only rebuild what changed. Build output goes to
standard error, so the last line of standard output is the benchmark's
JSON result line.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("paper-grid", "single-cold", "service-mixed")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, timeout):
    """Run cmd with its output on our stderr; True on exit code 0."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {' '.join(cmd)}: {exc}", file=sys.stderr)
        return False
    return done.returncode == 0


def build(bench_dir, target):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", bench_dir, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_logged(cmd, BUILD_TIMEOUT_S):
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("configure failed")
    if not run_logged(["cmake", "--build", BUILD_DIR, "--target", target,
                       "-j", jobs], BUILD_TIMEOUT_S):
        fail("build failed")
    return os.path.join(BUILD_DIR, target)


def describe_source():
    """git describe when available, plus a hash of the built sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    text = f"src-sha256:{digest.hexdigest()[:16]}"
    try:
        git = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
        if git.returncode == 0 and git.stdout.strip():
            text = f"{git.stdout.strip()} {text}"
    except (OSError, subprocess.TimeoutExpired):
        pass
    return text


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isdir("src"):
        fail("run from the root of a checkout (no src/ here)")

    if args.selftest:
        binary = build(bench_dir, "perfbench_tests")
        sys.exit(subprocess.run([binary], check=False).returncode)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    binary = build(bench_dir, "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--refs", os.path.join(bench_dir, "data", "reference_digests.tsv"),
           "--out-dir", ".bench_out", "--describe", describe_source()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s", 3)
    sys.stdout.write(done.stdout)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
