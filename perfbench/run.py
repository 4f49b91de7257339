#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20   # all three, by name
    python3 perfbench/run.py --quick                       # toy size, seconds
    python3 perfbench/run.py --selftest                    # the bench's own tests

Run it from the repository root. Everything it writes goes under
$CARGO_TARGET_DIR (or .bench_build when that is unset), in a directory
named after a hash of this checkout's path, so checkouts that share
$CARGO_TARGET_DIR never build, load models or write results in each
other's directories. The first call configures and builds perfbench/
(which compiles the library from ../src) into its build/ and trains the
zoo models it needs into its models/; that untimed prepare step runs
before every workload, so a run never trains inside its timed part. The
last line of stdout is the JSON result.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-mix", "kws-stream", "dse-lenet")
RUN_TIMEOUT_S = 170  # one workload run; the first build has its own budget


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def checkout_dir():
    """This checkout's own directory under $CARGO_TARGET_DIR."""
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(root):
        root = os.path.join(ROOT, root)
    key = hashlib.sha256(os.path.realpath(ROOT).encode()).hexdigest()[:12]
    return os.path.join(root, "perfbench-" + key)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                   check=True, timeout=timeout)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"], 300)
    run_quiet(["cmake", "--build", build_dir, "-j", jobs], 600)


def source_id():
    """Git SHA when the checkout is a repository, else a hash of src/."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.quick or args.selftest):
        ap.error("--workload is required")

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "ataman.hpp")):
        log("no library sources under src/: run from a full checkout")
        return 2

    root = checkout_dir()
    build_dir = os.path.join(root, "build")
    try:
        build(build_dir)
    except (subprocess.SubprocessError, OSError) as e:
        log(f"build failed: {e}")
        return 2

    binary = os.path.join(build_dir, "perfbench")
    if args.selftest:
        return subprocess.run([os.path.join(build_dir, "perfbench_tests")],
                              timeout=RUN_TIMEOUT_S).returncode

    cache = os.path.join(root, "models")
    try:
        run_quiet([binary, "--prepare", "--cache-dir", cache], 850)
    except (subprocess.SubprocessError, OSError) as e:
        log(f"model preparation failed: {e}")
        return 2

    cmd = [binary, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--cache-dir", cache,
           "--out-dir", os.path.join(root, "results"),
           "--git-sha", source_id()]
    if args.workload:
        cmd += ["--workload", args.workload]
    if args.quick:
        cmd.append("--quick")
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"workload run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 3


if __name__ == "__main__":
    sys.exit(main())
