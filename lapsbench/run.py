#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

Usage (from the root of a checkout):

    python3 lapsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The simulator library under src/ and the benchmark under lapsbench/ are
compiled into .bench_build/lapsbench (CMake, RelWithDebInfo like the repo's
own build), then this process is replaced by the benchmark binary, so the
measurement runs in one process.
Its standard output ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. Build output goes to stderr.

Exits 2 without a result when the checkout has no simulator sources or the
build fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "lapsbench")


def fail(message):
    print(f"lapsbench: {message}", file=sys.stderr)
    sys.exit(2)


def git(*args):
    """Output of a git command on the checkout, or None outside a
    repository."""
    try:
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_id():
    """The git commit when the checkout is a clean repository, the commit
    plus a digest of the sources when it has uncommitted changes, and the
    digest alone outside a repository."""
    commit = git("rev-parse", "HEAD")
    if commit is None:
        return "sha256:" + source_digest()
    if git("status", "--porcelain", "--", "src", "lapsbench"):
        return f"git:{commit}+dirty:{source_digest()}"
    return "git:" + commit


def source_digest():
    """A digest of every source file the benchmark compiles."""
    digest = hashlib.sha256()
    for top in ("src", "lapsbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "lapsbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout is reserved for the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD, "lapsbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "sim", "engine.h")):
        fail(f"no simulator sources under {os.path.join(ROOT, 'src')}")
    binary = build()
    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    argv = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
            f"--seconds={args.seconds}", f"--trace={args.trace}",
            f"--out-dir={out_dir}", f"--source={source_id()}"]
    sys.stdout.flush()
    os.execv(binary, argv)


if __name__ == "__main__":
    main()
