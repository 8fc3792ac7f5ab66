#!/usr/bin/env python3
"""Build and run the mcdsim benchmark.

    python3 perfbench/run.py --workload kernel-ilp --seed 1 --seconds 10 --trace 0

Run from the repository root (any directory works: paths are resolved
from this file). The first call configures and builds perfbench/ (the
library sources in src/ plus the driver mcdbench.cc) into .bench_build/
at the repository root; later calls rebuild only what changed.

The driver's stdout is passed through unchanged: one "metric" line per
metric with its unit (exact counters flagged "[exact]"), a "host" line
with the fingerprint, and as the last line one JSON record with the
keys correct, attempted, failed and metrics. The exit status is the
driver's: 0 when every output check passed, 1 on any mismatch, 2 on a
usage or build error (no record is printed then).

Extra options: --smoke (tiny sizes, seconds per workload), --jobs N
(campaign fan-out width; default min(nproc, 4)).
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-run")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def quiet(cmd):
    """Run a build step; show its output only when it fails."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no mcdsim sources at " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        quiet(cmd)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    quiet(["cmake", "--build", BUILD_DIR, "-j", jobs])
    exe = os.path.join(BUILD_DIR, "mcdbench")
    if not os.path.isfile(exe):
        fail("build produced no mcdbench binary")
    return exe


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() or "none"


def src_digest():
    """SHA-256 over src/: names the simulator code even without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="kernel-ilp, kernel-membound or campaign-cold "
                         "(mcdbench rejects any other)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--jobs", type=int, default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1 or args.jobs < 0:
        fail("--seed, --seconds and --jobs must be non-negative "
             "(--seconds at least 1)")

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR, "--git-rev", git_rev(),
           "--src-digest", src_digest()]
    if args.smoke:
        cmd.append("--smoke")
    if args.jobs:
        cmd += ["--jobs", str(args.jobs)]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("mcdbench exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
