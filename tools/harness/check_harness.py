#!/usr/bin/env python3
"""End-to-end contracts of the experiment harnesses in bench/.

Two checks, one harness binary per invocation:

  golden  run the harness and byte-compare its stdout with a capture
          under tests/golden/harness/ (MCDSIM_INSTS=20000). The tables
          are pure functions of the code, so any diff is a behaviour
          change.

  flags   the every-flag-honoured-or-rejected contract
          (MCDSIM_INSTS=4000). --kind selects what the harness must do:

          sim       (every harness that launches runs through Campaign)
                    --shard 2/3 exits 2 (bench_campaign: runs the slice);
                    --cache readwrite fills the cache directory, and a
                    --cache read rerun prints byte-identical stdout with
                    every run served from the cache;
                    --faults task-throw exits 1 and names failed runs;
                    --faults drop-update --stats-out P counts nonzero
                    fault.drop_update_injected in P (not for a
                    --fault-sweep harness, whose sweep sets the plan);
                    --faults no-such-site exits 2 before printing
                    anything on stdout;
                    the retired --retries 1 and --deadline-ms 1000
                    each exit 2 with nothing on stdout;
                    --event-budget 1 exits 1 with a timed_out run;
                    --stats-out P writes P and P.json.
          analytic  (no simulation) --help works, every flag exits 2.

Usage:
  check_harness.py golden --run BIN --expect FILE [ARGS...]
  check_harness.py flags --run BIN --kind sim|analytic [--fault-sweep]
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile

SUMMARY_RE = re.compile(
    r"campaign: (\d+) runs total, (\d+) in shard \d+/\d+ "
    r"\((\d+) executed, (\d+) cached, (\d+) failed\)")
FAILED_RUN_RE = re.compile(r"^  \S+/\S+: failed ", re.MULTILINE)
TIMED_OUT_RE = re.compile(r"^  \S+/\S+: timed_out ", re.MULTILINE)
DROPPED_RE = re.compile(r"^fault\.drop_update_injected (\d+)", re.MULTILINE)

# Every flag of the shared option table, with a valid value.
SIM_FLAGS = [
    ["--jobs", "2"], ["--stats-out", "{tmp}/s"], ["--trace-out", "{tmp}/t"],
    ["--faults", "task-throw"], ["--event-budget", "1"],
    ["--cache", "readwrite"], ["--cache-dir", "{tmp}/c"],
    ["--shard", "2/3"],
]


class Failure(Exception):
    pass


def run(binary, args, env):
    return subprocess.run([binary] + args, capture_output=True, text=True,
                          env=env)


def expect_exit(proc, code, what):
    if proc.returncode != code:
        raise Failure(f"{what}: exit {proc.returncode}, want {code}\n"
                      f"{proc.stderr[-2000:]}")


def check_golden(args, env):
    with open(args.expect) as f:
        want = f.read()
    proc = run(args.run, args.rest, env)
    expect_exit(proc, 0, "golden run")
    if proc.stdout != want:
        got = proc.stdout.splitlines()
        ref = want.splitlines()
        for i, (a, b) in enumerate(zip(got, ref)):
            if a != b:
                raise Failure(f"stdout differs from {args.expect} at line "
                              f"{i + 1}:\n  got:  {a}\n  want: {b}")
        raise Failure(f"stdout differs from {args.expect} in length "
                      f"({len(got)} vs {len(ref)} lines)")
    return f"stdout matches {os.path.basename(args.expect)}"


def check_sim(binary, env, tmp, fault_sweep=False):
    campaign = os.path.basename(binary).startswith("bench_campaign")
    base = ["--jobs", "2"]
    plain = run(binary, base, env)
    expect_exit(plain, 0, "plain run")

    shard = run(binary, base + ["--shard", "2/3"], env)
    expect_exit(shard, 0 if campaign else 2, "--shard 2/3")

    cache = os.path.join(tmp, "cache")
    cached = ["--cache-dir", cache]
    cold = run(binary, base + ["--cache", "readwrite"] + cached, env)
    expect_exit(cold, 0, "--cache readwrite")
    if not os.path.isdir(cache) or not any(
            files for _, _, files in os.walk(cache)):
        raise Failure(f"--cache readwrite left {cache} empty")
    warm = run(binary, base + ["--cache", "read"] + cached, env)
    expect_exit(warm, 0, "--cache read")
    m = SUMMARY_RE.search(warm.stderr)
    if not m or m.group(3) != "0" or m.group(4) != m.group(2):
        raise Failure("--cache read did not serve every run from the "
                      f"cache:\n{warm.stderr[-2000:]}")
    for name, proc in (("readwrite", cold), ("read", warm)):
        if proc.stdout != plain.stdout:
            raise Failure(f"--cache {name} stdout differs from the "
                          "uncached run")

    thrown = run(binary, base + ["--faults", "task-throw"], env)
    expect_exit(thrown, 1, "--faults task-throw")
    if not FAILED_RUN_RE.search(thrown.stderr):
        raise Failure("--faults task-throw named no failed run:\n"
                      + thrown.stderr[-2000:])

    unknown = run(binary, base + ["--faults", "no-such-site"], env)
    expect_exit(unknown, 2, "--faults no-such-site")
    if unknown.stdout:
        raise Failure("--faults no-such-site printed before it was "
                      "rejected:\n" + unknown.stdout[-2000:])

    # Every run is one attempt: the retry and wall-deadline flags are
    # gone, so they must be rejected, not ignored.
    for retired in (["--retries", "1"], ["--deadline-ms", "1000"]):
        proc = run(binary, base + retired, env)
        expect_exit(proc, 2, " ".join(retired))
        if proc.stdout:
            raise Failure(f"{retired[0]} printed before it was "
                          "rejected:\n" + proc.stdout[-2000:])

    budget = run(binary, base + ["--event-budget", "1"], env)
    expect_exit(budget, 1, "--event-budget 1")
    if not TIMED_OUT_RE.search(budget.stderr):
        raise Failure("--event-budget 1 reported no timed_out run:\n"
                      + budget.stderr[-2000:])

    stats = os.path.join(tmp, "stats.txt")
    with_stats = run(binary, base + ["--stats-out", stats], env)
    expect_exit(with_stats, 0, "--stats-out")
    for path in (stats, stats + ".json"):
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            raise Failure(f"--stats-out did not write {path}")

    if not fault_sweep:
        dropped = run(binary, base + ["--faults", "drop-update",
                                      "--stats-out", stats], env)
        expect_exit(dropped, 0, "--faults drop-update --stats-out")
        with open(stats) as f:
            counts = [int(n) for n in DROPPED_RE.findall(f.read())]
        if sum(counts) == 0:
            raise Failure("--faults drop-update injected nothing "
                          f"(fault.drop_update_injected {counts})")
    return "sim flags honoured"


def check_analytic(binary, env, tmp):
    expect_exit(run(binary, ["--help"], env), 0, "--help")
    for flag in SIM_FLAGS:
        args = [a.format(tmp=tmp) for a in flag]
        expect_exit(run(binary, args, env), 2, " ".join(args))
    return "every simulation flag rejected"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    golden = sub.add_parser("golden")
    golden.add_argument("--run", required=True, help="harness binary")
    golden.add_argument("--expect", required=True, help="stdout capture")
    flags = sub.add_parser("flags")
    flags.add_argument("--run", required=True, help="harness binary")
    flags.add_argument("--kind", required=True,
                       choices=("sim", "analytic"))
    flags.add_argument("--fault-sweep", action="store_true",
                       help="the harness injects its own sim faults")
    # Golden mode passes everything it does not know to the harness.
    args, args.rest = parser.parse_known_args()
    if args.mode == "flags" and args.rest:
        parser.error(f"unrecognized arguments: {' '.join(args.rest)}")

    env = dict(os.environ)
    for var in ("MCDSIM_CACHE_DIR", "MCDSIM_FAULTS", "MCDSIM_JOBS"):
        env.pop(var, None)
    env["MCDSIM_INSTS"] = "20000" if args.mode == "golden" else "4000"

    name = os.path.basename(args.run)
    try:
        if args.mode == "golden":
            verdict = check_golden(args, env)
        else:
            with tempfile.TemporaryDirectory(
                    prefix="mcdsim-harness-") as tmp:
                if args.kind == "sim":
                    verdict = check_sim(args.run, env, tmp,
                                        args.fault_sweep)
                else:
                    verdict = check_analytic(args.run, env, tmp)
    except Failure as e:
        print(f"FAILED: {name}: {e}", file=sys.stderr)
        return 1
    print(f"{name}: {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
