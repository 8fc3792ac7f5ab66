#!/usr/bin/env python3
"""Compare perfbench speed between a git revision and this checkout.

    tools/perf/pairs.py --against REV --workload W [--pairs N]
                        [--seconds S] [--first-seed K] [--smoke]

REV is extracted with `git archive` into a fresh temporary directory,
removed afterwards, so no worktree is added and nothing is fetched. Each pair
runs `perfbench/run.py --workload W --seed K+i --seconds S --trace 0`
once in REV's tree ("parent") and once in this checkout ("change"),
and alternates which side runs first, so a host that drifts during
the set penalises neither side. Both trees build their own
.bench_build/ in an untimed smoke run before the first pair.

The report gives, per side, the median and quartiles of
sim_minst_per_s (simulated Minst/s, higher is better); the ratio of
each pair (change over parent) and its median;
the pairs the change won; and a drift flag. Drift compares the
parent's runs of the first quarter of the set with those of the last
quarter: it is flagged when their medians differ by more than the
parent's interquartile range, for then the host moved more than the
runs spread and a ratio of medians would not be trustworthy. The last
line is the same report as one JSON object. It also holds each side's
median of every other metric the runs printed (`all_metrics`), and the
metrics whose parent and change values were equal in every pair
(`equal_in_every_pair`: for the deterministic ones, byte-identity).

A rate bought with a second core shows in `busy_cores`: for every
perfbench child, the CPU seconds it and its children used (the
RUSAGE_CHILDREN delta, user plus system) over its wall seconds, and
the median of those per side.

Exit status: 0 when every run was
correct, 1 when some run reported a mismatch, 2 on a usage, git or
build error.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
METRIC = "sim_minst_per_s"


def fail(msg):
    print("pairs.py: " + msg, file=sys.stderr)
    sys.exit(2)


def resolve(rev):
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                           rev + "^{commit}"], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail("unknown revision '%s'" % rev)
    return proc.stdout.strip()


def extract(commit, work_dir):
    """Unpack @commit into the empty directory @work_dir."""
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", commit],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", work_dir],
                           stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        fail("could not extract %s" % commit)


def cpu_seconds():
    """User plus system seconds of every child reaped so far."""
    u = resource.getrusage(resource.RUSAGE_CHILDREN)
    return u.ru_utime + u.ru_stime


def run_side(tree, args, seed, smoke=False, seconds=None):
    """One perfbench run in @tree: (correct, {metric: value}, busy cores)."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(seconds or args.seconds), "--trace", "0"]
    if smoke or args.smoke:
        cmd.append("--smoke")
    cpu0, wall0 = cpu_seconds(), time.monotonic()
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    busy = (cpu_seconds() - cpu0) / max(time.monotonic() - wall0, 1e-9)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or not lines:
        fail("perfbench failed in %s (exit %d)" % (tree, proc.returncode))
    record = json.loads(lines[-1])
    metrics = {k: float(v["value"]) for k, v in record["metrics"].items()}
    if METRIC not in metrics:
        fail("%s reports no metric %s" % (args.workload, METRIC))
    return bool(record["correct"]), metrics, busy


def summary(values):
    # statistics.quantiles needs two points; one run is its own quartiles.
    q = (statistics.quantiles(values, n=4, method="inclusive")
         if len(values) > 1 else values * 3)
    return {"q1": q[0], "median": q[1], "q3": q[2], "runs": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--against", required=True, help="parent revision")
    ap.add_argument("--workload", required=True,
                    help="kernel-ilp, kernel-membound or campaign-cold")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--first-seed", type=int, default=1,
                    help="seed of the first pair; pair i uses this + i")
    ap.add_argument("--smoke", action="store_true",
                    help="perfbench's tiny sizes: checks the plumbing")
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds < 1 or args.first_seed < 0:
        fail("--pairs and --seconds must be at least 1, --first-seed "
             "non-negative")

    commit = resolve(args.against)
    tmp = tempfile.mkdtemp(prefix="pairs-")
    parent_tree = os.path.join(tmp, "parent")
    os.mkdir(parent_tree)
    try:
        extract(commit, parent_tree)
        # Build both trees outside the timed pairs.
        for tree in (parent_tree, ROOT):
            run_side(tree, args, args.first_seed, smoke=True, seconds=1)
        runs = {"parent": [], "change": []}
        busy = {"parent": [], "change": []}
        ratios = []
        all_correct = True
        for i in range(args.pairs):
            seed = args.first_seed + i
            sides = [("parent", parent_tree), ("change", ROOT)]
            if i % 2 == 1:
                sides.reverse()
            got = {}
            for name, tree in sides:
                correct, metrics, cores = run_side(tree, args, seed)
                all_correct = all_correct and correct
                runs[name].append(metrics)
                busy[name].append(cores)
                got[name] = metrics[METRIC]
            ratios.append(got["change"] / got["parent"]
                          if got["parent"] else float("inf"))
            print("pair %d seed %d first %s: parent %.6g change %.6g "
                  "ratio %.4f, busy cores %.2f / %.2f"
                  % (i + 1, seed, sides[0][0], got["parent"], got["change"],
                     ratios[-1], busy["parent"][-1], busy["change"][-1]),
                  flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    parent = [m[METRIC] for m in runs["parent"]]
    change = [m[METRIC] for m in runs["change"]]
    quarter = max(1, len(parent) // 4)
    first = statistics.median(parent[:quarter])
    last = statistics.median(parent[-quarter:])
    p = summary(parent)
    common = sorted(set(runs["parent"][0]) & set(runs["change"][0]))
    report = {
        "workload": args.workload,
        "metric": METRIC,
        "against": commit,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "pairs": args.pairs,
        "first_seed": args.first_seed,
        "correct": all_correct,
        "parent": p,
        "change": summary(change),
        "pair_ratios": ratios,
        "median_pair_ratio": statistics.median(ratios),
        "pairs_won": sum(r > 1.0 for r in ratios),
        "busy_cores": {side: statistics.median(busy[side])
                       for side in ("parent", "change")},
        "drift": {"parent_first_quarter_median": first,
                  "parent_last_quarter_median": last,
                  "flag": abs(first - last) > p["q3"] - p["q1"]},
        "all_metrics": {
            name: {side: statistics.median([m[name] for m in runs[side]])
                   for side in ("parent", "change")}
            for name in common},
        "equal_in_every_pair": [
            name for name in common
            if all(p[name] == c[name]
                   for p, c in zip(runs["parent"], runs["change"]))],
    }
    for side in ("parent", "change"):
        s = report[side]
        print("%-6s median %.6g  quartiles [%.6g, %.6g]  busy cores %.2f"
              % (side, s["median"], s["q1"], s["q3"],
                 report["busy_cores"][side]))
    for name, med in report["all_metrics"].items():
        print("  %-36s parent %-12.6g change %.6g"
              % (name, med["parent"], med["change"]))
    print("equal in every pair: " + " ".join(report["equal_in_every_pair"]))
    print("median pair ratio %.4f, pairs won %d/%d, drift %s"
          % (report["median_pair_ratio"], report["pairs_won"], args.pairs,
             "FLAGGED" if report["drift"]["flag"] else "no"))
    print(json.dumps(report, sort_keys=True))
    sys.exit(0 if all_correct else 1)


if __name__ == "__main__":
    main()
