#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke_test.py

Checks, for every workload named in BENCHMARK.json:
  - the untraced and the traced invocation exit 0 and end with a JSON
    record holding exactly correct/attempted/failed/metrics, with
    correct true and every end-to-end (resp. per-layer) metric present,
    finite and in the unit BENCHMARK.json gives;
  - every metric is also printed as a "metric <name> <value> <unit>"
    line.
Then, on campaign-cold, that the exact counters and simulated metrics
repeat bit for bit between two invocations and between --jobs 1 and
--jobs 4; and that the command fails without printing a record in a
directory holding only BENCHMARK.json and perfbench/.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORD_KEYS = {"correct", "attempted", "failed", "metrics"}


def invoke(workload, trace, seed=1, jobs=None, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    if jobs:
        cmd += ["--jobs", str(jobs)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def metric_lines(stdout):
    """name -> (value text, unit, exact) from the "metric" lines."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "metric":
            out[parts[1]] = (parts[2], parts[3], "[exact]" in parts)
    return out


def check_record(proc, expected, label):
    errors = []
    if proc.returncode != 0:
        return ["%s: exit %d\n%s%s" % (label, proc.returncode, proc.stdout,
                                        proc.stderr)]
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(rec) != RECORD_KEYS:
        errors.append("%s: record keys %s" % (label, sorted(rec)))
    if rec.get("correct") is not True or rec.get("failed") != 0:
        errors.append("%s: not correct" % label)
    if not isinstance(rec.get("attempted"), int) or rec["attempted"] < 1:
        errors.append("%s: attempted %r" % (label, rec.get("attempted")))
    metrics = rec.get("metrics", {})
    names = [m["name"] for m in expected]
    if sorted(metrics) != sorted(names):
        errors.append("%s: metrics %s, expected %s" % (label, sorted(metrics),
                                                      sorted(names)))
    printed = metric_lines(proc.stdout)
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: %s value %r" % (label, m["name"], value))
        if got.get("unit") != m["unit"]:
            errors.append("%s: %s unit %r, expected %r"
                          % (label, m["name"], got.get("unit"), m["unit"]))
        if printed.get(m["name"], (None, None))[1] != m["unit"]:
            errors.append("%s: no metric line for %s with unit %s"
                          % (label, m["name"], m["unit"]))
    return errors


def exact_values(proc):
    return {k: v[0] for k, v in metric_lines(proc.stdout).items() if v[2]}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = "%s --trace %d" % (w["name"], trace)
            print("smoke:", label, flush=True)
            errors += check_record(invoke(w["name"], trace), bench[key], label)

    print("smoke: exact counters repeat across invocations and --jobs",
          flush=True)
    runs = {
        "traced a": invoke("campaign-cold", 1),
        "traced b": invoke("campaign-cold", 1, jobs=1),
        "untraced jobs 1": invoke("campaign-cold", 0, jobs=1),
        "untraced jobs 4": invoke("campaign-cold", 0, jobs=4),
    }
    for a, b in (("traced a", "traced b"),
                 ("untraced jobs 1", "untraced jobs 4")):
        ea, eb = exact_values(runs[a]), exact_values(runs[b])
        if not ea or ea != eb:
            errors.append("exact counters differ: %s %s vs %s %s"
                          % (a, ea, b, eb))

    print("smoke: fails cleanly without the library sources", flush=True)
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = invoke("kernel-ilp", 0, cwd=bare)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            errors.append("bare directory: exit %d, stdout %r"
                          % (proc.returncode, proc.stdout))
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for e in errors:
        print("FAIL:", e)
    print("smoke: %s" % ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
