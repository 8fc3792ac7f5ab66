#!/usr/bin/env python3
"""Record or check the benchmark's exact counters at seed 1.

    python3 perfbench/exact.py check    # compare against exact_seed1.json
    python3 perfbench/exact.py record   # rewrite exact_seed1.json

Exact counters (events per instruction, clock edges per instruction,
controller samples, cache-entry size, the simulated paper metrics, ...)
are pure functions of the code and the seed, so they repeat bit for
bit on every host and at any --jobs. The benchmark prints them flagged
"[exact]" with every digit. This script runs every workload at seed 1,
untraced and traced, and collects those lines, so two commits can be
compared count for count; host times are never compared this way.
A change that only speeds the simulator up must leave every value
unchanged. Exit status 1 on any difference.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORD = os.path.join(HERE, "exact_seed1.json")


def exact_counters():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    out = {}
    for w in workloads:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            if proc.returncode != 0:
                sys.exit("%s --trace %d failed:\n%s" % (w, trace, proc.stdout))
            for line in proc.stdout.splitlines():
                parts = line.split()
                if parts[:1] == ["metric"] and "[exact]" in parts:
                    out.setdefault(w, {})[parts[1]] = parts[2]
    return out


def main():
    if len(sys.argv) != 2 or sys.argv[1] not in ("record", "check"):
        sys.exit(__doc__)
    now = exact_counters()
    if sys.argv[1] == "record":
        with open(RECORD, "w") as f:
            json.dump(now, f, indent=1, sort_keys=True)
            f.write("\n")
        print("wrote", RECORD)
        return 0
    with open(RECORD) as f:
        then = json.load(f)
    diffs = []
    for w in sorted(set(then) | set(now)):
        a, b = then.get(w, {}), now.get(w, {})
        for name in sorted(set(a) | set(b)):
            if a.get(name) != b.get(name):
                diffs.append("%s %s: recorded %s, now %s"
                             % (w, name, a.get(name), b.get(name)))
    for d in diffs:
        print(d)
    print("%d exact counters differ" % len(diffs) if diffs
          else "all exact counters match")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
