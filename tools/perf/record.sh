#!/usr/bin/env bash
# Record perfbench figures for one or more workloads into one JSON file,
# together with perfbench's host fingerprint (cores, compiler, build
# type, git rev).
#
# Usage: tools/perf/record.sh [--smoke] [--seconds N] [--seed N]
#                             [--out FILE] WORKLOAD...
#   WORKLOAD   kernel-ilp, kernel-membound or campaign-cold
#   --out      trajectory file (default: BENCH_kernel.json at the repo
#              root)
#   --seconds  measured seconds per workload (default 30, the benchmark's
#              run_seconds)
#   --seed     workload seed (default 1)
#   --smoke    tiny sizes: checks the plumbing, not the speed
#
# Each workload runs once through `perfbench/run.py --trace 0`. The
# record keeps every end-to-end metric of each workload and the "host"
# line perfbench prints. A speed claim compares records of the parent
# and of the change made on the same host, in alternating pairs
# (perfbench/METHODOLOGY.md).
#
# --out holds a trajectory, {"records": [...]}, one record per source
# tree: a record with the same host git_rev and src_digest is replaced,
# any other is appended, and a file holding one bare record becomes
# the first record of the trajectory.

set -euo pipefail

repo_root=$(cd "$(dirname "$0")/../.." && pwd)
out="$repo_root/BENCH_kernel.json"
seconds=30
seed=1
smoke=()
workloads=()

while [[ $# -gt 0 ]]; do
    case "$1" in
      --out) out="$2"; shift 2 ;;
      --seconds) seconds="$2"; shift 2 ;;
      --seed) seed="$2"; shift 2 ;;
      --smoke) smoke=(--smoke); shift ;;
      -h|--help) sed -n '2,25p' "$0"; exit 0 ;;
      -*) echo "record.sh: unknown option $1" >&2; exit 2 ;;
      *) workloads+=("$1"); shift ;;
    esac
done
if [[ ${#workloads[@]} -eq 0 ]]; then
    echo "record.sh: name at least one workload" >&2
    exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for w in "${workloads[@]}"; do
    echo "record.sh: $w (seed $seed, ${seconds}s${smoke:+, smoke})" >&2
    python3 "$repo_root/perfbench/run.py" --workload "$w" --seed "$seed" \
        --seconds "$seconds" --trace 0 "${smoke[@]}" > "$tmp/$w.out"
done

# perfbench names the checkout by HEAD; say whether the measured code
# (the simulator and the mcdbench driver) differed from it.
dirty=0
if [[ -n "$(git -C "$repo_root" status --porcelain -- src perfbench \
            2>/dev/null)" ]]; then
    dirty=1
fi

python3 - "$out" "$seed" "$seconds" "${#smoke[@]}" "$dirty" "$tmp" \
    "${workloads[@]}" <<'EOF'
import json
import os
import sys

out, seed, seconds, smoke, dirty, tmp = sys.argv[1:7]
record = {"host": None, "seed": int(seed), "seconds": int(seconds),
          "smoke": smoke != "0", "src_modified_since_git_rev": dirty == "1",
          "workloads": {}}
for w in sys.argv[7:]:
    with open(os.path.join(tmp, w + ".out")) as f:
        lines = f.read().splitlines()
    host = [json.loads(l[5:]) for l in lines if l.startswith("host ")]
    if len(host) != 1:
        sys.exit("record.sh: %s printed no host line" % w)
    if record["host"] not in (None, host[0]):
        sys.exit("record.sh: %s ran on a different host fingerprint" % w)
    record["host"] = host[0]
    last = json.loads(lines[-1])
    record["workloads"][w] = {
        "correct": last["correct"],
        "metrics": {k: v["value"] for k, v in last["metrics"].items()},
    }

records = []
if os.path.exists(out):
    with open(out) as f:
        old = json.load(f)
    records = old["records"] if "records" in old else [old]
    if not all("host" in r and "workloads" in r for r in records):
        sys.exit("record.sh: %s holds something other than records" % out)
key = lambda r: (r["host"]["git_rev"], r["host"]["src_digest"])
records = [r for r in records if key(r) != key(record)] + [record]
with open(out, "w") as f:
    json.dump({"records": records}, f, indent=1, sort_keys=True)
    f.write("\n")
print("wrote " + out)
EOF
