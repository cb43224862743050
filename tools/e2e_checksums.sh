#!/usr/bin/env bash
# e2e_checksums.sh — the e2e tier of tools/check.sh, also runnable alone.
#
# Builds the e2ebench package (its self-test, `e2ebench/run.py --self-test`),
# then runs `e2ebench_runner --checksum-only` for every input set of
# grid_search, sweep_matrix and serve_mix with the arguments run.py passes,
# and compares each output checksum with e2ebench/checksums.json. Then it
# runs grid_search in full, with a 0.2 s timed phase, for seeds 0-7:
# --checksum-only returns before the check that every call's ranking at W
# threads equals the one at 1 thread. Any mismatch or self-check failure
# fails the tier. It records nothing and writes nothing under e2ebench/ (a
# deliberate output change re-records with `run.py --record-checksums`).
#
# Usage: tools/e2e_checksums.sh [source-dir]
set -euo pipefail

SRC_DIR="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "${SRC_DIR}"

python3 -B e2ebench/run.py --self-test

# -B: importing run.py must not leave a __pycache__ under e2ebench/.
python3 -B - <<'EOF'
import json
import os
import subprocess
import sys

sys.path.insert(0, "e2ebench")
import run  # noqa: E402  (e2ebench/run.py: the runner's arguments and paths)

design = run.load_json("design.json")
expected = run.load_json("checksums.json")
binary = os.path.join(run.build_dir(), "e2ebench_runner")
bad = []


def run_one(workload, seed, extra):
    """The runner's JSON line for one input set, or None after a failure."""
    args = run.runner_args(workload, seed, design) + extra
    r = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True,
                       timeout=run.RUN_LIMIT_S)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        bad.append("%s seed %d: runner exited with %d: %s" %
                   (workload, seed, r.returncode, r.stderr.strip()))
        return None
    res = json.loads(lines[-1])
    if not res["correct"]:
        bad.append("%s seed %d %s: fails its own output checks" %
                   (workload, seed, " ".join(extra)))
        return None
    return res


total = 0
for workload in run.WORKLOADS:
    for seed in range(design["seed_space"]):
        total += 1
        res = run_one(workload, seed, ["--checksum-only"])
        want = expected[workload].get(str(seed))
        if res is not None and res["checksum"] != want:
            bad.append("%s seed %d: checksum %s, recorded %s" %
                       (workload, seed, res["checksum"], want))
checked = len(bad)
full_runs = 8
for seed in range(full_runs):
    run_one("grid_search", seed, ["--seconds=0.2", "--trace=0"])
for line in bad:
    print("FAIL: " + line)
print("e2e: %d of %d checksums match e2ebench/checksums.json" %
      (total - checked, total))
print("e2e: %d of %d full grid_search runs pass their output checks" %
      (full_runs - (len(bad) - checked), full_runs))
sys.exit(1 if bad else 0)
EOF
