#!/usr/bin/env bash
# e2e_checksums.sh — the e2e tier of tools/check.sh, also runnable alone.
#
# Builds the e2ebench package (its self-test, `e2ebench/run.py --self-test`),
# then runs `e2ebench_runner --checksum-only` for every input set of
# grid_search, sweep_matrix and serve_mix with the arguments run.py passes,
# and compares each output checksum with e2ebench/checksums.json. Any
# mismatch or self-check failure fails the tier. It records nothing and
# writes nothing under e2ebench/ (a deliberate output change re-records
# with `run.py --record-checksums`).
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
total = 0
for workload in run.WORKLOADS:
    for seed in range(design["seed_space"]):
        total += 1
        args = run.runner_args(workload, seed, design) + ["--checksum-only"]
        r = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=run.RUN_LIMIT_S)
        lines = r.stdout.splitlines()
        if r.returncode != 0 or not lines:
            bad.append("%s seed %d: runner exited with %d: %s" %
                       (workload, seed, r.returncode, r.stderr.strip()))
            continue
        res = json.loads(lines[-1])
        want = expected[workload].get(str(seed))
        if not res["correct"]:
            bad.append("%s seed %d: fails its own output checks" %
                       (workload, seed))
        elif res["checksum"] != want:
            bad.append("%s seed %d: checksum %s, recorded %s" %
                       (workload, seed, res["checksum"], want))
for line in bad:
    print("FAIL: " + line)
print("e2e: %d of %d checksums match e2ebench/checksums.json" %
      (total - len(bad), total))
sys.exit(1 if bad else 0)
EOF
