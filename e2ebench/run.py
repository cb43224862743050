#!/usr/bin/env python3
"""End-to-end benchmark of the co-design advisor.

Builds the benchmark package (this directory's CMakeLists.txt, compiled from
the repository's sources), runs one workload for a fixed time, checks its
outputs, and prints as the last line of stdout one JSON object:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics (a layer the workload does
not exercise reads 0), measured from a separately traced run that also
writes a chrome trace under .bench_out/.

    python3 e2ebench/run.py --workload grid_search --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --self-test            # the benchmark's own tests
    python3 e2ebench/run.py --record-checksums     # rewrite checksums.json

Settings that must not drift between runs (threads, rates, latency limit)
live in design.json; the expected output checksum of every input set lives
in checksums.json.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("grid_search", "sweep_matrix", "serve_mix")
RUN_LIMIT_S = 170  # the whole run, build included (first run: see BUILD_LIMIT_S)
BUILD_LIMIT_S = 840


def load_json(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build():
    """Configure and build the package; build output goes to stderr."""
    if not os.path.exists(os.path.join(ROOT, "src", "serve", "server.hpp")):
        sys.exit("error: the repository sources (src/) are not next to "
                 "e2ebench/; run from a full checkout")
    out = build_dir()
    jobs = str(min(4, nproc()))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs]]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_LIMIT_S)
        if r.returncode != 0:
            sys.exit("error: build failed: " + " ".join(cmd))
    return out


def runner_args(workload, seed, design):
    threads = min(int(design["max_threads"]), nproc())
    timed = min(int(design["timed_threads"]), threads)
    args = ["--workload=" + workload, "--seed=%d" % (seed % design["seed_space"]),
            "--threads=%d" % threads, "--timed-threads=%d" % timed,
            "--out-dir=" + os.path.join(ROOT, ".bench_out")]
    serve = design["workloads"]["serve_mix"]  # sweep_matrix traces serve too
    return args + ["--rate-low=%s" % serve["rate_low"],
                   "--rate-high=%s" % serve["rate_high"],
                   "--limit-ms=%s" % serve["latency_limit_ms"]]


def run_runner(binary, args, timeout):
    """Run the runner binary, echo its report, return its JSON line as a dict."""
    try:
        r = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit("error: the workload did not finish in %d s" % timeout)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.exit("error: e2ebench_runner exited with code %d" % r.returncode)
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def record_checksums(binary, design):
    table = {}
    for workload in WORKLOADS:
        table[workload] = {}
        for seed in range(design["seed_space"]):
            res = run_runner(binary, runner_args(workload, seed, design) +
                             ["--checksum-only"], RUN_LIMIT_S)
            if not res["correct"]:
                sys.exit("error: %s seed %d fails its own checks" %
                         (workload, seed))
            table[workload][str(seed)] = res["checksum"]
    with open(os.path.join(HERE, "checksums.json"), "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    start = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--record-checksums", action="store_true")
    a = p.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        sys.exit("error: --seed must be >= 0 and --seconds > 0")

    bench = load_json("../BENCHMARK.json")
    design = load_json("design.json")
    out = build()
    binary = os.path.join(out, "e2ebench_runner")
    if a.self_test:
        sys.exit(subprocess.run([os.path.join(out, "test_bench_math")],
                                timeout=RUN_LIMIT_S).returncode)
    if a.record_checksums:
        record_checksums(binary, design)
        return
    if a.workload is None:
        sys.exit("error: --workload is required")

    remaining = max(10.0, RUN_LIMIT_S - (time.monotonic() - start))
    res = run_runner(binary, runner_args(a.workload, a.seed, design) +
                     ["--seconds=%s" % a.seconds, "--trace=%d" % a.trace],
                     remaining)

    correct = bool(res["correct"])
    expected = load_json("checksums.json")[a.workload].get(
        str(a.seed % design["seed_space"]))
    if res["checksum"] != expected:
        print("OUTPUT MISMATCH: checksum %s, recorded for this seed: %s" %
              (res["checksum"], expected))
        correct = False
    else:
        print("checksum %s matches the recorded value" % res["checksum"])

    declared = bench["per_layer" if a.trace else "end_to_end"]
    got = res["metrics"]
    unknown = set(got) - {m["name"] for m in declared}
    if unknown:
        sys.exit("error: undeclared metrics " + ", ".join(sorted(unknown)))
    metrics = {}
    for m in declared:
        if m["name"] in got:
            if got[m["name"]]["unit"] != m["unit"]:
                sys.exit("error: %s reported in %s, declared in %s" %
                         (m["name"], got[m["name"]]["unit"], m["unit"]))
            value = got[m["name"]]["value"]
        elif a.trace:
            value = 0  # a layer this workload does not exercise
        else:
            sys.exit("error: end-to-end metric %s missing" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
