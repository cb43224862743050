#!/usr/bin/env python3
"""golden_outputs.py -- check (or re-record) a golden-output manifest.

Each non-comment manifest line is four tab-separated fields:

    <id>  <exit code>  <hashes>  <command>

<command> is split like a shell word list; its program path is relative to
the build tree. It runs in a fresh scratch directory, so a file it writes
to a relative path lands there. <hashes> is "stdout=<h>" followed by
",<file>=<h>" for every file the command left in the scratch directory, in
name order; <h> is the FNV-1a 64 hash of the bytes, as 16 hex digits.
stderr is not compared.

    tools/golden_outputs.py --build-dir=build tests/golden/outputs.tsv
    tools/golden_outputs.py --build-dir=build --record tests/golden/outputs.tsv

Checking exits 1 and names every line whose exit code or hashes differ.
--record rewrites the fields of every line from a run of the current build,
keeping ids, commands, comments and order.
"""

import argparse
import concurrent.futures
import os
import shlex
import subprocess
import sys
import tempfile

TIMEOUT_S = 120
JOBS = 4  # commands run at once


def fnv1a64(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h


def parse(path):
    """(lines, entries): every line as read, and (index, id, exit, hashes,
    command) for each manifest entry."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    entries = []
    for i, line in enumerate(lines):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            sys.exit("%s:%d: expected 4 tab-separated fields, got %d" %
                     (path, i + 1, len(fields)))
        entries.append((i, fields[0], fields[1], fields[2], fields[3]))
    return lines, entries


def run(build_dir, command):
    """Runs one command; returns (exit code, hashes field)."""
    with tempfile.TemporaryDirectory(prefix="golden_") as tmp:
        argv = shlex.split(command)
        argv[0] = os.path.join(build_dir, argv[0])
        r = subprocess.run(argv, cwd=tmp, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
        hashes = ["stdout=" + fnv1a64(r.stdout)]
        for name in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, name), "rb") as f:
                hashes.append("%s=%s" % (name, fnv1a64(f.read())))
        return str(r.returncode), ",".join(hashes)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", required=True)
    ap.add_argument("--record", action="store_true")
    ap.add_argument("manifest")
    args = ap.parse_args()

    build_dir = os.path.abspath(args.build_dir)
    lines, entries = parse(args.manifest)
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        results = list(pool.map(lambda e: run(build_dir, e[4]), entries))

    if args.record:
        for (i, ident, _, _, command), (code, hashes) in zip(entries,
                                                              results):
            lines[i] = "\t".join((ident, code, hashes, command))
        with open(args.manifest, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        print("recorded %d lines into %s" % (len(entries), args.manifest))
        return 0

    bad = 0
    for (_, ident, code, hashes, command), (got_code, got_hashes) in zip(
            entries, results):
        if (got_code, got_hashes) != (code, hashes):
            bad += 1
            print("FAIL %s: `%s` exited %s with %s; recorded %s with %s" %
                  (ident, command, got_code, got_hashes, code, hashes))
    print("golden: %d of %d outputs match %s" %
          (len(entries) - bad, len(entries), args.manifest))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
