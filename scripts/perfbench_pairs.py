#!/usr/bin/env python3
"""Paired perfbench runs of a change against its parent commit.

Exports the parent's committed files with `git archive` into a
temporary directory, then runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

in both trees for every workload of BENCHMARK.json, one alternating
pair per seed: the parent runs first on odd pairs, the change first
on even ones, both sides of a pair use that pair's seed, and T is
BENCHMARK.json's run_seconds. It prints each end-to-end metric's
median and quartiles per side, the pairs the change wins, and whether
the claim rule holds: the change is better in at least 9 of every 10
pairs, the medians differ in its favour by more than the parent's
interquartile range, and the change has no more failed operations
than the parent. The entry (PR number, both trees' identities,
perfbench's host line, seeds, seconds, every run's values) is
appended to BENCH_perfbench.json at the repository root.

    python3 scripts/perfbench_pairs.py --pr N \\
        --seeds 101,102,103,104,105,106,107,108,109,110

The change is the working tree this script lives in. The parent is
HEAD when that tree differs from HEAD (untracked files count) and
HEAD~1 when it is clean. An uncommitted change has no sha yet: its
entry records change_sha null and the digest of its src/ and
perfbench/ files. The export holds exactly the committed files, as
the benchmark itself sees a commit, and leaves nothing registered in
the repository. Set TMPDIR to choose where it goes.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "BENCH_perfbench.json")
RUN_TIMEOUT_S = 900


def die(message):
    print("perfbench_pairs.py: " + message, file=sys.stderr)
    sys.exit(2)


def git(*args, cwd=ROOT):
    run = subprocess.run(["git", "-C", cwd] + list(args),
                         capture_output=True, text=True)
    if run.returncode != 0:
        die("git %s failed: %s" % (" ".join(args), run.stderr.strip()))
    return run.stdout.strip()


def sources_digest(tree):
    """sha256 over src/ and perfbench/, as perfbench/run.py hashes a
    checkout without git metadata."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(tree, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, tree).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources sha256 " + digest.hexdigest()[:16]


def quartiles(values):
    """(q1, median, q3), linear interpolation between order stats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def run_once(tree, workload, seed, seconds):
    """One perfbench run: (host line, result JSON)."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True,
                             cwd=tree, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s timed out in %s" % (workload, tree))
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout + run.stderr)
        die("%s exited with %d in %s" % (workload, run.returncode, tree))
    host = next((l for l in lines if l.startswith("host:")), "")
    try:
        return host, json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(run.stdout)
        die("%s printed no result line in %s" % (workload, tree))


def summarise(parent, change, better, failed):
    """Stats of one metric over the pairs, both sides."""
    lower = better == "lower"
    wins = sum(1 for p, c in zip(parent, change)
               if (c < p if lower else c > p))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = p_med - c_med if lower else c_med - p_med
    needed = math.ceil(0.9 * len(parent))
    return {
        "better": better,
        "parent": {"median": p_med, "q1": p_q1, "q3": p_q3,
                   "values": parent},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3,
                   "values": change},
        "wins": wins,
        "claim_holds": (wins >= needed and gain > p_q3 - p_q1 and
                        failed["change"] <= failed["parent"]),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True,
                        help="number of the change the entry is for")
    parser.add_argument("--seeds", required=True,
                        help="comma-separated, one seed per pair")
    args = parser.parse_args()

    seeds = [int(s) for s in args.seeds.split(",") if s]
    if not seeds:
        die("--seeds needs at least one seed")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]

    head = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain"))
    change_sha = None if dirty else head
    parent_sha = git("rev-parse", "HEAD" if dirty else "HEAD~1")
    temp_dir = tempfile.mkdtemp(prefix="perfbench-parent-")
    parent_tree = os.path.join(temp_dir, "parent")
    os.mkdir(parent_tree)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", parent_sha],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", parent_tree],
                           stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        shutil.rmtree(temp_dir, ignore_errors=True)
        die("could not export %s into %s" % (parent_sha, parent_tree))
    print("parent %s in %s; change %s in %s" %
          (parent_sha, parent_tree, change_sha or head + " + uncommitted",
           ROOT))

    entry = {
        "pr": args.pr,
        "parent_sha": parent_sha,
        "change_sha": change_sha,
        "change_sources": sources_digest(ROOT),
        "host": "",
        "seeds": seeds,
        "seconds": seconds,
        "pairs": len(seeds),
        "workloads": {},
    }
    started = time.time()
    try:
        for workload in workloads:
            values = {"parent": {m["name"]: [] for m in metrics},
                      "change": {m["name"]: [] for m in metrics}}
            failed = {"parent": 0, "change": 0}
            for i, seed in enumerate(seeds):
                order = ["parent", "change"] if i % 2 == 0 else \
                    ["change", "parent"]
                for side in order:
                    tree = parent_tree if side == "parent" else ROOT
                    host, result = run_once(tree, workload, seed,
                                            seconds)
                    entry["host"] = entry["host"] or host
                    if not result["correct"]:
                        die("%s seed %d incorrect on the %s side" %
                            (workload, seed, side))
                    failed[side] += result["failed"]
                    for m in metrics:
                        values[side][m["name"]].append(
                            result["metrics"][m["name"]]["value"])
                print("%s pair %d/%d (seed %d) done" %
                      (workload, i + 1, len(seeds), seed), flush=True)
            summary = {"failed": failed}
            for m in metrics:
                summary[m["name"]] = summarise(
                    values["parent"][m["name"]],
                    values["change"][m["name"]], m["better"], failed)
                summary[m["name"]]["unit"] = m["unit"]
            entry["workloads"][workload] = summary
    finally:
        shutil.rmtree(temp_dir, ignore_errors=True)
    entry["wall_s"] = round(time.time() - started, 1)

    print(entry["host"])
    print("%-15s %-13s %26s %26s %5s %s" %
          ("workload", "metric", "parent median [q1, q3]",
           "change median [q1, q3]", "wins", "claim"))
    for workload, summary in entry["workloads"].items():
        for m in metrics:
            s = summary[m["name"]]
            print("%-15s %-13s %10.5g [%6.5g, %6.5g] %10.5g [%6.5g, %6.5g]"
                  " %2d/%-2d %s" % (
                      workload, m["name"], s["parent"]["median"],
                      s["parent"]["q1"], s["parent"]["q3"],
                      s["change"]["median"], s["change"]["q1"],
                      s["change"]["q3"], s["wins"], len(seeds),
                      "holds" if s["claim_holds"] else "-"))
        print("%-15s failed: parent %d, change %d" % (
            workload, summary["failed"]["parent"],
            summary["failed"]["change"]))

    entries = []
    if os.path.exists(OUT):
        with open(OUT) as f:
            entries = json.load(f)
    entries.append(entry)
    with open(OUT, "w") as f:
        json.dump(entries, f, indent=1)
        f.write("\n")
    print("appended to " + OUT)


if __name__ == "__main__":
    main()
