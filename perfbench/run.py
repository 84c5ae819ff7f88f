#!/usr/bin/env python3
"""AdaPipe benchmark entry point.

Builds the benchmark binary from this checkout's sources into
.bench_build/ (Release), runs one workload and prints its output. The
last line is the JSON result: correct, attempted, failed and the
metrics named in BENCHMARK.json (end-to-end with --trace 0, per-layer
with --trace 1).

    python3 perfbench/run.py --workload plan-tight --seed 3 --seconds 10 --trace 0

BENCHMARK.json is the only list of workloads, metric names and units.
The binary prints the metrics it measures; this script attaches their
units, reports a per-layer metric the workload does not exercise as 0,
and marks the run incorrect when a name is missing or not listed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "adapipe_perfbench")


def die(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        die("cannot read %s: %s" % (path, err))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no AdaPipe sources under " + os.path.join(ROOT, "src"))
    os.makedirs(CMAKE_DIR, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "a") as log:
        try:
            if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
                generator = ["-G", "Ninja"] if shutil.which("ninja") else []
                subprocess.run(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                                "-DCMAKE_BUILD_TYPE=Release"] + generator,
                               stdout=log, stderr=log, check=True,
                               timeout=120)
            jobs = str(min(4, os.cpu_count() or 1))
            subprocess.run(["cmake", "--build", CMAKE_DIR, "-j", jobs],
                           stdout=log, stderr=log, check=True, timeout=600)
        except (subprocess.SubprocessError, OSError) as err:
            die("build failed (%s); see %s" %
                (err, os.path.join(BUILD, "build.log")))


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return "git " + sha.stdout.strip()
    except (subprocess.SubprocessError, OSError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources sha256 " + digest.hexdigest()[:16]


def measure(workload, seed, seconds, trace):
    """Run the binary once: (its output lines, its raw result)."""
    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--plans", os.path.join(HERE, "plans"), "--out-dir", out_dir]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=170, cwd=ROOT)
    except subprocess.TimeoutExpired:
        die("benchmark binary timed out")
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        die("benchmark binary exited with %d" % run.returncode)
    try:
        return lines[:-1], json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(run.stdout)
        die("benchmark binary printed no result line")


def check_names(bench, measured, trace):
    """The one check of printed names against BENCHMARK.json.

    Returns (problems, per-layer names filled with 0). End-to-end runs
    must print exactly the end-to-end names; traced runs may leave out
    a per-layer metric whose layer the workload does not exercise.
    """
    listed = [m["name"] for m in bench["per_layer" if trace else
                                       "end_to_end"]]
    problems = []
    extra = sorted(set(measured) - set(listed))
    if extra:
        problems.append("metrics not in BENCHMARK.json: %s" % extra)
    missing = [name for name in listed if name not in measured]
    if missing and not trace:
        problems.append("end-to-end metrics not measured: %s" % missing)
    return problems, missing if trace else []


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    build()
    lines, raw = measure(args.workload, args.seed, args.seconds, args.trace)
    problems, flat = check_names(bench, raw["metrics"], args.trace == 1)
    for line in lines:
        print(line)
    print("source: " + source_id())

    metrics = {}
    print("%-36s %16s  %-6s %s" % ("metric", "value", "unit", "samples"))
    for m in bench["per_layer" if args.trace else "end_to_end"]:
        got = raw["metrics"].get(m["name"], {"value": 0, "samples": 0})
        print("%-36s %16.6g  %-6s %s" % (
            m["name"], got["value"], m["unit"],
            "not exercised" if m["name"] in flat else got["samples"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for problem in problems:
        print("FAILED: " + problem)
    print(json.dumps({"correct": raw["correct"] and not problems,
                      "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
