#!/usr/bin/env python3
"""The benchmark's own test: every workload, in both modes, must run
correctly and print only names listed in BENCHMARK.json, and together
the workloads must measure every listed per-layer metric.

    python3 perfbench/test_names.py    # one short run per workload and
                                       # mode (about two minutes)
"""

import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    bench = run.load_benchmark()
    run.build()
    errors = []
    measured = set()
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            # 3 s windows: plan-tight needs about 7 s for the 100
            # requests its memory reading waits for, and a window may
            # run to four times its length.
            lines, raw = run.measure(workload, 1, 3.0, trace)
            problems, _ = run.check_names(bench, raw["metrics"], trace)
            if not raw["correct"]:
                problems += [l for l in lines if l.startswith("FAILED")]
            errors += ["%s trace=%d: %s" % (workload, trace, p)
                       for p in problems]
            if trace:
                measured |= set(raw["metrics"])
    never = [m["name"] for m in bench["per_layer"]
             if m["name"] not in measured]
    if never:
        errors.append("per-layer metrics no workload measures: %s" % never)
    for error in errors:
        print("FAIL: " + error)
    print("ok" if not errors else "%d problem(s)" % len(errors))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
