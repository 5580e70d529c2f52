#!/usr/bin/env python3
"""Compare two sets of fcbench runs against BENCHMARK.json's bounds.

    python3 fcbench/compare.py BASE_OUT HEAD_OUT

BASE_OUT and HEAD_OUT are .bench_out directories of two checkouts (parent
and change), each holding the *.result.json records of untraced runs. Per
workload and end-to-end metric, prints both medians, the worsening as a
share of the base median, the base's own spread (quartile distance over
median) and the bound. A paper result is compared only on the workload
that owns it (the others report the same value from their paper pass), so
one simulated regression is flagged once. Exits 1 if any metric got worse
by more than its bound, or if either side has a run that failed its output
checks.
"""

import glob
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import fcmetrics  # noqa: E402


def load_runs(out_dir):
    """workload -> list of metric dicts, plus the number of incorrect runs."""
    runs, incorrect = {}, 0
    for path in sorted(glob.glob(os.path.join(out_dir, "*.result.json"))):
        with open(path) as f:
            rec = json.load(f)
        if rec["trace"] != 0 or rec.get("tiny"):
            continue
        incorrect += 0 if rec["correct"] else 1
        runs.setdefault(rec["workload"], []).append(
            {k: v for k, v in rec["metrics"].items() if k in rec["owned"]})
    return runs, incorrect


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = fcmetrics.load_spec(
        os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    base, base_bad = load_runs(argv[1])
    head, head_bad = load_runs(argv[2])
    regressed = False
    for workload in sorted(set(base) & set(head)):
        print("%s (base %d runs, head %d runs)" % (
            workload, len(base[workload]), len(head[workload])))
        for name, b, h, w, bound, bad in fcmetrics.compare(
                base[workload], head[workload], spec):
            s = fcmetrics.spread([r[name] for r in base[workload]])
            print("  %-22s base %-12.6g head %-12.6g worse %+7.2f%%  "
                  "spread %5.2f%%  bound %4.1f%%%s" % (
                      name, b, h, 100 * w, 100 * s, 100 * bound,
                      "  REGRESSED" if bad else ""))
            regressed |= bad
    if base_bad or head_bad:
        print("runs failing their output checks: base %d, head %d" % (
            base_bad, head_bad))
    return 1 if regressed or base_bad or head_bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
