#!/usr/bin/env python3
"""Compares two fargo_e2e result sets under the BENCHMARK.json bounds.

    python3 bench/e2e/compare.py A B

A and B are result sets: a build-e2e/out directory written by run.py, or a
trajectory file written by `run.py --record` (bench/e2e/results/). A is the
baseline. Each side's value is the median of its runs. For every workload
and end-to-end metric one row says:

  pass        B is no worse than A by more than the metric's bound (an exact
              metric at the same seed must be identical, or better);
  regress     B is worse by more than the bound;
  unresolved  either side's own spread (quartile distance over the median)
              is wider than the bound, and not every B run beats every A run.

Per-layer metrics present on both sides follow as `info` rows (they have no
bound). Exits 1 if any row regresses.
"""
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load(path):
    """{(workload, traced): {"seed": n, "summary": {...}}} of a result set."""
    sets = {}
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            if not name.endswith(".json"):
                continue
            with open(os.path.join(path, name)) as f:
                r = json.load(f)
            sets[(r["workload"], r["traced"])] = r
        return sets
    with open(path) as f:
        r = json.load(f)
    for workload, w in r["workloads"].items():
        sets[(workload, r["traced"])] = {"seed": r["seed"],
                                         "summary": w["summary"]}
    return sets


def spread(s):
    return (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0


def verdict(metric, a, b, same_seed):
    """(verdict, signed change of B against A, positive = worse)."""
    lower = metric["better"] == "lower"
    base = abs(a["median"]) or 1.0
    worse = (b["median"] - a["median"]) / base
    if not lower:
        worse = -worse
    if a["exact"] and b["exact"] and same_seed:
        if a["q1"] == a["q3"] == b["q1"] == b["q3"] == a["median"]:
            return "pass", worse
        return ("regress" if worse > 0 else "pass"), worse
    bound = metric["bound"]
    b_beats_all = (b["max"] < a["min"]) if lower else (b["min"] > a["max"])
    if max(spread(a), spread(b)) > bound and not b_beats_all:
        return "unresolved", worse
    return ("regress" if worse > bound else "pass"), worse


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        definition = json.load(f)
    a_sets, b_sets = load(argv[1]), load(argv[2])
    regressed = False
    print("%-16s %-44s %14s %14s %9s  %s"
          % ("workload", "metric", "A", "B", "change", "verdict"))
    for w in definition["workloads"]:
        for traced, metrics in ((False, definition["end_to_end"]),
                                (True, definition["per_layer"])):
            a, b = a_sets.get((w["name"], traced)), b_sets.get((w["name"], traced))
            if a is None or b is None:
                continue
            for m in metrics:
                sa, sb = a["summary"].get(m["name"]), b["summary"].get(m["name"])
                if sa is None or sb is None:
                    continue
                if traced:
                    v = "info"
                    base = abs(sa["median"]) or 1.0
                    change = (sb["median"] - sa["median"]) / base
                else:
                    v, change = verdict(m, sa, sb, a["seed"] == b["seed"])
                    if m["better"] == "higher":
                        change = -change
                regressed = regressed or v == "regress"
                print("%-16s %-44s %14.6g %14.6g %+8.2f%%  %s"
                      % (w["name"], m["name"], sa["median"], sb["median"],
                         100 * change, v))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
