#!/usr/bin/env python3
"""Builds fargo_e2e, runs workloads, and reports their metrics.

    python3 bench/e2e/run.py [--workload W ...] [W ...] [--seed N]
                             [--seconds S] [--trace 0|1 | --traced]
                             [--quick] [--repeat R] [--record FILE]

Builds bench/e2e into build-e2e/ (RelWithDebInfo), runs each workload
(default: every workload in BENCHMARK.json) R times, prints one
`workload metric value unit` line per metric (the median over the runs),
and writes build-e2e/out/<workload>[.traced].json: every run, the per-metric
median and quartiles, and a host stamp (CPU count and model, compiler,
commit). --record also merges those summaries into FILE, the form of the
checked-in trajectory points under bench/e2e/results/.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics` — the BENCHMARK.json end-to-end metrics
(untraced) or per-layer metrics (--trace 1) of the last run. A failed
correctness check still prints it, with `correct: false`, and exits 1.
"""
import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-e2e")
BINARY = os.path.join(BUILD, "fargo_e2e")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_definition():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark; raises on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "fargo_e2e"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:] + proc.stderr[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(runs):
    """Per-metric median and quartiles across runs (same-named metrics)."""
    out = {}
    for name in sorted(runs[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in runs
                  if name in r["metrics"]]
        q1, q3 = quartiles(values)
        first = runs[0]["metrics"][name]
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                     "min": min(values), "max": max(values),
                     "unit": first["unit"], "exact": first["exact"],
                     "runs": len(values)}
    return out


def compiler():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    proc = subprocess.run([path, "--version"],
                                          capture_output=True, text=True)
                    return proc.stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    return "unknown"


def stamp():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "compiler": compiler(), "commit": commit,
            "date": datetime.datetime.now(datetime.timezone.utc)
            .strftime("%Y-%m-%dT%H:%M:%SZ")}


def run_once(workload, args):
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s exited %d without a result"
                           % (workload, proc.returncode))
    result = json.loads(lines[-1])
    if proc.returncode != 0 and result["correct"]:
        raise RuntimeError("%s exited %d" % (workload, proc.returncode))
    return result


def contract_line(result, wanted):
    """The result restricted to the BENCHMARK.json metrics of this mode."""
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise RuntimeError("metric %s (%s) missing from the run"
                               % (m["name"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    definition = load_definition()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("workloads", nargs="*")
    p.add_argument("--workload", action="append", default=[])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   default=definition["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--record")
    args = p.parse_args()
    if args.traced:
        args.trace = 1
    names = args.workload + args.workloads or [
        w["name"] for w in definition["workloads"]]
    wanted = definition["per_layer" if args.trace else "end_to_end"]

    build()
    host = stamp()
    suffix = ".traced" if args.trace else ""
    os.makedirs(os.path.join(BUILD, "out"), exist_ok=True)
    recorded = {}
    ok = True
    for name in names:
        runs = [run_once(name, args) for _ in range(max(1, args.repeat))]
        summary = summarize(runs)
        report = {"stamp": host, "workload": name, "seed": args.seed,
                  "traced": bool(args.trace), "quick": args.quick,
                  "runs": runs, "summary": summary}
        with open(os.path.join(BUILD, "out", name + suffix + ".json"),
                  "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
        for metric, s in summary.items():
            print("%s %s %.6g %s" % (name, metric, s["median"], s["unit"]))
        recorded[name] = {"runs": len(runs), "summary": summary,
                          "failed": [r["failed"] for r in runs],
                          "attempted": [r["attempted"] for r in runs]}
        ok = ok and all(r["correct"] for r in runs)
        for r in runs:
            for v in r["violations"]:
                log("%s: VIOLATION %s" % (name, v))
        print(json.dumps(contract_line(runs[-1], wanted)), flush=True)
    if args.record:
        with open(args.record, "w") as f:
            json.dump({"stamp": host, "seed": args.seed,
                       "traced": bool(args.trace), "seconds": args.seconds,
                       "workloads": recorded}, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError,
            subprocess.TimeoutExpired) as e:
        log("run.py: %s" % e)
        sys.exit(1)
