#!/usr/bin/env python3
"""Check that the benchmark is steady, the way its acceptance check does:
two sets of runs of the same code, each set running every workload once per
seed in SEEDS. For each set, workload and end-to-end metric it reports the
median and quartiles and the spread (the distance between the quartiles as
a share of the median); for each workload and metric, the gap between the
two sets' medians as a share of the first. Both sit next to the metric's
bound in psgbench/STEADINESS.json, which every run rewrites.

Run from the repository root:

    python3 psgbench/steadiness.py

The command, run length, workloads and bounds come from BENCHMARK.json.
"""

import json
import os
import statistics
import subprocess
import sys
import time

SETS = 2
SEEDS = list(range(101, 111))


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return result, elapsed


def summarize(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": med, "q3": q3,
            "spread": round((q3 - q1) / med, 5), "bound": bound}


def main():
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sets = []
    for k in range(SETS):
        rows = {}
        for name in names:
            values = {m: [] for m in bounds}
            elapsed = []
            for seed in SEEDS:
                result, secs = run_once(bench["command"], name, seed,
                                        bench["run_seconds"])
                elapsed.append(secs)
                for m in bounds:
                    values[m].append(result["metrics"][m]["value"])
                print(f"set {k + 1} {name} seed {seed}: {secs:.1f} s  " +
                      "  ".join(f"{m}={values[m][-1]:.6g}" for m in bounds),
                      flush=True)
            rows[name] = {m: summarize(vs, bounds[m])
                          for m, vs in values.items()}
            rows[name]["run_elapsed_s_max"] = round(max(elapsed), 1)
        sets.append(rows)

    gaps = {}
    for name in names:
        gaps[name] = {}
        for m in bounds:
            first = sets[0][name][m]["median"]
            gap = (sets[-1][name][m]["median"] - first) / first
            gaps[name][m] = {"gap": round(gap, 5), "bound": bounds[m]}
    for k, rows in enumerate(sets):
        for name in names:
            for m in bounds:
                r = rows[name][m]
                print(f"set {k + 1} {name:9} {m:15} median {r['median']:<12.6g}"
                      f" spread {r['spread']:.4f}  bound {r['bound']}"
                      f"{'' if r['spread'] <= r['bound'] / 3 else '  (above bound/3)'}")
    for name in names:
        for m in bounds:
            g = gaps[name][m]
            print(f"gap   {name:9} {m:15} {g['gap']:+.4f}  bound {g['bound']}"
                  f"{'' if abs(g['gap']) <= g['bound'] else '  (OUTSIDE bound)'}")
    report = {
        "seeds": SEEDS,
        "run_seconds": bench["run_seconds"],
        "nproc": os.cpu_count(),
        "sets": sets,
        "median_gap": gaps,
        "largest_median_gap": max(abs(g["gap"]) for w in gaps.values()
                                  for g in w.values()),
    }
    path = os.path.join("psgbench", "STEADINESS.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
