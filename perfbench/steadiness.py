#!/usr/bin/env python3
"""Run the benchmark on several seeds per workload, in one or more sets,
and report for each end-to-end metric:

- its spread in each set: the distance between the first and third
  quartile of its values (statistics.quantiles, n=4) as a share of their
  median;
- with two or more sets, how far each later set's median moved from the
  first set's, as a share of the first;

each next to the metric's bound from BENCHMARK.json.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--workloads build,fleet] [--runs 10]
        [--sets 2] [--first-seed 1] [--seconds 25]
        [--out perfbench/steadiness.json]

Runs are sequential; a set runs every workload before the next set
starts, so sets are minutes apart, as two separate measurements of the
same code are. Every set uses the same seeds. With --out, the values,
medians, spreads and median changes are written as JSON after every
workload.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = out.stdout.strip().splitlines()
    fingerprint = json.loads(lines[-2])["fingerprint"]
    return fingerprint, json.loads(lines[-1])


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    seeds = range(args.first_seed, args.first_seed + args.runs)
    report = {"runs": args.runs, "sets": args.sets, "first_seed": args.first_seed,
              "seconds": args.seconds, "workloads": {w: {"sets": []} for w in workloads}}
    for n in range(args.sets):
        for workload in workloads:
            values, failed, fingerprints = {}, 0, []
            for seed in seeds:
                fingerprint, result = run_once(workload, seed, args.seconds)
                fingerprints.append(fingerprint)
                failed += result["failed"] + (0 if result["correct"] else 1)
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            rows = {name: summarize(vs) for name, vs in values.items()}
            report["workloads"][workload]["sets"].append(
                {"failed": failed, "fingerprints": fingerprints, "metrics": rows})
            for name, row in rows.items():
                bound = metrics[name]["bound"]
                print(f"set {n + 1} {workload:8} {name:16} median {row['median']:14.6g} "
                      f"spread {row['spread']:7.4f} bound {bound:.3f} "
                      f"{'OK' if row['spread'] < bound / 3 else 'WIDE'}")
            print(f"set {n + 1} {workload:8} failed operations: {failed}", flush=True)
            if args.out:
                pathlib.Path(args.out).write_text(json.dumps(report, indent=1) + "\n")

    worst_spread, worst_change = (0.0, ""), (0.0, "")
    for workload, w in report["workloads"].items():
        w["median_change"] = {}
        for name, m in metrics.items():
            first = w["sets"][0]["metrics"][name]["median"]
            for s in w["sets"]:
                ratio = s["metrics"][name]["spread"] / m["bound"]
                worst_spread = max(worst_spread, (ratio, f"{workload}/{name}"))
            changes = [s["metrics"][name]["median"] / first - 1 for s in w["sets"][1:]]
            if changes:
                w["median_change"][name] = {"changes": changes, "bound": m["bound"]}
                ratio = max(abs(c) for c in changes) / m["bound"]
                worst_change = max(worst_change, (ratio, f"{workload}/{name}"))
                print(f"{workload:8} {name:16} median change {changes} bound {m['bound']:.3f} "
                      f"{'OK' if ratio <= 1 else 'OVER'}")
    report["worst_spread_over_bound"] = {"ratio": worst_spread[0], "at": worst_spread[1]}
    print(f"worst spread / bound: {worst_spread[0]:.3f} ({worst_spread[1]})")
    if args.sets > 1:
        report["worst_median_change_over_bound"] = {"ratio": worst_change[0],
                                                    "at": worst_change[1]}
        print(f"worst median change / bound: {worst_change[0]:.3f} ({worst_change[1]})")
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
