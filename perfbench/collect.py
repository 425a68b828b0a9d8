"""Repeat benchmark runs over seeds and summarise each metric's spread.

    python3 perfbench/collect.py [--runs 10] [--trace 0|1] [--out FILE]

Run from the root of a checkout. For each workload in BENCHMARK.json it runs
``perfbench/run.py`` once for each seed 1..runs, one run at a time, and
reports for every metric the median of its values and their spread: the
distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median. ``--out`` adds the medians, spreads and raw values to a JSON
file, under ``end_to_end`` or ``per_layer`` by the mode.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import load_spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def collect(workload, seeds, seconds, trace):
    runs = []
    for seed in seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
        lines = proc.stdout.strip().splitlines()
        runs.append(json.loads(lines[-1]))
        machine = json.loads(lines[0][len("# machine "):])
    names = list(runs[0]["metrics"])
    summary = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": statistics.median(values),
            "spread": spread(values) if len(values) > 1 else 0.0,
            "values": values,
        }
    return {
        "machine": machine,
        "seeds": list(seeds),
        "correct": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": summary,
    }


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    seeds = range(1, args.runs + 1)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result = {}
    for workload in (w["name"] for w in spec["workloads"]):
        result[workload] = collect(workload, seeds, spec["run_seconds"], args.trace)
        for name, m in result[workload]["metrics"].items():
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}{'  SPREAD > bound/3' if m['spread'] > bound / 3 else ''}"
            print(f"{workload:11s} {name:36s} {m['median']:12.5g} {m['unit']:6s} spread {m['spread']:.4f}{flag}")
        print(f"{workload:11s} correct={result[workload]['correct']} failed={result[workload]['failed']}", flush=True)
    if args.out:
        # Untraced and traced collections share one file, under their own keys.
        merged = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                merged = json.load(fh)
        merged["per_layer" if args.trace else "end_to_end"] = result
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(merged, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
