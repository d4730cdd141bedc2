#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S] [--trace 0|1]

Run from the repository root. For every workload it runs the benchmark once
per seed (the same command `BENCHMARK.json` names) and prints, per metric,
the median of the runs and the spread: the distance between the first and
third quartiles (`statistics.quantiles(values, n=4)`) as a share of the
median, next to the metric's bound from `BENCHMARK.json` when it has one.
Metrics the benchmark prints but does not gate (`# not gated:`) are
included without a bound.
The raw result lines are appended to `<target>/perfbench-spread.jsonl`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    target = os.environ.get("CARGO_TARGET_DIR", "perfbench/target")
    os.makedirs(target, exist_ok=True)
    log = open(os.path.join(target, "perfbench-spread.jsonl"), "a")

    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
                sys.exit(1)
            result = json.loads(lines[-1])
            # Metrics printed but not gated, as "# not gated: name value unit, ...".
            for line in lines:
                if line.startswith("# not gated:"):
                    for item in line[len("# not gated:"):].split(","):
                        name, value, unit = item.split()
                        result["metrics"][name] = {"value": float(value), "unit": unit}
            log.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")
            log.flush()
            runs.append(result)
            share = result["failed"] / result["attempted"]
            print(f"{workload} seed {seed}: attempted {result['attempted']} failed share {share}",
                  flush=True)
        print(f"\n{workload} over {len(runs)} seeds")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            bound_txt = f"bound {bound}" if bound is not None else ""
            print(f"  {name:<28} median {med:>14.4f} {unit:<6} spread {spread:7.4f} {bound_txt}")
        print(flush=True)


if __name__ == "__main__":
    main()
