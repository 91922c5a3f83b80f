#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py [--runs 10] [--seconds 10] [--trace 0] [workload ...]

For every workload (all of BENCHMARK.json's by default) this makes one run
per seed 1..runs from the repository root, then prints, per metric, the
median and the interquartile range as a share of the median (quartiles as
``statistics.quantiles(values, n=4)`` gives them), next to the metric's
bound. Raw result lines go to ``.bench_trace/spread-<workload>.jsonl``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    os.makedirs(os.path.join(ROOT, ".bench_trace"), exist_ok=True)

    worst = 0.0
    for name in names:
        results = []
        log_path = os.path.join(ROOT, ".bench_trace", f"spread-{name}.jsonl")
        with open(log_path, "w") as log:
            for seed in range(1, args.runs + 1):
                cmd = bench["command"] + [
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", args.trace,
                ]
                out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                if out.returncode != 0:
                    sys.exit(f"{name} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
                res = json.loads(out.stdout.strip().splitlines()[-1])
                log.write(json.dumps({"seed": seed, **res}) + "\n")
                if not res["correct"]:
                    print(f"{name} seed {seed}: correct=false", file=sys.stderr)
                results.append(res)
        print(f"{name}: {len(results)} runs, failed ops {[r['failed'] for r in results]}")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(metric)
            if bound is not None and metric != "setup_s":
                worst = max(worst, spread / bound)
            shown = f"bound {bound}" if bound is not None else "no bound"
            print(f"  {metric:<40} median {med:<14.6g} spread {spread:7.2%}  ({shown})")
    print(f"largest spread / bound (setup_s excepted): {worst:.2f}")


if __name__ == "__main__":
    main()
