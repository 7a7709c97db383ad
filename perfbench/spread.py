#!/usr/bin/env python3
"""Runs one workload under several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload serve_query --seeds 1-10 [--seconds S] [--trace 0|1]

For every metric it prints the median, the quartiles and the spread: the
distance between the first and third quartile as a share of the median,
with statistics.quantiles(values, n=4). For end-to-end metrics it also
prints the bound from BENCHMARK.json and whether the spread is within it.
The raw results go to .bench_out/spread-<workload>.jsonl. Run from the
root of a checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    results = []
    os.makedirs(".bench_out", exist_ok=True)
    log_path = os.path.join(".bench_out", f"spread-{args.workload}.jsonl")
    with open(log_path, "a") as log:
        for seed in seed_list(args.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 args.workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stdout}")
            result = json.loads(lines[-1])
            log.write(json.dumps({"seed": seed, **result}) + "\n")
            if not result["correct"] or result["failed"]:
                sys.exit(f"seed {seed}: checks failed\n{out.stdout}")
            results.append(result)
            print(f"seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)

    print(f"\n{args.workload}: {len(results)} runs of {seconds} s")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        line = (f"  {name:36s} median {med:14.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                f"  spread {spread:7.2%}")
        if name in bounds:
            line += (f"  bound {bounds[name]:.0%}"
                     f"  {'ok' if spread <= bounds[name] else 'OVER'}")
        print(line)


if __name__ == "__main__":
    main()
