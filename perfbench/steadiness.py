#!/usr/bin/env python3
"""Repeat the benchmark and summarise how steady its metrics are.

Run from the root of a checkout:

    python3 perfbench/steadiness.py run --runs 10 --first-seed 101 \\
        --out perfbench/results/steadiness.jsonl
    python3 perfbench/steadiness.py summary perfbench/results/steadiness.jsonl

`run` calls perfbench/run.py once per (seed, workload), workloads
interleaved so slow spells of the host spread over all of them, and
appends each run's row and result line to the output as one JSON
object. `summary` prints, per workload and metric, the median, the
quartiles (statistics.quantiles(values, n=4)) and their distance as a
share of the median, next to the bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run(args):
    bench = load_benchmark()
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    with open(args.out, "a") as out:
        for i in range(args.runs):
            seed = args.first_seed + i
            for workload in workloads:
                cmd = bench["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]),
                    "--trace", str(args.trace)]
                done = subprocess.run(cmd, capture_output=True, text=True,
                                      check=False)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or len(lines) < 2:
                    print(f"{workload} seed {seed}: exit {done.returncode}",
                          file=sys.stderr)
                    continue
                record = {"label": args.label,
                          "row": json.loads(lines[-2])["row"],
                          "result": json.loads(lines[-1])}
                out.write(json.dumps(record) + "\n")
                out.flush()
                result = record["result"]
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} "
                      f"failed={result['failed']}", flush=True)


def summary(args):
    bench = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = defaultdict(lambda: defaultdict(list))
    runs = defaultdict(int)
    with open(args.file) as f:
        for line in f:
            record = json.loads(line)
            if args.label and record.get("label") != args.label:
                continue
            if record["row"]["trace"] != 0:
                continue
            workload = record["row"]["workload"]
            runs[workload] += 1
            for name, metric in record["result"]["metrics"].items():
                values[workload][name].append(metric["value"])
    print("| workload | metric | runs | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in sorted(values):
        for name in sorted(values[workload]):
            v = values[workload][name]
            if len(v) < 2:
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"| {workload} | {name} | {len(v)} | {med:.6g} | {q1:.6g} "
                  f"| {q3:.6g} | {spread:.3f} | {bounds.get(name, '')} |")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--workloads", nargs="*")
    r.add_argument("--label", default="")
    r.add_argument("--out", required=True)
    s = sub.add_parser("summary")
    s.add_argument("file")
    s.add_argument("--label", default="")
    args = parser.parse_args()
    run(args) if args.cmd == "run" else summary(args)


if __name__ == "__main__":
    main()
