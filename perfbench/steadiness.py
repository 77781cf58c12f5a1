#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs the benchmark command once per seed on each workload, then reports,
for every end-to-end metric, the median and the spread between the first
and third quartile as a share of the median, next to the metric's bound.
It also re-runs the first seed and asserts that the exact metrics repeat
identically for the same seed, untraced and traced, and records the traced
run's per-layer metrics.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads a,b] [--out report.md]

The report is printed as Markdown; `--out` also writes it to a file.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

# Metrics whose value is a function of the seed alone.
EXACT = ["sim_cycles_per_req", "util_gap_pp"]
EXACT_PER_LAYER = [
    "sparse.xw_kernel_macs", "sparse.xw_kernel_bytes",
    "engine.xw_tasks", "engine.xw_replay_hit_ratio",
    "engine.axw_tasks", "engine.axw_replay_hit_ratio",
    "rebalance.tuning_rounds", "rebalance.switches",
    "sim.xw_cycles", "sim.axw_cycles", "sim.xw_util", "sim.axw_util",
    "serve.cache_hit_ratio", "serve.evictions", "serve.queue_full",
    "streaming.io_bytes_per_req", "streaming.resident_peak_bytes",
]


WALL_S = []


def run(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    WALL_S.append(time.monotonic() - start)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=int, default=0,
                        help="run length; 0 means BENCHMARK.json's run_seconds")
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seeds = seed_range(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    lines = [f"Seeds {seeds[0]}-{seeds[-1]}, {seconds} s per run.", ""]
    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(run(bench["command"], workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: {runs[-1]}", file=sys.stderr, flush=True)
        again = run(bench["command"], workload, seeds[0], seconds, 0)
        traced = [run(bench["command"], workload, seeds[0], seconds, 1) for _ in range(2)]
        for name, first, second in ([(n, runs[0], again) for n in EXACT]
                                    + [(n, traced[0], traced[1]) for n in EXACT_PER_LAYER]):
            if first[name] != second[name]:
                sys.exit(f"{workload}: {name} differs on a re-run of seed {seeds[0]}: "
                         f"{first[name]} vs {second[name]}")
        lines += [f"### {workload}", "",
                  "| metric | median | q1 | q3 | spread | bound | spread/bound |",
                  "|---|---|---|---|---|---|---|"]
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else float("nan")
            lines.append(f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} "
                         f"| {bound} | {spread / bound:.2f} |")
        lines += ["", f"Exact metrics repeat on a re-run of seed {seeds[0]}: "
                  + ", ".join(f"{n} = {runs[0][n]!r}" for n in EXACT)
                  + f"; and, traced twice, every one of {', '.join(EXACT_PER_LAYER)}.", "",
                  f"Per-layer metrics of the first traced run (seed {seeds[0]}):", "",
                  "| metric | value |", "|---|---|"]
        lines += [f"| {name} | {value:.6g} |" for name, value in traced[0].items()]
        lines.append("")
    runs = 4 + 22 * len(bench["workloads"])
    lines += [f"Wall time per run: median {statistics.median(WALL_S):.1f} s, "
              f"max {max(WALL_S):.1f} s over {len(WALL_S)} runs; {runs} runs at the "
              f"median take {runs * statistics.median(WALL_S):.0f} s.", ""]
    report = "\n".join(lines)
    print(report)
    if args.out:
        with open(args.out, "w") as f:
            f.write(report + "\n")


if __name__ == "__main__":
    main()
