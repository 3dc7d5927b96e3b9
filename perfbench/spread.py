#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise each end-to-end metric.

For every workload and metric it reports the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median. It also checks each
spread against a third of the metric's bound in ``BENCHMARK.json``
(``setup_s`` excepted).

Run from the root of the repository:

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--label L] [--out F]

``--out`` appends the summary as one JSON line (a trajectory entry) to F.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    t0 = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: failed operations {result}")
    return result, wall


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--label", default="")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = seeds_of(args.seeds)

    summary = {}
    steady = True
    for w in workloads:
        values = {name: [] for name in bounds}
        walls = []
        for seed in seeds:
            result, wall = run_once(bench, w, seed)
            walls.append(wall)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        for name, vs in values.items():
            q1, q2, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / q2
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady &= ok
            rows[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                          "values": vs}
            print(f"{w:<11} {name:<13} median {q2:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.4f} bound/3 {bounds[name] / 3:.4f}"
                  f"{'' if ok else '  WIDE'}")
        print(f"{w:<11} run wall seconds: max {max(walls):.1f}, median {statistics.median(walls):.1f}")
        summary[w] = rows

    if args.out:
        entry = {
            "label": args.label,
            "date": time.strftime("%Y-%m-%d"),
            "host": {
                "machine": platform.machine(),
                "processor": platform.processor(),
                "cpus": __import__("os").cpu_count(),
            },
            "run_seconds": bench["run_seconds"],
            "seeds": seeds,
            "workloads": summary,
        }
        with open(args.out, "a") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
