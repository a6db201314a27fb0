"""Run one workload once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload train_crowd_n16 --seeds 1-10

Runs are made one after another, each in its own process, with the command
and run_seconds of BENCHMARK.json. For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4), the interquartile range
as a share of the median and the metric's bound, then the median and
spread of the unscaled wall-clock figure, plus the failed shares. This is
how the bounds in BENCHMARK.json were checked; see README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    walls = {}
    shares = []
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", str(args.trace)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for line in proc.stderr.splitlines():
            if line.startswith("perfbench: wall clock: "):
                for pair in line.split(": ", 2)[2].split(", "):
                    name, value = pair.split()
                    walls.setdefault(name, []).append(float(value))
        shares.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: {wall:.1f} s, correct={result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}", flush=True)
    print(f"\n{args.workload}: failed shares {sorted(set(shares))}")
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}"
          f" {'wall median':>12} {'wall iqr/med':>12}")
    for name, vals in values.items():
        if any(v is None for v in vals):
            print(f"{name:32} absent")
            continue
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        rel = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        line = (f"{name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.4f} "
                f"{'' if bound is None else bound:>6}")
        if len(walls.get(name, ())) == len(vals):
            w_med = statistics.median(walls[name])
            w_q1, _, w_q3 = statistics.quantiles(walls[name], n=4)
            line += f" {w_med:12.6g} {(w_q3 - w_q1) / w_med:12.4f}"
        print(line)


if __name__ == "__main__":
    main()
