"""Training throughput of train_turning_m20's configuration at precision 64 and 32.

    python3 perfbench/precision.py --seed 1 --rounds 8

Builds the workload's inputs for the seed, then alternates train rounds at
`precision = 64` and `precision = 32` (same inputs, same configuration
otherwise) and prints each side's scenes per second, computed as in
`train_scenes_per_s`: medians of the scaled train items, and the same from
wall-clock times. A reference figure for the README, not a benchmark metric.
"""

import argparse
import dataclasses
import os
import shutil
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=8)
    args = parser.parse_args()
    workdir = os.path.join(ROOT, ".perfbench_runs", f"precision-s{args.seed}-p{os.getpid()}")
    try:
        work = workloads.Workload("train_turning_m20", args.seed, 0, None, workdir)
        work.setup()
        base = work.cfg
        samples = {"64": {}, "32": {}}
        for _ in range(args.rounds):
            for precision, items in samples.items():
                work.cfg = dataclasses.replace(base, precision=precision)
                work.samples["train"] = items
                work._train_round(traced=False)
        scenes = base.epochs * len(work.train_windows)
        for precision, items in samples.items():
            scaled, wall = (sum(statistics.median(t[k] for t in times) for times in items.values())
                            for k in (0, 1))
            print(f"precision {precision}: {scenes / scaled:.3f} scenes/s scaled "
                  f"({1e3 * scaled / scenes:.1f} ms/scene), {scenes / wall:.3f} wall clock")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
