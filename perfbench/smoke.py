"""Tiny-size smoke test of the benchmark; finishes in well under a minute.

    python3 perfbench/smoke.py

1. Runs every workload at tiny sizes (--tiny, one second) untraced and
   traced, and checks that each result line names every end-to-end or
   per-layer metric of BENCHMARK.json with its unit.
2. Feeds every output check in checks.py one deliberately wrong value and
   requires it to fail, and the right value and requires it to pass.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark's files, where it must exit non-zero without a result.

Exits 0 when all of this holds and prints what failed otherwise.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

import checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
from motionq.objectives import per_agent_best_metrics  # noqa: E402

FAILURES = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def run_workloads(bench):
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            cmd = bench["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                                      "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            what = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{what}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{what}: result keys")
            expect(result["correct"] and 0 <= result["failed"] < result["attempted"],
                   f"{what}: correct, {result['failed']} of {result['attempted']} failed")
            got = result["metrics"]
            units = {m["name"]: m["unit"] for m in listed}
            expect(set(got) == set(units), f"{what}: every metric of BENCHMARK.json")
            expect(all(got[k]["unit"] == units[k] and isinstance(got[k]["value"], float)
                       for k in units if k in got), f"{what}: units and numeric values")


def naive_best_of_m(gt, preds):
    """Plain-loop best-of-m, a second reference for checks.own_best_of_m."""
    ade, fde = [], []
    for i in range(gt.shape[0]):
        best = None
        for k in range(preds.shape[0]):
            errs = [float(np.hypot(*(preds[k, i, t] - gt[i, t]))) for t in range(gt.shape[1])]
            mean = sum(errs) / len(errs)
            if best is None or mean < best[0]:
                best = (mean, errs[-1])
        ade.append(best[0])
        fde.append(best[1])
    return np.array(ade), np.array(fde)


def wrong_values():
    rng = np.random.default_rng(0)
    gt = rng.normal(size=(3, 12, 2))
    preds = rng.normal(size=(20, 3, 12, 2))

    expect(checks.prediction(preds, 20, 3, 12) is None, "prediction passes")
    expect(checks.prediction(preds[:, :, :11], 20, 3, 12) is not None,
           "prediction fails on a short horizon")
    bad = preds.copy()
    bad[4, 1, 7, 0] = np.nan
    expect(checks.prediction(bad, 20, 3, 12) is not None, "prediction fails on one NaN")

    own = checks.own_best_of_m(gt, preds)
    naive = naive_best_of_m(gt, preds)
    expect(np.allclose(own[0], naive[0], rtol=1e-12) and np.allclose(own[1], naive[1], rtol=1e-12),
           "own best-of-m agrees with a plain loop")
    prog = per_agent_best_metrics(gt, preds)
    expect(checks.metrics_agree(own, (prog["ade"], prog["fde"])) is None, "metrics agree")
    off = prog["ade"].copy()
    off[1] *= 1.0 + 1e-9
    expect(checks.metrics_agree(own, (off, prog["fde"])) is not None,
           "metrics fail on one ADE off by 1e-9")

    offset = np.array([3.0, -2.0])
    expect(checks.shift(preds, preds + offset, offset) is None, "shift passes")
    moved = preds + offset
    moved[0, 2, 5, 1] += 1e-5
    expect(checks.shift(preds, moved, offset) is not None, "shift fails on one entry off by 1e-5")

    expect(checks.reverse(preds, preds[:, ::-1]) is None, "reverse passes")
    flipped = preds[:, ::-1].copy()
    flipped[3, 0, 0, 0] += 1e-5
    expect(checks.reverse(preds, flipped) is not None, "reverse fails on one entry off by 1e-5")

    expect(checks.count("n_agents", 96, 96) is None, "count passes")
    expect(checks.count("n_agents", 95, 96) is not None, "count fails when off by one")

    curve = [(e, i, 1.0, 0.5, 0.9) for e in range(2) for i in range(2)]
    expect(checks.loss_rows(curve, 2, 12, 6) is None, "loss rows pass")
    expect(checks.loss_rows(curve[:3], 2, 12, 6) is not None, "loss rows fail on a missing row")
    expect(checks.loss_rows(curve[:3] + [(1, 3, float("inf"), 0.5, 0.9)], 2, 12, 6) is not None,
           "loss rows fail on one non-finite loss")

    params = {"a": rng.normal(size=(4, 4)), "b": rng.normal(size=4)}
    twin = {k: v.copy() for k, v in params.items()}
    expect(checks.bitwise_equal("params", params, twin) is None, "bitwise equality passes")
    twin["a"][2, 3] = np.nextafter(twin["a"][2, 3], np.inf)
    expect(checks.bitwise_equal("params", params, twin) is not None,
           "bitwise equality fails on one ulp")

    expect(checks.directional(1.25, 1.25 * (1 + 1e-9))[1] is None, "gradient check passes")
    expect(checks.directional(1.25, 1.25 * (1 + 1e-4))[1] is not None,
           "gradient check fails at a relative 1e-4")


def empty_directory(bench):
    runs = os.path.join(ROOT, ".perfbench_runs")
    os.makedirs(runs, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=runs)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        cmd = bench["command"] + ["--workload", bench["workloads"][0]["name"], "--seed", "1",
                                  "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=170)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               f"without the program: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    wrong_values()
    empty_directory(bench)
    run_workloads(bench)
    if FAILURES:
        sys.exit(f"{len(FAILURES)} smoke check(s) failed")
    print("smoke test passed")


if __name__ == "__main__":
    main()
