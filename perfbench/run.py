"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload train_turning_m20 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from `src/`. With
--trace 0 the result holds every end-to-end metric of BENCHMARK.json, with
--trace 1 every per-layer metric (from a separate, traced run). Inputs and
run outputs go under `.perfbench_runs/`; the inputs are removed at the end,
the spans of a traced run are kept. Diagnostics go to standard error.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

sys.dont_write_bytecode = True  # every run imports from source, as the first one does
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small windows and one cycle (smoke test)")
    return parser.parse_args(argv)


def import_program():
    """Import motionq from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "motionq", "__init__.py")):
        sys.exit(f"perfbench: no program to measure: {src}/motionq is missing")
    sys.path.insert(0, src)
    import motionq

    if os.path.dirname(os.path.dirname(os.path.abspath(motionq.__file__))) != src:
        sys.exit(f"perfbench: motionq was imported from {motionq.__file__}, not {src}")


def main(argv=None):
    import_program()
    import tracing  # the benchmark's own modules, next to this file
    import workloads

    args = parse_args(argv, list(workloads.SPECS))
    tracer = tracing.Tracer() if args.trace else None
    runs = os.path.join(ROOT, ".perfbench_runs")
    workdir = os.path.join(runs, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workdir)
    try:
        work = workloads.Workload(args.workload, args.seed, args.seconds, tracer, workdir,
                                  tiny=args.tiny)
        work.setup()
        setup_s = time.perf_counter() - PROCESS_START  # wall clock: one cold set-up
        work.measure()
        # before the checks, whose extra model and windows are not measured work
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        work.check()
        if tracer is None:
            wall = work.end_to_end(setup_s, peak_rss_mb, wall=True)
            print("perfbench: wall clock: " + ", ".join(f"{k} {v:.6g}" for k, (v, _) in
                                                       wall.items()), file=sys.stderr)
            metrics = work.end_to_end(setup_s, peak_rss_mb)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        else:
            primary = work.primary()
            metrics = tracing.layer_metrics(
                tracer, primary, work.traced_scenes(primary), work.traced_scenes("evaluate"),
                *work.overhead(primary))
            spans = os.path.join(runs, f"spans-{args.workload}-s{args.seed}.tsv")
            tracer.write(spans)
            print(f"perfbench: {len(tracer.spans)} spans written to {spans}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for kind, items in work.samples.items():
        if items:
            repeats = [len(times) for times in items.values()]
            print(f"perfbench: {kind}: {len(items)} items timed {min(repeats)}-{max(repeats)} "
                  f"times each", file=sys.stderr)
    led = work.ledger
    for reason in led.errors:
        print(f"perfbench: CHECK FAILED: {reason}", file=sys.stderr)
    for reason in led.known:
        print(f"perfbench: known fault: {reason}", file=sys.stderr)
    print(json.dumps({"correct": not led.errors, "attempted": led.attempted,
                      "failed": led.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
