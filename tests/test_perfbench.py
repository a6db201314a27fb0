"""The benchmark's smoke run as a unit test.

`perfbench/smoke.py` runs every workload at tiny sizes, untraced and traced,
and requires a numeric value for every metric `BENCHMARK.json` lists. A
program change that removes a call boundary the benchmark's tracer wraps
makes a per-layer metric read absent, and so fails here.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke_exits_zero():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "smoke.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
