"""Output checks. Each compares the program's outputs against a computation
made here, apart from the program, or against a property the method must
have; none compares against a stored copy of earlier output.

Every check returns None when it passes and a one-line reason when it fails,
so `smoke.py` can show that each one fails on a single wrong value.
"""

from __future__ import annotations

import math

import numpy as np

SHIFT_TOL = 1e-6      # world units; near the signed-normaliser pole rounding is amplified
REVERSE_TOL = 1e-6    # world units; agent order changes only summation order
METRIC_RTOL = 1e-12   # same predictions, same formula: only summation order differs
GRAD_RTOL = 1e-5      # turning windows agree to < 5e-7, bar sharp curvature (see GRAD_STEPS)
GRAD_STEPS = (1e-6, 1e-7)  # central-difference steps, tried in turn


def own_best_of_m(gt, preds):
    """Per-agent best-of-m (ADE, FDE): each agent keeps the sample with the
    smallest mean L2 error over the horizon; FDE is that sample's last error.
    gt is (n, t, 2), preds (m, n, t, 2)."""
    err = np.sqrt(((preds - gt[None]) ** 2).sum(axis=3))   # (m, n, t)
    ade = err.mean(axis=2)                                  # (m, n)
    best = ade.argmin(axis=0)
    agents = np.arange(gt.shape[0])
    return ade[best, agents], err[best, agents, -1]


def prediction(preds, m, n, steps):
    if preds.shape != (m, n, steps, 2):
        return f"predict shape {preds.shape}, expected {(m, n, steps, 2)}"
    if not np.all(np.isfinite(preds)):
        return "predict returned non-finite positions"
    return None


def metrics_agree(own, program):
    """own and program: (ade, fde) per-agent arrays for the same predictions."""
    for name, a, b in zip(("ade", "fde"), own, program):
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.shape != b.shape:
            return f"{name} shape {b.shape} from the program, {a.shape} here"
        gap = np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-300), initial=0.0)
        if not gap <= METRIC_RTOL:
            return f"{name} differs from the program's by a relative {gap:.2e}"
    return None


def shift(preds, preds_shifted, offset):
    gap = float(np.max(np.abs(preds_shifted - np.asarray(offset) - preds)))
    if not gap <= SHIFT_TOL:
        return f"shifted window predicts positions off by {gap:.2e} after removing the offset"
    return None


def reverse(preds, preds_reversed):
    gap = float(np.max(np.abs(preds_reversed[:, ::-1] - preds)))
    if not gap <= REVERSE_TOL:
        return f"reversed agent order changes predictions by {gap:.2e}"
    return None


def count(name, reported, expected):
    if reported != expected:
        return f"{name} is {reported}, expected {expected}"
    return None


def loss_rows(curve, epochs, scenes, batch):
    expected = epochs * math.ceil(scenes / batch)
    if len(curve) != expected:
        return f"{len(curve)} loss rows, expected {expected}"
    for row in curve:
        if not all(math.isfinite(v) for v in row[2:]):
            return f"non-finite loss row {row}"
    return None


def bitwise_equal(what, a, b):
    """a, b: dicts of name -> array, or two arrays."""
    if isinstance(a, dict):
        if set(a) != set(b):
            return f"{what}: names differ"
        for name in a:
            reason = bitwise_equal(f"{what} {name}", a[name], b[name])
            if reason:
                return reason
        return None
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype or a.tobytes() != b.tobytes():
        return f"{what}: not bitwise equal"
    return None


def directional(analytic, numeric):
    """Relative disagreement of an analytic and a central-difference
    directional derivative; returns (relative error, reason or None)."""
    rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
    if not rel <= GRAD_RTOL:
        return rel, (f"directional derivative {analytic:.6e} vs finite difference "
                     f"{numeric:.6e} (relative {rel:.2e})")
    return rel, None
