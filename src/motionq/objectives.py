"""Training losses and evaluation metrics.

Losses: a margin-based cosine coherence regularizer over same-agent hidden
features (pairs closer than the queue length are pulled together, pairs
further apart are pushed below a margin) and Social GAN's best-of-m variety
loss, the L2 error of each agent's whole predicted trajectory against its
ground truth, minimised over the m samples. Metrics: ADE, FDE and the temporal correlation
coefficient (mean Pearson correlation per axis between predicted and true
coordinate sequences), plus the non-linear trajectory filter used for
hard-subset reports.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .numkit import cosine_sim_grad

__all__ = [
    "LossConfig",
    "MetricsReport",
    "coherence_loss",
    "coherence_forward",
    "coherence_backward",
    "variety_loss",
    "variety_forward",
    "variety_backward",
    "ade_fde",
    "tcc",
    "best_of_m_metrics",
    "per_agent_best_metrics",
    "nonlinear_filter",
    "format_metrics_report",
]

TCC_VAR_EPS = 1e-12


@dataclass
class LossConfig:
    lam: float = 0.1            # coherence trade-off
    margin: float = 0.5
    m: int = 20                 # variety samples
    pairs_per_batch: int = 64

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if not 0.0 <= self.margin <= 1.0:
            raise ValueError("margin must lie in [0, 1]")
        if self.m < 1:
            raise ValueError("m must be >= 1")


@dataclass
class MetricsReport:
    ade: float
    fde: float
    tcc: float
    n_agents: int
    per_horizon: dict = field(default_factory=dict)  # frames ahead -> (ade, fde, tcc|None)


# ---------------------------------------------------------------------------
# coherence loss


def coherence_forward(features, q, cfg, rng):
    """Sample feature pairs and score them; returns (value, cache).

    features is (n_agents, n_frames, h); every pair is two frames of the same
    agent. Pairs within the queue length contribute 1 - cos, pairs at or
    beyond it contribute max(0, cos - margin).
    """
    features = np.asarray(features, dtype=np.float64)
    n, t, _ = features.shape
    if t < 2:
        warnings.warn("coherence loss needs >= 2 frames of features; returning 0")
        return 0.0, []
    pairs = []
    total = 0.0
    for _ in range(cfg.pairs_per_batch):
        i = int(rng.integers(0, n))
        t1 = int(rng.integers(0, t))
        t2 = int(rng.integers(0, t - 1))
        if t2 >= t1:
            t2 += 1  # uniform over ordered distinct frame pairs
        near = abs(t1 - t2) < q
        c, da, db = cosine_sim_grad(features[i, t1], features[i, t2])
        if near:
            total += 1.0 - c
            scale = -1.0
        else:
            hinge = c - cfg.margin
            total += max(0.0, hinge)
            scale = 1.0 if hinge > 0 else 0.0
        pairs.append((i, t1, t2, scale, da, db))
    value = total / cfg.pairs_per_batch
    return value, pairs


def coherence_backward(cache, d_value, features_grad):
    """Accumulate d(value)/d(features) into features_grad, shape (n, t, h)."""
    if not cache:
        return
    scale = d_value / len(cache)
    for i, t1, t2, s, da, db in cache:
        if s == 0.0:
            continue
        features_grad[i, t1] += scale * s * da
        features_grad[i, t2] += scale * s * db


def coherence_loss(features, q, cfg, rng):
    """Mean pair contribution per the sampling rule above (forward only)."""
    value, _ = coherence_forward(features, q, cfg, rng)
    return value


# ---------------------------------------------------------------------------
# variety loss


def variety_forward(gt, preds):
    """Best-of-m trajectory error; returns (value, cache).

    gt is (n_agents, t, 2); preds is (m, n_agents, t, 2). A sample's error
    for an agent is the L2 norm of its whole (t, 2) trajectory difference.
    Each agent selects its own best sample; the loss is the mean over agents
    of that minimum.
    """
    gt = np.asarray(gt, dtype=np.float64)
    preds = np.asarray(preds, dtype=np.float64)
    if preds.ndim != 4 or preds.shape[1:] != gt.shape:
        raise ValueError(f"prediction set {preds.shape} does not align with ground truth {gt.shape}")
    errs = np.sqrt(((preds - gt[None]) ** 2).sum(axis=(2, 3)))  # (m, n)
    best = errs.argmin(axis=0)                                  # (n,)
    n = gt.shape[0]
    value = float(errs[best, np.arange(n)].mean())
    return value, (gt, preds, errs, best)


def variety_backward(cache, d_value):
    """d(value)/d(preds), nonzero only along each agent's best sample (and
    zero for an agent whose best error is exactly 0)."""
    gt, preds, errs, best = cache
    n = gt.shape[0]
    agents = np.arange(n)
    err = errs[best, agents]
    hit = err > 0
    d_preds = np.zeros_like(preds)
    d_preds[best[hit], agents[hit]] = (
        d_value * (preds[best, agents] - gt)[hit] / (err[hit] * n)[:, None, None])
    return d_preds


def variety_loss(gt, preds):
    """Mean over agents of the minimum-over-samples trajectory error."""
    value, _ = variety_forward(gt, preds)
    return value


# ---------------------------------------------------------------------------
# metrics


def _as_batch(traj):
    traj = np.asarray(traj, dtype=np.float64)
    if traj.ndim == 2:
        traj = traj[None]
    if traj.ndim != 3 or traj.shape[2] != 2:
        raise ValueError(f"trajectories must be (t, 2) or (n, t, 2), got {traj.shape}")
    return traj


def ade_fde(gt, pred):
    """Average and final L2 distance between prediction and ground truth.

    ADE averages the per-frame distance over all agents and frames; FDE
    averages the last-frame distance over agents.
    """
    gt = _as_batch(gt)
    pred = _as_batch(pred)
    if gt.shape != pred.shape:
        raise ValueError(f"shape mismatch: {gt.shape} vs {pred.shape}")
    if gt.shape[1] == 0:
        raise ValueError("empty trajectories")
    dist = np.linalg.norm(pred - gt, axis=2)
    return float(dist.mean()), float(dist[:, -1].mean())


def _pearson(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    da = a - a.mean()
    db = b - b.mean()
    va = (da * da).mean()
    vb = (db * db).mean()
    if va < TCC_VAR_EPS or vb < TCC_VAR_EPS:
        return 0.0  # stationary axis: no correlation signal, contributes 0
    return float((da * db).mean() / np.sqrt(va * vb))


def tcc(gt, pred):
    """Temporal correlation coefficient in [-1, 1].

    Per agent and per axis, the Pearson correlation between the predicted and
    true coordinate sequences over the prediction horizon; axis scores average
    over agents, and the final value averages the two axes.
    """
    gt = _as_batch(gt)
    pred = _as_batch(pred)
    if gt.shape != pred.shape:
        raise ValueError(f"shape mismatch: {gt.shape} vs {pred.shape}")
    if gt.shape[1] < 2:
        raise ValueError("temporal correlation needs a horizon of >= 2 frames")
    n = gt.shape[0]
    tx = np.mean([_pearson(pred[i, :, 0], gt[i, :, 0]) for i in range(n)])
    ty = np.mean([_pearson(pred[i, :, 1], gt[i, :, 1]) for i in range(n)])
    return float(0.5 * (tx + ty))


def per_agent_best_metrics(gt, preds, horizons=()):
    """Per-agent metrics of each agent's minimum-ADE sample.

    gt is (n, t, 2), preds (m, n, t, 2). Returns a dict of 1-D arrays over
    agents: ade, fde, tcc, plus optional per-horizon prefix metrics keyed by
    frames-ahead (tcc entries are NaN below a 2-frame horizon).
    """
    gt = _as_batch(gt)
    preds = np.asarray(preds, dtype=np.float64)
    if preds.ndim != 4 or preds.shape[1:] != gt.shape:
        raise ValueError(f"prediction set {preds.shape} does not align with ground truth {gt.shape}")
    n, t = gt.shape[0], gt.shape[1]
    dist = np.linalg.norm(preds - gt[None], axis=3)  # (m, n, t)
    per_agent_ade = dist.mean(axis=2)                # (m, n)
    best = per_agent_ade.argmin(axis=0)              # (n,)
    agents = np.arange(n)
    chosen = preds[best, agents]                     # (n, t, 2)
    chosen_dist = dist[best, agents]                 # (n, t)
    out = {
        "ade": chosen_dist.mean(axis=1),
        "fde": chosen_dist[:, -1],
        "tcc": np.array([tcc(gt[i], chosen[i]) for i in range(n)]),
        "best": best,
    }
    hz = {}
    for k in horizons:
        if not 1 <= k <= t:
            continue
        hz[k] = {
            "ade": chosen_dist[:, :k].mean(axis=1),
            "fde": chosen_dist[:, k - 1],
            "tcc": (
                np.array([tcc(gt[i, :k], chosen[i, :k]) for i in range(n)])
                if k >= 2 else np.full(n, np.nan)
            ),
        }
    out["horizons"] = hz
    return out


def best_of_m_metrics(gt, preds, m=None, horizons=()):
    """Aggregate per_agent_best_metrics into a MetricsReport.

    m, when given, restricts the selection to the first m samples.
    """
    preds = np.asarray(preds, dtype=np.float64)
    if m is not None:
        if not 1 <= m <= preds.shape[0]:
            raise ValueError(f"m={m} outside the sample count {preds.shape[0]}")
        preds = preds[:m]
    stats = per_agent_best_metrics(gt, preds, horizons=horizons)
    per_h = {}
    for k, vals in stats["horizons"].items():
        t_vals = vals["tcc"]
        per_h[k] = (
            float(vals["ade"].mean()),
            float(vals["fde"].mean()),
            float(np.nanmean(t_vals)) if not np.all(np.isnan(t_vals)) else None,
        )
    return MetricsReport(
        ade=float(stats["ade"].mean()),
        fde=float(stats["fde"].mean()),
        tcc=float(stats["tcc"].mean()),
        n_agents=gt.shape[0] if np.asarray(gt).ndim == 3 else 1,
        per_horizon=per_h,
    )


def nonlinear_filter(traj, threshold=0.1):
    """True when the trajectory deviates from its best-fit line.

    Fits the total-least-squares line (principal axis through the centroid)
    and compares the RMS perpendicular residual against the threshold.
    """
    traj = np.asarray(traj, dtype=np.float64)
    if traj.ndim != 2 or traj.shape[1] != 2:
        raise ValueError(f"trajectory must be (t, 2), got {traj.shape}")
    centered = traj - traj.mean(axis=0)
    cov = centered.T @ centered / traj.shape[0]
    eigvals = np.linalg.eigvalsh(cov)
    rms_perp = float(np.sqrt(max(eigvals[0], 0.0)))
    return rms_perp > threshold


def format_metrics_report(report):
    """Structured text: one ``<metric> <horizon> <value>`` line per entry."""
    lines = ["# metric horizon value"]
    lines.append(f"ade all {report.ade:.6f}")
    lines.append(f"fde all {report.fde:.6f}")
    lines.append(f"tcc all {report.tcc:.6f}")
    lines.append(f"agents all {report.n_agents}")
    for k in sorted(report.per_horizon):
        a, f, t_val = report.per_horizon[k]
        lines.append(f"ade {k} {a:.6f}")
        lines.append(f"fde {k} {f:.6f}")
        if t_val is not None:
            lines.append(f"tcc {k} {t_val:.6f}")
    return "\n".join(lines) + "\n"
