"""Training losses and evaluation metrics, as array operations.

Losses: a margin-based cosine coherence regularizer over same-agent hidden
features (pairs closer than the queue length are pulled together, pairs
further apart are pushed below a margin), every sampled pair scored by one
row-wise cosine, and Social GAN's best-of-m variety loss, the L2 error of
each agent's whole predicted trajectory against its ground truth, minimised
over the m samples. Metrics: ADE, FDE and the temporal correlation
coefficient (mean Pearson correlation per axis between predicted and true
coordinate sequences), computed for all agents at once, one
MetricsReport aggregation for one scene or many, plus the non-linear
trajectory filter used for hard-subset reports.
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
    "coherence_pairs",
    "coherence_forward",
    "coherence_backward",
    "variety_loss",
    "variety_forward",
    "variety_backward",
    "ade_fde",
    "tcc",
    "best_of_m_metrics",
    "per_agent_best_metrics",
    "aggregate_metrics",
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
        if not self.lam >= 0:
            raise ValueError("lam must be >= 0")
        if not 0.0 <= self.margin <= 1.0:
            raise ValueError("margin must lie in [0, 1]")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.pairs_per_batch < 1:
            raise ValueError("pairs_per_batch must be >= 1")


@dataclass
class MetricsReport:
    ade: float
    fde: float
    tcc: float
    n_agents: int
    per_horizon: dict = field(default_factory=dict)  # frames ahead -> (ade, fde, tcc|None)


# ---------------------------------------------------------------------------
# coherence loss


def coherence_pairs(n, t, cfg, rng):
    """Draw one scene's pairs: (agent, frame, other frame) index arrays of
    pairs_per_batch entries each, drawn at once as the stream one scalar
    draw per value would consume. With t < 2 frames there is no pair: it
    warns, draws nothing and returns empty arrays."""
    if t < 2:
        warnings.warn("coherence loss needs >= 2 frames of features; scoring no pairs")
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    agent, t1, t2 = rng.integers(0, np.tile([n, t, t - 1], cfg.pairs_per_batch)).reshape(-1, 3).T
    return agent, t1, t2 + (t2 >= t1)  # uniform over ordered distinct frame pairs


def coherence_forward(features, q, cfg, pairs):
    """Score sampled feature pairs; returns (value, cache).

    features is (n_agents, n_frames, h), the agents of one scene or of a
    batch's scenes concatenated; pairs is coherence_pairs' (agent, frame,
    other frame), each scene's agents offset to its rows, pairs_per_batch
    per scene. Pairs within the queue length contribute 1 - cos, pairs at or
    beyond it contribute max(0, cos - margin). The value is the mean
    contribution, which is the mean over scenes of each scene's mean; it is
    0 with no cache when there is no pair.
    """
    features = np.asarray(features, dtype=np.float64)
    agent, t1, t2 = pairs
    if agent.size == 0:
        return 0.0, None
    c, da, db = cosine_sim_grad(features[agent, t1], features[agent, t2])
    near = np.abs(t1 - t2) < q
    hinge = c - cfg.margin
    terms = np.where(near, 1.0 - c, np.where(hinge > 0, hinge, 0.0))
    scale = np.where(near, -1.0, np.where(hinge > 0, 1.0, 0.0))
    value = float(terms.sum() / terms.size)
    return value, (agent, t1, t2, scale, da, db)


def coherence_backward(cache, d_value, features_grad):
    """Accumulate d(value)/d(features) into features_grad, shape (n, t, h)."""
    if cache is None:
        return
    agent, t1, t2, scale, da, db = cache
    live = scale != 0.0
    coef = (d_value / scale.size * scale[live])[:, None]
    rows = np.stack([t1[live], t2[live]], axis=1).reshape(-1)
    grads = np.stack([coef * da[live], coef * db[live]], axis=1).reshape(-1, da.shape[1])
    np.add.at(features_grad, (np.repeat(agent[live], 2), rows), grads)


def coherence_loss(features, q, cfg, rng):
    """Mean pair contribution of one scene per the sampling rule above
    (forward only)."""
    n, t = np.shape(features)[:2]
    value, _ = coherence_forward(features, q, cfg, coherence_pairs(n, t, cfg, rng))
    return value


# ---------------------------------------------------------------------------
# variety loss


def variety_forward(gt, preds, counts=None):
    """Best-of-m trajectory error; returns (value, cache).

    gt is (n_agents, t, 2); preds is (m, n_agents, t, 2). A sample's error
    for an agent is the L2 norm of its whole (t, 2) trajectory difference.
    Each agent selects its own best sample. counts, the agents of each
    scene when a batch's scenes are concatenated along the agent axis
    (default: one scene), splits the agents; the value is the mean over
    scenes of the mean over each scene's agents of that minimum.
    """
    gt = np.asarray(gt, dtype=np.float64)
    preds = np.asarray(preds, dtype=np.float64)
    if preds.ndim != 4 or preds.shape[1:] != gt.shape:
        raise ValueError(f"prediction set {preds.shape} does not align with ground truth {gt.shape}")
    n = gt.shape[0]
    counts = np.array([n] if counts is None else counts)
    if counts.sum() != n:
        raise ValueError(f"scene agent counts {counts.tolist()} do not sum to {n} agents")
    errs = np.sqrt(((preds - gt[None]) ** 2).sum(axis=(2, 3)))  # (m, n)
    best = errs.argmin(axis=0)                                  # (n,)
    err = errs[best, np.arange(n)]
    ends = np.cumsum(counts)
    value = float(np.mean([err[end - k:end].mean() for k, end in zip(counts, ends)]))
    # each agent's weight in the value is 1 / (scenes x its scene's agents)
    scale = np.repeat(len(counts) * counts, counts)
    return value, (gt, preds, err, best, scale)


def variety_backward(cache, d_value):
    """d(value)/d(preds), nonzero only along each agent's best sample (and
    zero for an agent whose best error is exactly 0)."""
    gt, preds, err, best, scale = cache
    agents = np.arange(gt.shape[0])
    hit = err > 0
    d_preds = np.zeros_like(preds)
    d_preds[best[hit], agents[hit]] = (
        d_value * (preds[best, agents] - gt)[hit] / (err[hit] * scale[hit])[:, None, None])
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


def _as_pair(gt, pred):
    gt, pred = _as_batch(gt), _as_batch(pred)
    if gt.shape != pred.shape:
        raise ValueError(f"shape mismatch: {gt.shape} vs {pred.shape}")
    return gt, pred


def ade_fde(gt, pred):
    """Average and final L2 distance between prediction and ground truth.

    ADE averages the per-frame distance over all agents and frames; FDE
    averages the last-frame distance over agents.
    """
    gt, pred = _as_pair(gt, pred)
    if gt.shape[1] == 0:
        raise ValueError("empty trajectories")
    dist = np.linalg.norm(pred - gt, axis=2)
    return float(dist.mean()), float(dist[:, -1].mean())


def _by_axis(traj):
    """(n, t, 2) trajectories as a contiguous (n, 2, t) array: reductions over
    time then run along the last axis, summing each sequence as they would
    sum it alone."""
    return np.ascontiguousarray(traj.transpose(0, 2, 1))


def _pearson(a, b):
    """Pearson correlation along the last axis of two equal-shape arrays;
    0 where either sequence is stationary (no correlation signal)."""
    da = a - a.mean(axis=-1, keepdims=True)
    db = b - b.mean(axis=-1, keepdims=True)
    va = (da * da).mean(axis=-1)
    vb = (db * db).mean(axis=-1)
    flat = (va < TCC_VAR_EPS) | (vb < TCC_VAR_EPS)
    r = (da * db).mean(axis=-1) / np.sqrt(np.where(flat, 1.0, va * vb))
    return np.where(flat, 0.0, r)


def tcc(gt, pred):
    """Temporal correlation coefficient in [-1, 1].

    Per agent and per axis, the Pearson correlation between the predicted and
    true coordinate sequences over the prediction horizon; axis scores average
    over agents, and the final value averages the two axes.
    """
    gt, pred = _as_pair(gt, pred)
    if gt.shape[1] < 2:
        raise ValueError("temporal correlation needs a horizon of >= 2 frames")
    r = _pearson(_by_axis(pred), _by_axis(gt))  # (n, 2)
    return float(0.5 * (r[:, 0].mean() + r[:, 1].mean()))


def per_agent_best_metrics(gt, preds, horizons=()):
    """Per-agent metrics of each agent's minimum-ADE sample.

    gt is (n, t, 2) with t >= 2, preds (m, n, t, 2). Returns a dict of 1-D
    arrays over agents: ade, fde, tcc, plus optional per-horizon prefix
    metrics keyed by frames-ahead (tcc entries are NaN below a 2-frame
    horizon).
    """
    gt = _as_batch(gt)
    preds = np.asarray(preds, dtype=np.float64)
    if preds.ndim != 4 or preds.shape[1:] != gt.shape:
        raise ValueError(f"prediction set {preds.shape} does not align with ground truth {gt.shape}")
    n, t = gt.shape[0], gt.shape[1]
    if t < 2:
        raise ValueError("temporal correlation needs a horizon of >= 2 frames")
    dist = np.linalg.norm(preds - gt[None], axis=3)  # (m, n, t)
    best = dist.mean(axis=2).argmin(axis=0)          # (n,)
    chosen_dist = dist[best, np.arange(n)]           # (n, t)
    truth, chosen = _by_axis(gt), _by_axis(preds[best, np.arange(n)])  # (n, 2, t)

    def agent_tcc(k):
        r = _pearson(chosen[..., :k], truth[..., :k])
        return 0.5 * (r[:, 0] + r[:, 1])

    out = {
        "ade": chosen_dist.mean(axis=1),
        "fde": chosen_dist[:, -1],
        "tcc": agent_tcc(t),
        "best": best,
    }
    out["horizons"] = {
        k: {
            "ade": chosen_dist[:, :k].mean(axis=1),
            "fde": chosen_dist[:, k - 1],
            "tcc": agent_tcc(k) if k >= 2 else np.full(n, np.nan),
        }
        for k in horizons if 1 <= k <= t
    }
    return out


def aggregate_metrics(stats):
    """MetricsReport of a list of per_agent_best_metrics results.

    Every metric averages over all agents of all entries, in order; a
    horizon averages over the entries that reach it, and its tcc is None
    when no agent has one.
    """
    if not stats:
        raise ValueError("no agents to evaluate")

    def mean(vals):
        return float(np.concatenate(vals).mean())

    per_h = {}
    for k in dict.fromkeys(k for s in stats for k in s["horizons"]):
        hz = [s["horizons"][k] for s in stats if k in s["horizons"]]
        t_vals = np.concatenate([h["tcc"] for h in hz])
        t_vals = t_vals[~np.isnan(t_vals)]
        per_h[k] = (mean([h["ade"] for h in hz]), mean([h["fde"] for h in hz]),
                    float(t_vals.mean()) if t_vals.size else None)
    return MetricsReport(*(mean([s[key] for s in stats]) for key in ("ade", "fde", "tcc")),
                         n_agents=sum(s["ade"].size for s in stats), per_horizon=per_h)


def best_of_m_metrics(gt, preds, m=None, horizons=()):
    """aggregate_metrics of one per_agent_best_metrics result.

    m, when given, restricts the selection to the first m samples.
    """
    preds = np.asarray(preds, dtype=np.float64)
    if m is not None:
        if not 1 <= m <= preds.shape[0]:
            raise ValueError(f"m={m} outside the sample count {preds.shape[0]}")
        preds = preds[:m]
    return aggregate_metrics([per_agent_best_metrics(gt, preds, horizons=horizons)])


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
