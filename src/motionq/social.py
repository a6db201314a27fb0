"""Social refinement of the hidden feature queues.

Each agent's queued hidden vector at frame offset s is replaced by a residual
sum over the same-offset entries of every agent in the scene, itself
included, weighted by a learned pairwise relation score:

    rel(x_i, x_j) = (W_theta x_i) . (W_phi x_j)
    x_i <- x_i + (1/Z_i) * sum_j rel(x_i, x_j) * (W_g x_j),   Z_i = sum_j rel(x_i, x_j)

Only the (n, q, h) hidden array is refined; cell queues are not an input.
The raw relation scores can sum to zero or a negative value; when
|Z| < z_eps the refinement for that (agent, slot) is skipped and the entry
kept as-is. A softmax weighting over the scores is
available behind relation_mode="softmax".
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SocialParams",
    "relation",
    "refine_forward",
    "refine_backward",
]

Z_EPS = 1e-8


class SocialParams:
    """The three square relation/transform matrices, width h."""

    def __init__(self, store, rng, h, prefix="social"):
        self.h = h
        bound = 1.0 / np.sqrt(h)
        self.W_theta = store.add(f"{prefix}.W_theta", rng.uniform(-bound, bound, (h, h)))
        self.W_phi = store.add(f"{prefix}.W_phi", rng.uniform(-bound, bound, (h, h)))
        self.W_g = store.add(f"{prefix}.W_g", rng.uniform(-bound, bound, (h, h)))
        self.dW_theta = store.grad(f"{prefix}.W_theta")
        self.dW_phi = store.grad(f"{prefix}.W_phi")
        self.dW_g = store.grad(f"{prefix}.W_g")


def relation(h_i, h_j, params):
    """Pairwise relation score (W_theta h_i) . (W_phi h_j)."""
    h_i = np.asarray(h_i, dtype=np.float64)
    h_j = np.asarray(h_j, dtype=np.float64)
    if h_i.shape != (params.h,) or h_j.shape != (params.h,):
        raise ValueError(f"relation expects width-{params.h} vectors, got {h_i.shape} and {h_j.shape}")
    return float((params.W_theta @ h_i) @ (params.W_phi @ h_j))


class RefineCache:
    __slots__ = ("params", "X", "T", "P", "G", "per_agent", "mode", "used")

    def __init__(self, params, X, T, P, G, per_agent, mode):
        self.params = params
        self.X = X
        self.T = T
        self.P = P
        self.G = G
        self.per_agent = per_agent
        self.mode = mode
        self.used = False


def refine_forward(hidden, params, mode="signed", z_eps=Z_EPS):
    """Refine the (n, q, h) hidden queues; returns (refined copy, cache for backward).

    All reads use the pre-refinement input (no sequential aliasing), which is
    left as it is, and each slot offset is refined independently of the
    others.
    """
    X = np.asarray(hidden, dtype=np.float64)
    if X.ndim != 3 or X.shape[2] != params.h:
        raise ValueError(f"hidden queues must be (n, q, {params.h}), got {X.shape}")
    n, q, h = X.shape

    refined = X.copy()
    Ts = np.empty((q, n, h))
    Ps = np.empty((q, n, h))
    Gs = np.empty((q, n, h))
    per_agent = []  # per slot: list of (weights | None, Z) per agent
    for s in range(q):
        Xs = X[:, s]
        T = Xs @ params.W_theta.T
        P = Xs @ params.W_phi.T
        G = Xs @ params.W_g.T
        Ts[s], Ps[s], Gs[s] = T, P, G
        slot_info = []
        for i in range(n):
            r = P @ T[i]
            if mode == "signed":
                z = float(r.sum())
                if abs(z) < z_eps:
                    slot_info.append((None, z))
                    continue
                w = r / z
            elif mode == "softmax":
                e = np.exp(r - r.max())
                z = float(e.sum())
                w = e / z
            else:
                raise ValueError(f"unknown relation mode: {mode}")
            refined[i, s] = Xs[i] + w @ G
            slot_info.append((w, z))
        per_agent.append(slot_info)

    cache = RefineCache(params, X, Ts, Ps, Gs, per_agent, mode)
    return refined, cache


def refine_backward(cache, d_hidden_out, params):
    """Gradients of the refinement w.r.t. the pre-refinement hidden queues.

    d_hidden_out is (n, q, h) aligned with the refined queues. Accumulates
    into the W_theta / W_phi / W_g gradient slots and returns the (n, q, h)
    gradient for the input queues. Cells are not refined, so their
    gradients need no backward here.
    """
    if cache.used:
        raise ValueError("stale cache: backward already consumed this refinement")
    if cache.params is not params:
        raise ValueError("cache does not belong to these parameters")
    cache.used = True

    X = cache.X
    n, q, h = X.shape
    d_hidden_out = np.asarray(d_hidden_out, dtype=np.float64)
    d_in = np.zeros_like(X)

    for s in range(q):
        Xs = X[:, s]
        T, P, G = cache.T[s], cache.P[s], cache.G[s]
        dX = d_hidden_out[:, s].copy()  # residual path
        dT = np.zeros((n, h))
        dP = np.zeros((n, h))
        dG = np.zeros((n, h))
        for i in range(n):
            w, z = cache.per_agent[s][i]
            if w is None:
                continue  # refinement was skipped; identity gradient only
            dy = d_hidden_out[i, s]
            dw = G @ dy
            dG += np.outer(w, dy)
            if cache.mode == "signed":
                dr = (dw - np.dot(w, dw)) / z
            else:
                dr = w * (dw - np.dot(w, dw))
            dT[i] += dr @ P
            dP += np.outer(dr, T[i])
        params.dW_theta += dT.T @ Xs
        params.dW_phi += dP.T @ Xs
        params.dW_g += dG.T @ Xs
        dX += dT @ params.W_theta
        dX += dP @ params.W_phi
        dX += dG @ params.W_g
        d_in[:, s] = dX
    return d_in
