"""Social refinement of the hidden feature queues.

Each agent's queued hidden vector at frame offset s is replaced by a residual
sum over the same-offset entries of every agent in the scene, itself
included, weighted by a softmax over learned pairwise relation scores:

    rel(x_i, x_j) = (W_theta x_i) . (W_phi x_j)
    x_i <- x_i + sum_j softmax_j(rel(x_i, x_j)) * (W_g x_j)

This is the embedded-Gaussian relation of Non-local Neural Networks (Wang et
al., CVPR 2018), taken over agents at one offset: the weights of each agent
are positive and sum to one, so no score sum can vanish. All (slot, agent)
pairs are refined at once: the projections T, P and G are (q, n, h) arrays,
the scores R = T P^T and weights W are (q, n, n) arrays, and the update is
W G, one matrix product per slot.

Only the (n, q, h) hidden array is refined; cell queues are not an input.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SocialParams",
    "refine_forward",
    "refine_backward",
]


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


class RefineCache:
    __slots__ = ("params", "X", "T", "P", "G", "W", "used")

    def __init__(self, params, X, T, P, G, W):
        self.params = params
        self.X = X
        self.T = T
        self.P = P
        self.G = G
        self.W = W
        self.used = False


def refine_forward(hidden, params):
    """Refine the (n, q, h) hidden queues; returns (refined copy, cache for backward).

    All reads use the pre-refinement input (no sequential aliasing), which is
    left as it is, and each slot offset is refined independently of the
    others.
    """
    X = np.asarray(hidden, dtype=np.float64)
    if X.ndim != 3 or X.shape[2] != params.h:
        raise ValueError(f"hidden queues must be (n, q, {params.h}), got {X.shape}")
    Xs = X.transpose(1, 0, 2)  # (q, n, h): one slot per leading index
    T = Xs @ params.W_theta.T
    P = Xs @ params.W_phi.T
    G = Xs @ params.W_g.T
    R = T @ P.transpose(0, 2, 1)  # R[s, i, j] = rel(x_i, x_j) at offset s
    E = np.exp(R - R.max(axis=2, keepdims=True))
    W = E / E.sum(axis=2, keepdims=True)
    refined = np.ascontiguousarray((Xs + W @ G).transpose(1, 0, 2))
    return refined, RefineCache(params, X, T, P, G, W)


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

    T, P, G, W = cache.T, cache.P, cache.G, cache.W
    dY = np.asarray(d_hidden_out, dtype=np.float64).transpose(1, 0, 2)
    dW = dY @ G.transpose(0, 2, 1)
    dR = W * (dW - (W * dW).sum(axis=2, keepdims=True))  # softmax Jacobian
    dT = dR @ P
    dP = dR.transpose(0, 2, 1) @ T
    dG = W.transpose(0, 2, 1) @ dY

    q, n, h = dY.shape
    Xs = cache.X.transpose(1, 0, 2).reshape(q * n, h)  # every (slot, agent) as one row
    params.dW_theta += dT.reshape(q * n, h).T @ Xs
    params.dW_phi += dP.reshape(q * n, h).T @ Xs
    params.dW_g += dG.reshape(q * n, h).T @ Xs
    dX = dY + dT @ params.W_theta
    dX += dP @ params.W_phi
    dX += dG @ params.W_g
    return np.ascontiguousarray(dX.transpose(1, 0, 2))
