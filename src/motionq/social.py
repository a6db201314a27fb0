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
    __slots__ = ("params", "X", "layout", "T", "P", "G", "W", "used")

    def __init__(self, params, X, layout, T, P, G, W):
        self.params = params
        self.X = X
        self.layout = layout
        self.T = T
        self.P = P
        self.G = G
        self.W = W
        self.used = False


def _scene_layout(n, counts):
    """(scenes, n_max, rows, live) of n agent rows split into scenes of
    `counts` agents: rows and live are None when every scene has n_max
    agents, and otherwise index each agent's (scene, place) and mark the
    (scene, place) entries that hold an agent."""
    counts = [n] if counts is None else [int(k) for k in counts]
    if sum(counts) != n or min(counts) < 1:
        raise ValueError(f"scene agent counts {counts} do not split {n} agents")
    n_max = max(counts)
    if min(counts) == n_max:
        return len(counts), n_max, None, None
    counts = np.array(counts)
    scene = np.repeat(np.arange(len(counts)), counts)
    place = np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts)
    return len(counts), n_max, (scene, place), np.arange(n_max) < counts[:, None]


def _by_scene(X, layout):
    """(n, q, h) agent rows as a (scenes, q, n_max, h) array, zero where a
    scene has no agent."""
    scenes, n_max, rows, _ = layout
    n, q, h = X.shape
    if rows is None:
        return X.reshape(scenes, n_max, q, h).transpose(0, 2, 1, 3)
    padded = np.zeros((scenes, n_max, q, h))
    padded[rows] = X
    return padded.transpose(0, 2, 1, 3)


def _by_agent(Y, layout):
    """The (n, q, h) agent rows of a (scenes, q, n_max, h) array."""
    scenes, n_max, rows, _ = layout
    Y = Y.transpose(0, 2, 1, 3)
    return np.ascontiguousarray(Y.reshape(scenes * n_max, *Y.shape[2:]) if rows is None
                                else Y[rows])


def refine_forward(hidden, params, counts=None):
    """Refine the (n, q, h) hidden queues; returns (refined copy, cache for backward).

    counts, the agents of each scene when a batch's scenes are concatenated
    along the agent axis (default: one scene), keeps every relation inside
    its scene: the scenes are refined as one (scenes, q, n_max, n_max)
    product, and when their agent counts differ the scores of absent agents
    are masked out of the softmax. All reads use the pre-refinement input
    (no sequential aliasing), which is left as it is, and each slot offset
    is refined independently of the others.
    """
    X = np.asarray(hidden, dtype=np.float64)
    if X.ndim != 3 or X.shape[2] != params.h:
        raise ValueError(f"hidden queues must be (n, q, {params.h}), got {X.shape}")
    layout = _scene_layout(X.shape[0], counts)
    Xs = _by_scene(X, layout)  # one (scene, slot) per leading index pair
    T = Xs @ params.W_theta.T
    P = Xs @ params.W_phi.T
    G = Xs @ params.W_g.T
    R = T @ P.swapaxes(-1, -2)  # R[b, s, i, j] = rel(x_i, x_j) at offset s of scene b
    live = layout[3]
    if live is not None:
        R = np.where(live[:, None, None, :], R, -np.inf)
    E = np.exp(R - R.max(axis=-1, keepdims=True))
    W = E / E.sum(axis=-1, keepdims=True)
    refined = _by_agent(Xs + W @ G, layout)
    return refined, RefineCache(params, Xs, layout, T, P, G, W)


def refine_backward(cache, d_hidden_out, params):
    """Gradients of the refinement w.r.t. the pre-refinement hidden queues.

    d_hidden_out is (n, q, h) aligned with the refined queues. Accumulates
    into the W_theta / W_phi / W_g gradient slots and returns the (n, q, h)
    gradient for the input queues. Cells are not refined, so their
    gradients need no backward here. Masked scores have zero weight, so
    they pass no gradient.
    """
    if cache.used:
        raise ValueError("stale cache: backward already consumed this refinement")
    if cache.params is not params:
        raise ValueError("cache does not belong to these parameters")
    cache.used = True

    T, P, G, W = cache.T, cache.P, cache.G, cache.W
    dY = _by_scene(np.asarray(d_hidden_out, dtype=np.float64), cache.layout)
    dW = dY @ G.swapaxes(-1, -2)
    dR = W * (dW - (W * dW).sum(axis=-1, keepdims=True))  # softmax Jacobian
    dT = dR @ P
    dP = dR.swapaxes(-1, -2) @ T
    dG = W.swapaxes(-1, -2) @ dY

    h = dY.shape[-1]
    Xs = cache.X.reshape(-1, h)  # every (scene, slot, agent) as one row
    params.dW_theta += dT.reshape(-1, h).T @ Xs
    params.dW_phi += dP.reshape(-1, h).T @ Xs
    params.dW_g += dG.reshape(-1, h).T @ Xs
    dX = dY + dT @ params.W_theta
    dX += dP @ params.W_phi
    dX += dG @ params.W_g
    return _by_agent(dX, cache.layout)
