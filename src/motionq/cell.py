"""Queue-gated recurrent cell.

A tree-style LSTM step whose children are the q queued past frames: the input
gate, output gate and candidate are driven by the mean of the queued hidden
vectors, while each queued cell vector enters the new cell state through its
own forget gate (one shared set of forget weights evaluated against each
queued hidden entry). With q=1 the step reduces exactly to a vanilla LSTM
cell.

All agents of a scene step together: their queues are two (n, q, h) arrays,
and every product below is one matrix product over all agents (for U_f, over
all agents and slots). The model's decoder steps this same cell at q = 1,
where it is the vanilla LSTM.

    g = sigmoid(W_g m + U_g mean(hidden) + b_g)      input gate
    o = sigmoid(W_o m + U_o mean(hidden) + b_o)      output gate
    u = tanh   (W_u m + U_u mean(hidden) + b_u)      candidate
    f_l = sigmoid(W_f m + U_f hidden[l] + b_f)       one forget gate per slot
    c = g*u + sum_l f_l * cell[l]
    h = o * tanh(c)
"""

from __future__ import annotations

import numpy as np

from .numkit import sigmoid

__all__ = ["CellParams", "CellCache", "cell_forward", "cell_backward"]

GATES = ("g", "f", "o", "u")


class CellParams:
    """Gate weights of the queue-gated cell, registered in a ParamStore.

    Weights are uniform in [-1/sqrt(h), 1/sqrt(h)], biases zero except the
    forget bias, which is +1.0 (standard recurrent-cell practice).
    """

    def __init__(self, store, rng, d=2, h=32, prefix="cell"):
        self.d = d
        self.h = h
        bound = 1.0 / np.sqrt(h)
        self.W = {}
        self.U = {}
        self.b = {}
        self.dW = {}
        self.dU = {}
        self.db = {}
        for gate in GATES:
            b = np.ones(h) if gate == "f" else np.zeros(h)
            self.W[gate] = store.add(f"{prefix}.W_{gate}", rng.uniform(-bound, bound, (h, d)))
            self.U[gate] = store.add(f"{prefix}.U_{gate}", rng.uniform(-bound, bound, (h, h)))
            self.b[gate] = store.add(f"{prefix}.b_{gate}", b)
            self.dW[gate] = store.grad(f"{prefix}.W_{gate}")
            self.dU[gate] = store.grad(f"{prefix}.U_{gate}")
            self.db[gate] = store.grad(f"{prefix}.b_{gate}")


class CellCache:
    """Forward intermediates of one step of n agents, kept for one backward
    call: m is (n, d), the queues and the forget gates f are (n, q, h), and
    every other array is (n, h)."""

    __slots__ = ("params", "m", "hidden", "cell", "h_tilde", "g", "o", "u", "f", "tanh_c", "used")

    def __init__(self, params, m, hidden, cell, h_tilde, g, o, u, f, tanh_c):
        self.params = params
        self.m = m
        self.hidden = hidden
        self.cell = cell
        self.h_tilde = h_tilde
        self.g = g
        self.o = o
        self.u = u
        self.f = f
        self.tanh_c = tanh_c
        self.used = False


def cell_forward(m_t, hidden, cell, params):
    """One gated step for n agents; returns (h_t, c_t, cache), h_t and c_t (n, h).

    m_t is (n, d). hidden and cell are (n, q, h) queues with slots indexed
    oldest first, so hidden[:, q-1] is the previous frame. Reads the queues,
    never mutates them.
    """
    m_t = np.asarray(m_t, dtype=np.float64)
    hidden = np.asarray(hidden, dtype=np.float64)
    cell = np.asarray(cell, dtype=np.float64)
    if m_t.ndim != 2 or m_t.shape[1] != params.d:
        raise ValueError(f"inputs must be (n, {params.d}), got {m_t.shape}")
    if hidden.ndim != 3 or hidden.shape != cell.shape or hidden.shape[1] < 1:
        raise ValueError(f"queues must be matching (n, q, h), got {hidden.shape} and {cell.shape}")
    if hidden.shape[0] != m_t.shape[0] or hidden.shape[2] != params.h:
        raise ValueError(f"queues {hidden.shape} do not match {m_t.shape[0]} inputs "
                         f"and cell h={params.h}")
    n, q, h = hidden.shape
    W, U, b = params.W, params.U, params.b
    h_tilde = hidden.mean(axis=1)

    g = sigmoid(m_t @ W["g"].T + h_tilde @ U["g"].T + b["g"])
    o = sigmoid(m_t @ W["o"].T + h_tilde @ U["o"].T + b["o"])
    u = np.tanh(m_t @ W["u"].T + h_tilde @ U["u"].T + b["u"])
    uf_hidden = (hidden.reshape(n * q, h) @ U["f"].T).reshape(n, q, h)
    f = sigmoid((m_t @ W["f"].T)[:, None] + uf_hidden + b["f"])  # one gate per slot
    c_t = g * u + (f * cell).sum(axis=1)
    tanh_c = np.tanh(c_t)
    h_t = o * tanh_c

    cache = CellCache(params, m_t, hidden, cell, h_tilde, g, o, u, f, tanh_c)
    return h_t, c_t, cache


def cell_backward(cache, d_h, d_c, params):
    """Exact reverse-mode gradients of one cell step.

    Given (n, h) upstream gradients for (h_t, c_t), accumulates parameter
    gradients into the ParamStore slots and returns (d_m, d_hidden, d_cell):
    d_m is (n, d) and the queue gradients are (n, q, h), aligned with the
    forward queue slots. Every product is one matrix product over all agents
    (and, for U_f, over all agents and slots). A cache can back a single
    backward call; reuse raises.
    """
    if cache.used:
        raise ValueError("stale cache: backward already consumed this forward pass")
    if cache.params is not params:
        raise ValueError("cache does not belong to these parameters")
    cache.used = True

    H, C, f = cache.hidden, cache.cell, cache.f
    n, q, h = H.shape
    W, U = params.W, params.U
    d_h = np.asarray(d_h, dtype=np.float64)
    d_c = np.asarray(d_c, dtype=np.float64)

    do = d_h * cache.tanh_c
    da_o = do * cache.o * (1.0 - cache.o)
    dc = d_c + d_h * cache.o * (1.0 - cache.tanh_c ** 2)
    dg = dc * cache.u
    da_g = dg * cache.g * (1.0 - cache.g)
    du = dc * cache.g
    da_u = du * (1.0 - cache.u ** 2)
    da_f = (dc[:, None] * C) * f * (1.0 - f)  # (n, q, h), one forget gate per slot
    da_f_sum = da_f.sum(axis=1)
    da_f_rows = da_f.reshape(n * q, h)  # every (agent, slot) pair as one row

    d_htilde = da_g @ U["g"] + da_u @ U["u"] + da_o @ U["o"]
    d_hidden = d_htilde[:, None] * (1.0 / q) + (da_f_rows @ U["f"]).reshape(n, q, h)
    d_cell = dc[:, None] * f
    d_m = da_g @ W["g"] + da_u @ W["u"] + da_o @ W["o"] + da_f_sum @ W["f"]

    for gate, da in (("g", da_g), ("o", da_o), ("u", da_u)):
        params.dW[gate] += da.T @ cache.m
        params.dU[gate] += da.T @ cache.h_tilde
        params.db[gate] += da.sum(axis=0)
    params.dW["f"] += da_f_sum.T @ cache.m
    params.dU["f"] += da_f_rows.T @ H.reshape(n * q, h)
    params.db["f"] += da_f_sum.sum(axis=0)

    return d_m, d_hidden, d_cell
