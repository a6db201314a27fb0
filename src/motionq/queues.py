"""Fixed-length queues of hidden and cell features, held as arrays.

A scene's queues are two (n, q, h) arrays: for each of the n agents, its
last q hidden vectors and its last q cell vectors, oldest first.
"""

from __future__ import annotations

import numpy as np

__all__ = ["push_pop"]


def push_pop(hidden, cell, h_t, c_t):
    """Append each agent's newest (hidden, cell) pair and drop its oldest.

    hidden and cell are (n, q, h), h_t and c_t are (n, h); returns fresh
    (n, q, h) arrays and leaves the inputs as they are.
    """
    h_t = np.asarray(h_t, dtype=np.float64)
    c_t = np.asarray(c_t, dtype=np.float64)
    if hidden.ndim != 3 or hidden.shape != cell.shape or min(hidden.shape) < 1:
        raise ValueError(f"queues must be matching non-empty (n, q, h), got {hidden.shape} and {cell.shape}")
    n, _, h = hidden.shape
    if h_t.shape != (n, h) or c_t.shape != (n, h):
        raise ValueError(f"pushed arrays must be ({n}, {h}), got {h_t.shape} and {c_t.shape}")
    return (np.concatenate([hidden[:, 1:], h_t[:, None]], axis=1),
            np.concatenate([cell[:, 1:], c_t[:, None]], axis=1))
