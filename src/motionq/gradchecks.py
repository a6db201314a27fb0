"""Finite-difference verification of every hand-derived backward pass.

Each check builds a micro-sized instance (small widths, small maps) so the
central-difference sweep over every parameter entry stays fast, runs a scalar
loss through forward+backward, and reports the worst relative error, each
entry's scale floored at the central difference's rounding noise (see
numkit.grad_check). All checks run in float64; the accepted bound is 1e-4.
"""

from __future__ import annotations

import numpy as np

from .cell import CellParams, cell_forward, cell_backward
from .data import synth_scene
from .model import DecoderParams, ModelConfig, MotionModel
from .numkit import ParamStore, Rng, grad_check
from .objectives import LossConfig
from .scene import SceneEncoderParams, SemanticMap, encode_scene, encode_scene_backward
from .social import SocialParams, refine_forward, refine_backward

BOUND = 1e-4
EPS = 1e-5


def check_cell(n=3, q=3, h=8, seed=0):
    """Loss = sum over agents of w_i * (|h_i|^2 + |c_i|^2) for one gated step
    of n agents, so each agent gets its own upstream gradient.

    The inputs m_t and the hidden and cell queues sit in the store beside the
    parameters, so the sweep also covers the returned input gradients.
    """
    rng = Rng(seed)
    store = ParamStore()
    params = CellParams(store, rng, d=2, h=h)
    m_t = store.add("input.m", rng.normal((n, 2)))
    hidden = store.add("input.hidden", rng.normal((n, q, h)))
    cell = store.add("input.cell", rng.normal((n, q, h)))
    w = np.arange(1.0, n + 1.0)[:, None]

    def f_value(s):
        h_t, c_t, _ = cell_forward(m_t, hidden, cell, params)
        return float((w * (h_t ** 2 + c_t ** 2)).sum())

    def f(s):
        h_t, c_t, cache = cell_forward(m_t, hidden, cell, params)
        d_m, d_hidden, d_cell = cell_backward(cache, 2.0 * w * h_t, 2.0 * w * c_t, params)
        store.grad("input.m")[...] += d_m
        store.grad("input.hidden")[...] += d_hidden
        store.grad("input.cell")[...] += d_cell
        return f_value(s)

    return grad_check(f, store, eps=EPS, f_value=f_value)


def check_social(n=3, q=2, h=6, seed=0):
    """Loss = squared norm of all refined hidden entries."""
    rng = Rng(seed)
    store = ParamStore()
    params = SocialParams(store, rng, h)
    hidden = rng.normal((n, 2, q, h))[:, 0]  # [:, 1] is unused; it keeps this seed's point

    def f(s):
        refined, cache = refine_forward(hidden, params)
        refine_backward(cache, 2.0 * refined, params)
        return float((refined ** 2).sum())

    def f_value(s):
        refined, _ = refine_forward(hidden, params)
        return float((refined ** 2).sum())

    return grad_check(f, store, eps=EPS, f_value=f_value)


def _micro_scene_encoder(seed=0):
    rng = Rng(seed)
    store = ParamStore()
    cfg = ModelConfig(map_size=28, map_channels=2, conv_channels=(3, 4),
                      conv_kernels=(10, 10, 1), conv_strides=(2, 1, 1), z_dim=3, obs_len=4)
    params = SceneEncoderParams(store, rng, cfg)
    smap = SemanticMap(rng.normal((28, 28, 2)))
    observed = rng.normal((2, 4, 2))
    return store, params, smap, observed


def check_scene(seed=0):
    """Loss = sum(mu^2) + sum(sigma^2) through conv stack and FC head."""
    store, params, smap, observed = _micro_scene_encoder(seed)

    def f(s):
        mu, sigma, cache = encode_scene(smap, observed, params)
        encode_scene_backward(cache, 2.0 * mu, 2.0 * sigma, params)
        return float(mu @ mu + sigma @ sigma)

    def f_value(s):
        mu, sigma, _ = encode_scene(smap, observed, params)
        return float(mu @ mu + sigma @ sigma)

    return grad_check(f, store, eps=EPS, f_value=f_value)


def check_decoder(seed=0):
    """Loss = squared norm of one winning rollout per agent, out of 3 latent
    samples per agent decoded together, backpropagated through all rows in
    one call with zero upstream gradient off the winners.

    Agents 0 and 2 win with sample 2 and agent 1 with sample 0, so sample 1
    gets no gradient and sample 2's latent gradient sums over two agents.
    The decoder's parameters and its inputs h_obs and z sit in a store of
    their own, which the sweep covers entry by entry.
    """
    n, m, z_dim = 3, 3, 3
    cfg = ModelConfig(h=8, q=2, dec_h=8, obs_len=4, pred_len=3,
                      use_social=False, use_latent=False)
    rng = Rng(seed)
    model = MotionModel(cfg, rng)
    store = ParamStore()
    model.decoder = DecoderParams(store, rng, h_enc=cfg.h, z_dim=z_dim, dec_h=cfg.dec_h)
    h_obs = store.add("input.h_obs", rng.normal((n, cfg.h)))
    z = store.add("input.z", rng.normal((m, z_dim)))
    last_pos = rng.normal((n, 2))
    last_disp = rng.normal((n, 2))
    winners = ((0, 2), (1, 0), (2, 2))  # (agent, sample)

    def f(s):
        pos, cache = model.decode(h_obs, z, 3, last_pos, last_disp, want_cache=True)
        d_pos = np.zeros_like(pos)
        for i, k in winners:
            d_pos[k, i] = 2.0 * pos[k, i]
        d_h, d_z = model._decode_backward_agent(cache, d_pos)
        store.grad("input.h_obs")[...] += d_h
        store.grad("input.z")[...] += d_z
        return sum(float((pos[k, i] ** 2).sum()) for i, k in winners)

    def f_value(s):
        pos, _ = model.decode(h_obs, z, 3, last_pos, last_disp)
        return sum(float((pos[k, i] ** 2).sum()) for i, k in winners)

    return grad_check(f, store, eps=EPS, f_value=f_value)


def micro_model_and_scene(seed=0, use_social=True, use_latent=True):
    """2-agent, 4+3-frame scene and a matching micro model for end-to-end checks.

    Every parameter gets extra noise so the sweep runs at a generic point:
    with the pristine zero-bias init the first frame's features are exactly
    the zero vector (the first displacement is (0, 0) by construction), which
    parks the loss on the cosine guard's non-differentiable point.
    """
    cfg = ModelConfig(h=8, q=2, z_dim=3, dec_h=8, obs_len=4, pred_len=3,
                      use_social=use_social, use_latent=use_latent,
                      map_size=28, map_channels=2, conv_channels=(3, 4),
                      conv_kernels=(10, 10, 1), conv_strides=(2, 1, 1))
    model = MotionModel(cfg, Rng(seed))
    noise_rng = Rng(seed + 50)
    for name in model.store.names():
        val = model.store.value(name)
        val += 0.4 * noise_rng.normal(val.shape)
    data_rng = Rng(seed + 100)
    scene = synth_scene("turning", 2, data_rng, noise=0.05, map_size=28,
                        obs_len=4, pred_len=3)
    return model, scene


def check_full(seed=0):
    """grad check of lam * coherence + variety through the whole model."""
    model, scene = micro_model_and_scene(seed)
    loss_cfg = LossConfig(lam=0.1, margin=0.5, m=2, pairs_per_batch=8)

    def f(s):
        return model.loss_and_grad(scene, loss_cfg, Rng(777))["total"]

    def f_value(s):
        return model.loss(scene, loss_cfg, Rng(777))["total"]

    return grad_check(f, model.store, eps=EPS, f_value=f_value)


CHECKS = {
    "cell": check_cell,
    "social": check_social,
    "scene": check_scene,
    "decoder": check_decoder,
    "full": check_full,
}


def run(module="full"):
    """Run one named check (or the named module); returns [(name, err, bound)]."""
    names = [module] if module != "full" else list(CHECKS)
    return [(name, CHECKS[name](), BOUND) for name in names]
