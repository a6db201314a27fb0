"""Scene-conditioned latent head.

A semantic map (H x W x C class-score grid) runs through three convolution
layers (kernel sizes 10, 10, 1; ReLU after the first two) and global average
pooling; the observed displacements, summed over agents and flattened over
time, are linearly embedded to the same width and added element-wise. One
fully-connected layer with sigmoid activation emits 2*z_dim raw outputs that
split into mu and sigma, so sigma lands in (0, 1) and needs no extra guard.
The encoder reads its widths, kernels and strides straight from the
ModelConfig (map_size, map_channels, conv_channels, conv_kernels,
conv_strides, z_dim, obs_len, sigma_bias).

Map file format (text): a header line ``H W C`` followed by H*W*C
whitespace-separated floats in row-major, channel-fastest order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numkit import check_finite, relu, sigmoid

__all__ = [
    "SemanticMap",
    "SceneEncoderParams",
    "encode_scene",
    "encode_scene_backward",
    "sample_latent",
    "save_map",
    "load_map",
]


@dataclass
class SemanticMap:
    """Class-score grid describing the static scene layout."""

    grid: np.ndarray  # (H, W, C)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=np.float64)
        if self.grid.ndim != 3:
            raise ValueError(f"semantic map grid must be (H, W, C), got {self.grid.shape}")
        check_finite(self.grid, "semantic map")


def save_map(path, smap):
    h, w, c = smap.grid.shape
    with open(path, "w") as fh:
        fh.write(f"{h} {w} {c}\n")
        flat = smap.grid.reshape(-1)
        for start in range(0, flat.size, 16):
            fh.write(" ".join(repr(float(v)) for v in flat[start:start + 16]) + "\n")


def load_map(path):
    """Read a file written by save_map; a malformed one raises ValueError naming path."""
    try:
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 3 or not all(x.isdigit() for x in header):
                raise ValueError(f"bad map header {' '.join(header)!r}, expected 'H W C'")
            h, w, c = (int(x) for x in header)
            vals = np.array(fh.read().split(), dtype=np.float64)
        if vals.size != h * w * c:
            raise ValueError(f"expected {h * w * c} values, found {vals.size}")
        return SemanticMap(vals.reshape(h, w, c))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _spatial_sizes(cfg):
    """Spatial side length after each conv layer; validates the chain fits."""
    size = cfg.map_size
    sizes = []
    for k, s in zip(cfg.conv_kernels, cfg.conv_strides):
        if size < k:
            raise ValueError(f"map size {cfg.map_size} too small for kernels "
                             f"{cfg.conv_kernels} / strides {cfg.conv_strides}")
        size = (size - k) // s + 1
        sizes.append(size)
    return sizes


class SceneEncoderParams:
    """Conv kernels, motion embedding and the latent FC head."""

    def __init__(self, store, rng, cfg, prefix="scene"):
        self.cfg = cfg  # a ModelConfig
        _spatial_sizes(cfg)  # fail fast on a bad conv chain
        chain = (cfg.map_channels, *cfg.conv_channels, cfg.z_dim)
        self.conv_W = []
        self.conv_b = []
        self.dconv_W = []
        self.dconv_b = []
        for layer, (k, cin, cout) in enumerate(zip(cfg.conv_kernels, chain[:-1], chain[1:])):
            bound = 1.0 / np.sqrt(k * k * cin)
            name = f"{prefix}.conv{layer}"
            self.conv_W.append(store.add(f"{name}.W", rng.uniform(-bound, bound, (k * k * cin, cout))))
            self.conv_b.append(store.add(f"{name}.b", np.zeros(cout)))
            self.dconv_W.append(store.grad(f"{name}.W"))
            self.dconv_b.append(store.grad(f"{name}.b"))
        motion_in = 2 * cfg.obs_len
        bound = 1.0 / np.sqrt(motion_in)
        self.W_m = store.add(f"{prefix}.W_m", rng.uniform(-bound, bound, (cfg.z_dim, motion_in)))
        self.b_m = store.add(f"{prefix}.b_m", np.zeros(cfg.z_dim))
        bound = 1.0 / np.sqrt(cfg.z_dim)
        self.W_fc = store.add(f"{prefix}.W_fc", rng.uniform(-bound, bound, (2 * cfg.z_dim, cfg.z_dim)))
        b_fc = np.zeros(2 * cfg.z_dim)
        b_fc[cfg.z_dim:] = cfg.sigma_bias
        self.b_fc = store.add(f"{prefix}.b_fc", b_fc)
        self.dW_m = store.grad(f"{prefix}.W_m")
        self.db_m = store.grad(f"{prefix}.b_m")
        self.dW_fc = store.grad(f"{prefix}.W_fc")
        self.db_fc = store.grad(f"{prefix}.b_fc")


def _im2col(x, k, stride):
    """(oh * ow, k * k * c) patch rows, each the row-major (k, k, c) patch."""
    windows = sliding_window_view(x, (k, k), axis=(0, 1))[::stride, ::stride]
    oh, ow = windows.shape[:2]
    return windows.transpose(0, 1, 3, 4, 2).reshape(oh * ow, -1), oh, ow


def _col2im(dcols, shape, k, stride, oh, ow):
    dx = np.zeros(shape)
    n = 0
    for i in range(oh):
        for j in range(ow):
            dx[i * stride:i * stride + k, j * stride:j * stride + k, :] += dcols[n].reshape(k, k, shape[2])
            n += 1
    return dx


class SceneCache:
    __slots__ = ("params", "layers", "gap_div", "motion", "fused", "act", "used")

    def __init__(self, params, layers, gap_div, motion, fused, act):
        self.params = params
        self.layers = layers  # per conv layer: (input shape, cols, pre-activation, oh, ow, relu)
        self.gap_div = gap_div
        self.motion = motion
        self.fused = fused
        self.act = act
        self.used = False


def encode_scene(smap, observed, params):
    """Map + observed displacements -> (mu, sigma, cache).

    observed is (n_agents, obs_len, 2) displacement form; the sum over agents
    makes the result independent of agent ordering. Deterministic: the
    caller draws the latent with sample_latent.
    """
    cfg = params.cfg
    grid = smap.grid
    if grid.shape != (cfg.map_size, cfg.map_size, cfg.map_channels):
        raise ValueError(
            f"map grid {grid.shape} does not match configured "
            f"({cfg.map_size}, {cfg.map_size}, {cfg.map_channels})"
        )
    observed = np.asarray(observed, dtype=np.float64)
    if observed.ndim != 3 or observed.shape[1:] != (cfg.obs_len, 2):
        raise ValueError(f"observed motion must be (n, {cfg.obs_len}, 2), got {observed.shape}")

    x = grid
    n_layers = len(cfg.conv_kernels)
    layers = []
    for layer in range(n_layers):
        k, s = cfg.conv_kernels[layer], cfg.conv_strides[layer]
        cols, oh, ow = _im2col(x, k, s)
        pre = (cols @ params.conv_W[layer] + params.conv_b[layer]).reshape(oh, ow, -1)
        use_relu = layer < n_layers - 1
        layers.append((x.shape, cols, pre, oh, ow, use_relu))
        x = relu(pre) if use_relu else pre
    gap_div = x.shape[0] * x.shape[1]
    conv_feat = x.reshape(gap_div, -1).mean(axis=0)

    motion = observed.sum(axis=0).reshape(-1)
    motion_feat = params.W_m @ motion + params.b_m
    if conv_feat.shape != motion_feat.shape:
        raise ValueError(
            f"map feature width {conv_feat.shape[0]} does not match motion embedding "
            f"width {motion_feat.shape[0]}"
        )
    fused = conv_feat + motion_feat
    raw = params.W_fc @ fused + params.b_fc
    act = sigmoid(raw)
    cache = SceneCache(params, layers, gap_div, motion, fused, act)
    return act[:cfg.z_dim], act[cfg.z_dim:], cache


def encode_scene_backward(cache, d_mu, d_sigma, params):
    """Parameter gradients of the latent head; inputs are data, so no input grads."""
    if cache.used:
        raise ValueError("stale cache: backward already consumed this encoding")
    if cache.params is not params:
        raise ValueError("cache does not belong to these parameters")
    cache.used = True

    cfg = params.cfg
    z = cfg.z_dim
    d_raw = np.zeros(2 * z)
    mu_act = cache.act[:z]
    d_raw[:z] = d_mu * mu_act * (1.0 - mu_act)
    s_act = cache.act[z:]
    d_raw[z:] = d_sigma * s_act * (1.0 - s_act)

    params.dW_fc += np.outer(d_raw, cache.fused)
    params.db_fc += d_raw
    d_fused = params.W_fc.T @ d_raw

    params.dW_m += np.outer(d_fused, cache.motion)
    params.db_m += d_fused

    # conv stack, last layer first; layer 0 needs no input gradient
    last_oh, last_ow = cache.layers[-1][3], cache.layers[-1][4]
    d_spatial = np.tile(d_fused / cache.gap_div, (last_oh * last_ow, 1))
    for layer in range(len(cache.layers) - 1, -1, -1):
        in_shape, cols, pre, oh, ow, use_relu = cache.layers[layer]
        d_pre = d_spatial
        if use_relu:
            d_pre = d_pre * (pre.reshape(oh * ow, -1) > 0)
        params.dconv_W[layer] += cols.T @ d_pre
        params.dconv_b[layer] += d_pre.sum(axis=0)
        if layer > 0:
            k, s = cfg.conv_kernels[layer], cfg.conv_strides[layer]
            dx = _col2im(d_pre @ params.conv_W[layer].T, in_shape, k, s, oh, ow)
            d_spatial = dx.reshape(in_shape[0] * in_shape[1], in_shape[2])
    return None


def sample_latent(mu, sigma, m, rng):
    """m latent draws z_k = mu + sigma * eps_k, eps ~ N(0, 1) per entry;
    returns (zs, eps), both (m, z_dim). The one (m, z_dim) normal draw is the
    stream of m single z_dim draws, and the training loss keeps eps for the
    backward."""
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if mu.shape != sigma.shape:
        raise ValueError(f"mu/sigma shape mismatch: {mu.shape} vs {sigma.shape}")
    if np.any(sigma < 0):
        raise ValueError("sigma entries must be nonnegative")
    eps = rng.normal((m, *mu.shape))
    return mu + sigma * eps, eps
