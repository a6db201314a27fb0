import re

import numpy as np
import pytest

from motionq import gradchecks
from motionq.model import ModelConfig
from motionq.numkit import ParamStore, Rng
from motionq.scene import (
    SceneEncoderParams,
    SemanticMap,
    _im2col,
    encode_scene,
    load_map,
    sample_latent,
    save_map,
)


# ---------------------------------------------------------------------------
# oracle: direct convolution by nested loops


def conv_oracle(x, w, b, k, stride):
    hh, ww, cin = x.shape
    cout = w.shape[1]
    oh = (hh - k) // stride + 1
    ow = (ww - k) // stride + 1
    out = np.zeros((oh, ow, cout))
    for i in range(oh):
        for j in range(ow):
            patch = x[i * stride:i * stride + k, j * stride:j * stride + k, :]
            for co in range(cout):
                out[i, j, co] = float((patch.reshape(-1) * w[:, co]).sum()) + b[co]
    return out


def micro_params(seed=0, map_size=28):
    rng = Rng(seed)
    store = ParamStore()
    cfg = ModelConfig(map_size=map_size, map_channels=2, conv_channels=(3, 4),
                      conv_kernels=(10, 10, 1), conv_strides=(2, 1, 1), z_dim=3, obs_len=4)
    params = SceneEncoderParams(store, rng, cfg)
    return store, params, cfg, rng


def test_im2col_conv_matches_loop_oracle():
    rng = Rng(0)
    x = rng.normal((12, 12, 3))
    w = rng.normal((5 * 5 * 3, 4))
    b = rng.normal(4)
    cols, oh, ow = _im2col(x, 5, 2)
    fast = (cols @ w + b).reshape(oh, ow, 4)
    slow = conv_oracle(x, w, b, 5, 2)
    assert np.allclose(fast, slow, atol=1e-12)


def test_zero_everything_gives_sigmoid_constant():
    store, params, cfg, _ = micro_params()
    for name in store.names():
        store.value(name)[...] = 0.0
    smap = SemanticMap(np.zeros((28, 28, 2)))
    observed = np.zeros((3, 4, 2))
    mu, sigma, _ = encode_scene(smap, observed, params)
    assert np.allclose(mu, 0.5, atol=1e-15)
    assert np.allclose(sigma, 0.5, atol=1e-15)
    mu2, sigma2, _ = encode_scene(smap, observed, params)
    assert np.array_equal(mu, mu2) and np.array_equal(sigma, sigma2)


def test_output_widths_default_config():
    # stock configuration: 64x64 map, latent width 16
    rng = Rng(1)
    store = ParamStore()
    params = SceneEncoderParams(store, rng, ModelConfig())
    smap = SemanticMap(rng.normal((64, 64, 2)))
    observed = rng.normal((2, 8, 2))
    mu, sigma, _ = encode_scene(smap, observed, params)
    assert mu.shape == (16,) and sigma.shape == (16,)


def test_agent_permutation_invariance():
    store, params, cfg, rng = micro_params(2)
    smap = SemanticMap(rng.normal((28, 28, 2)))
    observed = rng.normal((4, 4, 2))
    mu_a, sigma_a, _ = encode_scene(smap, observed, params)
    mu_b, sigma_b, _ = encode_scene(smap, observed[::-1].copy(), params)
    assert np.allclose(mu_a, mu_b, atol=1e-12)
    assert np.allclose(sigma_a, sigma_b, atol=1e-12)


def test_sigma_positive_for_extreme_inputs():
    store, params, cfg, rng = micro_params(3)
    for name in store.names():
        store.value(name)[...] = 3.0 * rng.normal(store.value(name).shape)
    smap = SemanticMap(100.0 * rng.normal((28, 28, 2)))
    observed = 50.0 * rng.normal((2, 4, 2))
    _, sigma, _ = encode_scene(smap, observed, params)
    assert np.all(sigma > 0)


def test_map_shape_validation():
    store, params, cfg, rng = micro_params(5)
    with pytest.raises(ValueError):
        encode_scene(SemanticMap(np.zeros((30, 30, 2))), np.zeros((1, 4, 2)), params)
    with pytest.raises(ValueError):
        encode_scene(SemanticMap(np.zeros((28, 28, 2))), np.zeros((1, 5, 2)), params)


def test_conv_chain_validation():
    with pytest.raises(ValueError, match="map size 16 too small"):
        SceneEncoderParams(ParamStore(), Rng(0), ModelConfig(map_size=16))  # kernel 10 twice cannot fit


def test_grad_check_scene_encoder():
    assert gradchecks.check_scene() < 1e-4


# ---------------------------------------------------------------------------
# latent sampling


def test_sample_latent_sigma_zero():
    mu = np.array([0.3, -0.2, 1.0])
    (z,), _ = sample_latent(mu, np.zeros(3), 1, Rng(0))
    assert np.array_equal(z, mu)


def test_sample_latent_deterministic():
    mu = np.zeros(4)
    sigma = np.full(4, 0.7)
    assert np.array_equal(sample_latent(mu, sigma, 1, Rng(3)), sample_latent(mu, sigma, 1, Rng(3)))


def test_sample_latent_negative_sigma_rejected():
    with pytest.raises(ValueError):
        sample_latent(np.zeros(2), np.array([0.1, -0.2]), 1, Rng(0))


def test_sample_latent_mean_statistics():
    mu = np.array([1.0, -2.0])
    sigma = np.array([0.5, 1.5])
    rng = Rng(77)
    draws, _ = sample_latent(mu, sigma, 10_000, rng)
    # per-coordinate mean within 3*sigma/100 of mu
    bound = 3.0 * sigma / 100.0
    assert np.all(np.abs(draws.mean(axis=0) - mu) < bound)


# ---------------------------------------------------------------------------
# map files


def test_map_save_load_roundtrip(tmp_path):
    rng = Rng(5)
    smap = SemanticMap(rng.normal((7, 5, 3)))
    path = tmp_path / "grid.map"
    save_map(path, smap)
    loaded = load_map(path)
    assert loaded.grid.shape == (7, 5, 3)
    assert np.array_equal(loaded.grid, smap.grid)


def test_map_bad_header(tmp_path):
    path = tmp_path / "bad.map"
    path.write_text("7 5\n1 2 3\n")
    with pytest.raises(ValueError):
        load_map(path)


def test_map_payload_size_mismatch(tmp_path):
    path = tmp_path / "bad.map"
    path.write_text("2 2 1\n1 2 3\n")
    with pytest.raises(ValueError):
        load_map(path)


@pytest.mark.parametrize("text,reason", [
    ("7 x 1\n1\n", "bad map header '7 x 1'"),
    ("2 1.5 1\n1 2 3\n", "bad map header"),
    ("1 2 1\n1 y\n", "could not convert"),
    ("1 2 1\n1 nan\n", "non-finite"),
    ("2 2 1\n1 2 3\n", "expected 4 values, found 3"),
])
def test_malformed_map_names_path(tmp_path, text, reason):
    path = tmp_path / "bad.map"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + re.escape(reason)):
        load_map(path)
