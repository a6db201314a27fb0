import numpy as np
import pytest

from motionq import gradchecks, model as model_module
from motionq.data import SceneBatch, synth_scene, to_relative
from motionq.model import ModelConfig, MotionModel, write_prediction_records
from motionq.numkit import Rng
from motionq.objectives import LossConfig

from oracles import (
    assert_close_to_oracle,
    assert_grads_close,
    assert_parts_close,
    loss_and_grad_oracle,
    lstm_oracle_forward,
    oracle_backward,
    oracle_cell_backward,
    oracle_cell_forward,
    oracle_decode,
    oracle_params_from_cell,
    predict_oracle,
)


def micro_cfg(**overrides):
    base = dict(h=8, q=3, z_dim=3, dec_h=8, obs_len=8, pred_len=12,
                use_social=True, use_latent=True, map_size=28, map_channels=2,
                conv_channels=(3, 4), conv_kernels=(10, 10, 1), conv_strides=(2, 1, 1))
    base.update(overrides)
    return ModelConfig(**base)


def make_scene(kind="turning", n=2, seed=0, noise=0.0, map_size=28, obs_len=8, pred_len=12):
    return synth_scene(kind, n, Rng(seed), noise=noise, map_size=map_size,
                       obs_len=obs_len, pred_len=pred_len)


def randomize(model, rng, scale=0.6):
    for name in model.store.names():
        val = model.store.value(name)
        val[...] = scale * rng.normal(val.shape)


# ---------------------------------------------------------------------------
# observation


def test_observe_single_agent_q1_matches_lstm_encoder_oracle():
    # q=1 with the social transform zeroed must reproduce a plain LSTM encoder
    cfg = micro_cfg(q=1, use_latent=False)
    rng = Rng(0)
    model = MotionModel(cfg, rng)
    randomize(model, rng)
    model.social.W_g[...] = 0.0
    disp = Rng(1).normal((1, 8, 2))
    state = model.observe(disp)

    oracle_p = oracle_params_from_cell(model.cell)
    h = np.zeros(cfg.h)
    c = np.zeros(cfg.h)
    for t in range(8):
        h, c, _ = lstm_oracle_forward(disp[0, t], h, c, oracle_p)
    assert np.allclose(state.h_obs[0], h, atol=1e-12)


def test_observe_zero_params_zero_features():
    cfg = micro_cfg(use_latent=False)
    model = MotionModel(cfg, Rng(0))
    for name in model.store.names():
        model.store.value(name)[...] = 0.0
    state = model.observe(Rng(2).normal((3, 8, 2)))
    assert not state.h_obs.any()
    assert not state.features.any()


def test_observe_queue_holds_last_q_frames():
    # without refinement the queue after 8 frames is exactly the features of
    # the last three frames, oldest first
    cfg = micro_cfg(use_social=False, use_latent=False)
    rng = Rng(3)
    model = MotionModel(cfg, rng)
    randomize(model, rng)
    disp = Rng(4).normal((3, 8, 2))
    state = model.observe(disp)
    assert state.hidden.shape == (3, 3, cfg.h)
    assert np.array_equal(state.hidden, state.features[:, -3:])
    # with refinement on, the newest entry still matches the newest feature
    cfg2 = micro_cfg(use_latent=False)
    model2 = MotionModel(cfg2, Rng(5))
    randomize(model2, Rng(6))
    state2 = model2.observe(disp)
    assert np.array_equal(state2.hidden[:, -1], state2.features[:, -1])


def test_observe_rejects_bad_inputs():
    cfg = micro_cfg(use_latent=False)
    model = MotionModel(cfg, Rng(0))
    with pytest.raises(ValueError):
        model.observe(np.zeros((2, 8, 3)))
    bad = np.zeros((2, 8, 2))
    bad[1, 3, 0] = np.nan  # missing agent inside the window
    with pytest.raises(ValueError):
        model.observe(bad)


def test_observe_agent_permutation_equivariance():
    cfg = micro_cfg(use_latent=False)
    rng = Rng(7)
    model = MotionModel(cfg, rng)
    randomize(model, rng)
    disp = Rng(8).normal((4, 8, 2))
    perm = [2, 0, 3, 1]
    a = model.observe(disp)
    b = model.observe(disp[perm])
    assert np.allclose(b.h_obs, a.h_obs[perm], atol=1e-10)


@pytest.mark.parametrize("social", [True, False])
@pytest.mark.parametrize("n,q", [(1, 1), (2, 3), (5, 4), (16, 2)])
def test_model_matches_per_agent_cell_oracle_bitwise(monkeypatch, n, q, social):
    # observe's states and the loss parts within 1e-12, every gradient tensor
    # within 1e-10 relative, against the same model with the per-agent oracle
    # cell patched in (the decoder's steps run on it too)
    scene = make_scene("crossroad" if n > 4 else "turning", n=n, seed=n, noise=0.05)
    obs_disp = to_relative(scene.positions)[:, :scene.obs_len]
    lc = LossConfig(lam=0.1, m=2, pairs_per_batch=8)

    def run():
        rng = Rng(32)
        model = MotionModel(micro_cfg(q=q, use_social=social), rng)
        randomize(model, rng, scale=0.4)
        state = model.observe(obs_disp, want_cells=True)
        model.store.zero_grads()
        parts = model.loss_and_grad(scene, lc, Rng(5))
        grads = {k: model.store.grad(k).copy() for k in model.store.names()}
        return state, parts, grads

    state, parts, grads = run()
    monkeypatch.setattr(model_module, "cell_forward", oracle_cell_forward)
    monkeypatch.setattr(model_module, "cell_backward", oracle_cell_backward)
    ref_state, ref_parts, ref_grads = run()
    for key in ("hidden", "cell", "h_obs", "features", "cells"):
        assert_close_to_oracle(getattr(state, key), getattr(ref_state, key), key)
    assert_parts_close(parts, ref_parts)
    assert_grads_close(grads, ref_grads)


# ---------------------------------------------------------------------------
# decoding


def test_decode_emits_requested_steps():
    cfg = micro_cfg(use_latent=False)
    model = MotionModel(cfg, Rng(9))
    pos, _ = model.decode(np.zeros((2, cfg.h)), np.zeros((3, 0)), 12,
                          np.zeros((2, 2)), np.zeros((2, 2)))
    assert pos.shape == (3, 2, 12, 2)


def test_decode_zero_params_repeats_last_position():
    cfg = micro_cfg(use_latent=False)
    model = MotionModel(cfg, Rng(10))
    for name in model.store.names():
        model.store.value(name)[...] = 0.0
    last_pos = np.array([[3.0, -1.0], [0.5, 2.5]])
    pos, _ = model.decode(Rng(11).normal((2, cfg.h)), np.zeros((1, 0)), 5,
                          last_pos, Rng(12).normal((2, 2)))
    for t in range(5):
        assert np.array_equal(pos[0, :, t], last_pos)


def test_decode_deterministic_given_z():
    cfg = micro_cfg()
    rng = Rng(13)
    model = MotionModel(cfg, rng)
    randomize(model, rng)
    h_obs = Rng(14).normal((2, cfg.h))
    z = Rng(15).normal((3, cfg.z_dim))
    args = (h_obs, z, 6, np.zeros((2, 2)), np.zeros((2, 2)))
    a, _ = model.decode(*args)
    b, _ = model.decode(*args)
    assert np.array_equal(a, b)


def test_decode_rejects_zero_steps():
    cfg = micro_cfg(use_latent=False)
    model = MotionModel(cfg, Rng(16))
    with pytest.raises(ValueError):
        model.decode(np.zeros((1, cfg.h)), np.zeros((1, 0)), 0, np.zeros((1, 2)), np.zeros((1, 2)))


def test_decode_rejects_unstacked_latent():
    cfg = micro_cfg()
    model = MotionModel(cfg, Rng(16))
    with pytest.raises(ValueError):
        model.decode(np.zeros((1, cfg.h)), np.zeros(cfg.z_dim), 4,
                     np.zeros((1, 2)), np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# the decoder against the per-row oracle


ORACLE_SHAPES = [(1, 1, 8), (2, 3, 8), (4, 20, 32), (16, 2, 32)]  # (n, m, dec_h)


def oracle_case(n, m, dec_h, latent, seed=0):
    cfg = micro_cfg(dec_h=dec_h, use_latent=latent)
    rng = Rng(seed)
    model = MotionModel(cfg, rng)
    randomize(model, rng, scale=0.4)
    draw = Rng(seed + 1)
    z = draw.normal((m, cfg.z_dim)) if latent else np.zeros((m, 0))
    inputs = (draw.normal((n, cfg.h)), z, 12, draw.normal((n, 2)), draw.normal((n, 2)))
    return model, inputs


@pytest.mark.parametrize("latent", [True, False])
@pytest.mark.parametrize("n,m,dec_h", ORACLE_SHAPES)
def test_decode_matches_per_row_oracle_bitwise(n, m, dec_h, latent):
    model, inputs = oracle_case(n, m, dec_h, latent)
    pos, cache = model.decode(*inputs, want_cache=True)
    ref, rows = oracle_decode(model, *inputs, want_cache=True)
    assert_close_to_oracle(pos, ref, "positions")
    assert np.array_equal(model.decode(*inputs)[0], pos)
    s_all, h0_all, steps = cache
    for row, (s, h0, records) in enumerate(rows):
        assert np.array_equal(s_all[row], s)
        assert_close_to_oracle(h0_all[row], h0, "h0")
        assert not steps[0][0].cell[row].any()
        for t, st in enumerate(records):
            cell_cache, h_t, c_t = steps[t]
            for got, key in ((cell_cache.m[row], "x"), (cell_cache.hidden[row, 0], "h_prev"),
                             (cell_cache.cell[row, 0], "c_prev"), (cell_cache.g[row], "gi"),
                             (cell_cache.o[row], "go"), (cell_cache.u[row], "gu"),
                             (cell_cache.tanh_c[row], "tanh_c"), (cell_cache.f[row, 0], "gf"),
                             (c_t[row], "c"), (h_t[row], "h")):
                assert_close_to_oracle(got, st[key], (row, t, key))


@pytest.mark.parametrize("latent", [True, False])
@pytest.mark.parametrize("n,m,dec_h", ORACLE_SHAPES)
def test_decode_backward_matches_per_row_oracle_bitwise(n, m, dec_h, latent):
    # one all-rows backward, zero upstream off the picked rows, against the
    # per-row oracle on the picked rows; the sums run in another order, so
    # the match is within tolerance, not bitwise
    model, inputs = oracle_case(n, m, dec_h, latent, seed=3)
    pos, cache = model.decode(*inputs, want_cache=True)
    _, rows = oracle_decode(model, *inputs, want_cache=True)
    d_pos = np.zeros_like(pos)
    for i in range(n):
        for k in {0, m - 1}:
            d_pos[k, i] = Rng(50 + i).normal((12, 2))
    outs = []
    for backward, c in ((model._decode_backward_agent, cache),
                        (lambda c, d: oracle_backward(model, c, d), rows)):
        model.store.zero_grads()
        returned = backward(c, d_pos)
        outs.append((returned, {k: model.store.grad(k).copy() for k in model.store.names()}))
    (got, got_grads), (want, want_grads) = outs
    for a, b in zip(got, want):
        assert_close_to_oracle(a, b)
    for name in want_grads:
        assert_close_to_oracle(got_grads[name], want_grads[name], name)


@pytest.mark.parametrize("latent", [True, False])
@pytest.mark.parametrize("n,m,dec_h", ORACLE_SHAPES)
def test_model_matches_oracle_decoder_bitwise(monkeypatch, n, m, dec_h, latent):
    # predict and the loss parts within 1e-12, every gradient tensor within
    # 1e-10 relative, against the same model with the per-row oracle decoder
    # patched in
    scene = make_scene("crossroad" if n > 4 else "turning", n=n, seed=n, noise=0.05)
    lc = LossConfig(lam=0.1, m=m, pairs_per_batch=8)

    def run():
        rng = Rng(31)
        model = MotionModel(micro_cfg(dec_h=dec_h, use_latent=latent), rng)
        randomize(model, rng, scale=0.4)
        preds = model.predict(scene, m, Rng(4))
        model.store.zero_grads()
        parts = model.loss_and_grad(scene, lc, Rng(5))
        grads = {k: model.store.grad(k).copy() for k in model.store.names()}
        return preds, parts, grads

    preds, parts, grads = run()
    monkeypatch.setattr(MotionModel, "decode", oracle_decode)
    monkeypatch.setattr(MotionModel, "_decode_backward_agent", oracle_backward)
    ref_preds, ref_parts, ref_grads = run()
    assert_close_to_oracle(preds.positions, ref_preds.positions, "positions")
    assert np.array_equal(preds.zs, ref_preds.zs)
    assert_parts_close(parts, ref_parts)
    assert_grads_close(grads, ref_grads)


# ---------------------------------------------------------------------------
# prediction


@pytest.mark.parametrize("m,z_dim,latent,n", [(1, 1, True, 3), (1, 3, True, 3),
                                              (12, 1, True, 12), (4, 3, True, 3),
                                              (3, 3, False, 3)])
def test_latent_draws_match_per_draw_oracle_bitwise(m, z_dim, latent, n):
    # predict's positions and draws and the random streams after them are the
    # per-draw oracle's; the loss parts agree within 1e-12 and every gradient
    # tensor within 1e-10 relative
    scene = make_scene("crossroad" if n > 4 else "turning", n=n, seed=12, noise=0.05)
    lc = LossConfig(lam=0.3, m=m, pairs_per_batch=8)
    rng = Rng(33)
    model = MotionModel(micro_cfg(z_dim=z_dim, use_latent=latent), rng)
    randomize(model, rng, scale=1.0)  # spreads the best samples over the draws

    draws, ref_draws = Rng(6), Rng(6)
    preds = model.predict(scene, m, draws)
    ref_positions, ref_zs = predict_oracle(model, scene, m, ref_draws)
    assert np.array_equal(preds.positions, ref_positions)
    assert np.array_equal(preds.zs, ref_zs)
    assert draws.state == ref_draws.state

    for seed in range(4):
        runs = []
        for fn in (lambda r: model.loss_and_grad(scene, lc, r),
                   lambda r: loss_and_grad_oracle(model, scene, lc, r)):
            model.store.zero_grads()
            r = Rng(seed)
            parts = fn(r)
            runs.append((parts, {k: model.store.grad(k).copy() for k in model.store.names()},
                         r.state))
        (parts, grads, state), (ref_parts, ref_grads, ref_state) = runs
        assert_parts_close(parts, ref_parts)
        assert state == ref_state
        assert_grads_close(grads, ref_grads)


def test_predict_sample_counts():
    cfg = micro_cfg()
    rng = Rng(17)
    model = MotionModel(cfg, rng)
    randomize(model, rng)
    scene = make_scene(seed=1)
    one = model.predict(scene, 1, Rng(0))
    many = model.predict(scene, 20, Rng(0))
    assert one.positions.shape == (1, 2, 12, 2)
    assert many.positions.shape == (20, 2, 12, 2)
    assert many.zs.shape == (20, cfg.z_dim)


def test_predict_m_must_be_positive():
    cfg = micro_cfg()
    model = MotionModel(cfg, Rng(18))
    with pytest.raises(ValueError):
        model.predict(make_scene(), 0, Rng(0))


def test_predict_collapses_without_latent():
    cfg = micro_cfg(use_latent=False)
    rng = Rng(19)
    model = MotionModel(cfg, rng)
    randomize(model, rng)
    preds = model.predict(make_scene(seed=2), 7, Rng(0))
    for k in range(1, 7):
        assert np.array_equal(preds.positions[k], preds.positions[0])


def test_predict_zero_sigma_collapses_samples():
    cfg = micro_cfg()
    rng = Rng(20)
    model = MotionModel(cfg, rng)
    randomize(model, rng)
    scene = make_scene(seed=3)
    import motionq.model as M

    orig = M.encode_scene

    def zero_sigma(smap, observed, params):
        mu, sigma, cache = orig(smap, observed, params)
        return mu, np.zeros_like(sigma), cache

    M.encode_scene = zero_sigma
    try:
        preds = model.predict(scene, 5, Rng(0))
    finally:
        M.encode_scene = orig
    for k in range(1, 5):
        assert np.array_equal(preds.positions[k], preds.positions[0])


def test_predict_missing_map_rejected():
    cfg = micro_cfg()
    model = MotionModel(cfg, Rng(21))
    scene = make_scene(seed=4)
    scene.smap = None
    with pytest.raises(ValueError):
        model.predict(scene, 1, Rng(0))


def test_cell_state_trace_missing_map_rejected_as_in_predict():
    model = MotionModel(micro_cfg(), Rng(21))
    scene = make_scene(seed=4)
    scene.smap = None
    with pytest.raises(ValueError) as predicted:
        model.predict(scene, 1, Rng(0))
    with pytest.raises(ValueError) as traced:
        model.cell_state_trace(scene)
    assert str(traced.value) == str(predicted.value)


def test_translation_covariance():
    cfg = micro_cfg()
    rng = Rng(22)
    model = MotionModel(cfg, rng)
    randomize(model, rng)
    scene = make_scene(seed=5, noise=0.02)
    shift = np.array([12.25, -7.5])
    shifted = SceneBatch(scene.positions + shift, scene.obs_len, smap=scene.smap,
                         scene_id=scene.scene_id)
    a = model.predict(scene, 3, Rng(0))
    b = model.predict(shifted, 3, Rng(0))
    assert np.allclose(b.positions, a.positions + shift, atol=1e-9)


# ---------------------------------------------------------------------------
# training objective


def test_loss_parts_combine_linearly():
    cfg = micro_cfg()
    rng = Rng(23)
    model = MotionModel(cfg, rng)
    randomize(model, rng)
    scene = make_scene(seed=6, noise=0.05)
    for lam in (0.0, 0.1, 0.7):
        parts = model.loss(scene, LossConfig(lam=lam, m=3, pairs_per_batch=8), Rng(42))
        assert abs(parts["total"] - (lam * parts["coherence"] + parts["variety"])) < 1e-12
    parts = model.loss(scene, LossConfig(lam=0.0, m=3, pairs_per_batch=8), Rng(42))
    assert parts["total"] == parts["variety"]


def test_loss_forward_matches_loss_and_grad_value():
    cfg = micro_cfg()
    rng = Rng(24)
    model = MotionModel(cfg, rng)
    randomize(model, rng)
    scene = make_scene(seed=7, noise=0.05)
    lc = LossConfig(m=2, pairs_per_batch=8)
    a = model.loss(scene, lc, Rng(9))
    model.store.zero_grads()
    b = model.loss_and_grad(scene, lc, Rng(9))
    assert a == b


def test_loss_requires_future_frames():
    cfg = micro_cfg()
    model = MotionModel(cfg, Rng(25))
    scene = make_scene(seed=8)
    obs_only = SceneBatch(scene.observed(), scene.obs_len, smap=scene.smap)
    with pytest.raises(ValueError):
        model.loss(obs_only, LossConfig(m=2), Rng(0))


def test_end_to_end_gradient():
    assert gradchecks.check_full() < 1e-4


@pytest.mark.parametrize("seed", range(1, 6))
def test_end_to_end_gradient_at_other_seeds(seed):
    # the bound holds at every point, not at one lucky seed
    assert gradchecks.check_full(seed) < 1e-4


# one gradient slot a backward adds to, given the backward's arguments
WRONG_BACKWARD_SLOTS = {
    "refine_backward": lambda args: args[2].dW_theta,
    "cell_backward": lambda args: args[3].dU["f"],
    "encode_scene_backward": lambda args: args[3].db_fc,
    "coherence_backward": lambda args: args[2],  # the features' gradient
}


@pytest.mark.parametrize("name", sorted(WRONG_BACKWARD_SLOTS))
def test_end_to_end_gradient_flags_a_backward_wrong_by_a_thousandth(monkeypatch, name):
    # every increment the backward adds to its slot is 1e-3 too large
    right, slot_of = getattr(model_module, name), WRONG_BACKWARD_SLOTS[name]

    def wrong(*args):
        slot = slot_of(args)
        before = slot.copy()
        out = right(*args)
        slot += 1e-3 * (slot - before)
        return out

    monkeypatch.setattr(model_module, name, wrong)
    assert gradchecks.check_full() > 1e-4


@pytest.mark.parametrize("social,latent,seed",
                         [(False, True, 10), (True, False, 5), (False, False, 3)])
def test_loss_grad_without_social_or_latent(social, latent, seed):
    model, scene = gradchecks.micro_model_and_scene(
        seed=seed, use_social=social, use_latent=latent)
    lc = LossConfig(lam=0.1, m=2, pairs_per_batch=8)
    from motionq.numkit import grad_check

    err = grad_check(
        lambda s: model.loss_and_grad(scene, lc, Rng(5))["total"],
        model.store, eps=1e-5,
        f_value=lambda s: model.loss(scene, lc, Rng(5))["total"],
    )
    assert err < 1e-4, (social, latent, err)


# ---------------------------------------------------------------------------
# exports


def test_prediction_export_schema(tmp_path):
    cfg = micro_cfg()
    rng = Rng(26)
    model = MotionModel(cfg, rng)
    randomize(model, rng)
    scene = make_scene(seed=9)
    preds = model.predict(scene, 2, Rng(0))
    path = tmp_path / "preds.txt"
    write_prediction_records(path, "sc0", preds)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2 * scene.n_agents * scene.pred_len
    first = lines[0].split()
    assert first[0] == "sc0" and len(first) == 6
    x, y = float(first[4]), float(first[5])
    assert x == preds.positions[0, 0, 0, 0] and y == preds.positions[0, 0, 0, 1]


def test_cell_state_trace_phases():
    cfg = micro_cfg()
    rng = Rng(27)
    model = MotionModel(cfg, rng)
    randomize(model, rng)
    scene = make_scene(seed=10)
    rows = model.cell_state_trace(scene)
    obs_rows = [r for r in rows if r[0] == "obs"]
    pred_rows = [r for r in rows if r[0] == "pred"]
    assert len(obs_rows) == scene.n_agents * scene.obs_len
    assert len(pred_rows) == scene.n_agents * scene.pred_len
    assert obs_rows[0][3].shape == (cfg.h,)
    assert pred_rows[0][3].shape == (cfg.dec_h,)


@pytest.mark.parametrize("latent", [True, False])
def test_cell_state_trace_pred_rows_match_oracle_rollout(latent):
    # the decoder phase's cell states, against the per-row oracle rollout
    # driven by the same mean latent
    cfg = micro_cfg(use_latent=latent)
    rng = Rng(28)
    model = MotionModel(cfg, rng)
    randomize(model, rng, scale=0.4)
    scene = make_scene(n=3, seed=11, noise=0.05)
    pred_rows = [r for r in model.cell_state_trace(scene) if r[0] == "pred"]
    obs_disp = to_relative(scene.positions)[:, :scene.obs_len]
    state = model.observe(obs_disp)
    if latent:
        z = model_module.encode_scene(scene.smap, obs_disp, model.scene_enc)[0][None]
    else:
        z = np.zeros((1, 0))
    _, rows = oracle_decode(model, state.h_obs, z, scene.pred_len,
                            scene.positions[:, scene.obs_len - 1], obs_disp[:, -1],
                            want_cache=True)
    assert len(pred_rows) == scene.n_agents * scene.pred_len
    for phase, i, t, vec in pred_rows:
        assert_close_to_oracle(vec, rows[i][2][t]["c"], (i, t))
