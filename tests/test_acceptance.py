"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavyweight experiments
(overfit sanity, method-effect study) are real training runs and dominate the
wall time; every tolerance and time bound is asserted in the test body.
"""

import time

import numpy as np
import scipy.stats

from motionq import gradchecks
from motionq.cell import CellParams, cell_backward, cell_forward
from motionq.data import synth_dataset
from motionq.model import ModelConfig, MotionModel
from motionq.numkit import ParamStore, Rng
from motionq.objectives import (
    LossConfig,
    ade_fde,
    best_of_m_metrics,
    coherence_loss,
    tcc,
    variety_loss,
)
from motionq.social import SocialParams, refine_forward
from motionq.trainer import TrainConfig, evaluate, load_checkpoint, train

from oracles import lstm_oracle_backward, lstm_oracle_forward, oracle_params_from_cell, refine_oracle


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_degeneration_equivalence():
    t0 = time.monotonic()
    rng = Rng(2025)
    store = ParamStore()
    params = CellParams(store, rng, d=2, h=8)
    oracle_p = oracle_params_from_cell(params)
    worst = 0.0
    for _ in range(1000):
        for name in store.names():
            val = store.value(name)
            val[...] = 0.8 * rng.normal(val.shape)
        m_t = rng.normal(2)
        h_prev = rng.normal(8)
        c_prev = rng.normal(8)
        d_h = rng.normal(8)
        d_c = rng.normal(8)

        h_t, c_t, cache = cell_forward(m_t[None], h_prev[None, None], c_prev[None, None], params)
        h_ref, c_ref, ocache = lstm_oracle_forward(m_t, h_prev, c_prev, oracle_p)
        worst = max(worst, np.abs(h_t[0] - h_ref).max(), np.abs(c_t[0] - c_ref).max())

        store.zero_grads()
        d_m, d_hid, d_cel = cell_backward(cache, d_h[None], d_c[None], params)
        d_x_ref, d_h_ref, d_c_ref, grads_ref = lstm_oracle_backward(ocache, d_h, d_c, oracle_p)
        worst = max(
            worst,
            np.abs(d_m[0] - d_x_ref).max(),
            np.abs(d_hid[0, 0] - d_h_ref).max(),
            np.abs(d_cel[0, 0] - d_c_ref).max(),
        )
        for gate, og in (("g", "i"), ("f", "f"), ("o", "o"), ("u", "u")):
            worst = max(
                worst,
                np.abs(params.dW[gate] - grads_ref["W" + og]).max(),
                np.abs(params.dU[gate] - grads_ref["U" + og]).max(),
                np.abs(params.db[gate] - grads_ref["b" + og]).max(),
            )
    elapsed = time.monotonic() - t0
    report(1, "q=1 equivalence", worst < 1e-10 and elapsed < 10.0,
           f"max abs diff {worst:.3e} over 1000 trials in {elapsed:.1f}s")


def test_criterion_2_gradient_correctness():
    t0 = time.monotonic()
    results = gradchecks.run("full")
    elapsed = time.monotonic() - t0
    worst = max(err for _, err, _ in results)
    detail = ", ".join(f"{name} {err:.2e}" for name, err, _ in results)
    report(2, "gradient correctness", worst < 1e-4 and elapsed < 60.0,
           f"{detail} in {elapsed:.1f}s")


def test_criterion_3_social_refinement_contract():
    rng = Rng(31)
    ok = True
    detail = []
    for n in (2, 3, 4):
        store = ParamStore()
        params = SocialParams(store, rng, 6)
        hidden, cell = np.moveaxis(rng.normal((n, 2, 3, 6)), 1, 0)  # drawn agent by agent
        before = hidden.copy()
        out, _ = refine_forward(hidden, params)
        expected = refine_oracle(hidden, params.W_theta, params.W_phi, params.W_g)
        diff = np.abs(out - expected).max()
        # cells are untouched: refinement leaves its input as it is, and the
        # encoder's cell history holds exactly each frame's cell-step c_t
        model_rng = Rng(310 + n)
        model = MotionModel(ModelConfig(h=6, q=3, dec_h=4, use_latent=False), model_rng)
        obs_disp = model_rng.normal((n, 5, 2))
        state = model.observe(obs_disp, want_tape=True, want_cells=True)
        steps = [cell_forward(x_t, hid, cel, model.cell)[1] for x_t, hid, cel in state.tape]
        cells_ok = (np.array_equal(hidden, before)
                    and np.array_equal(state.cells, np.stack(steps, axis=1)))
        ok = ok and diff < 1e-12 and cells_ok
        detail.append(f"n={n} oracle diff {diff:.2e} cells {'bitwise' if cells_ok else 'CHANGED'}")
        params.W_g[...] = 0.0
        out0, _ = refine_forward(hidden, params)
        ident = np.abs(out0 - hidden).max()
        ok = ok and ident < 1e-15
    report(3, "social refinement contract", ok, "; ".join(detail))


def test_criterion_4_metric_identities():
    rng = Rng(41)
    ok = True
    detail = []

    traj = np.cumsum(rng.normal((3, 8, 2)), axis=1)
    ok &= abs(tcc(traj, traj) - 1.0) < 1e-12
    mirrored = 2.0 * traj.mean(axis=1, keepdims=True) - traj
    ok &= abs(tcc(traj, mirrored) + 1.0) < 1e-12
    detail.append("tcc identity/mirror exact")

    worst = 0.0
    for _ in range(100):
        gt = np.cumsum(rng.normal((1, 7, 2)), axis=1)
        pred = np.cumsum(rng.normal((1, 7, 2)), axis=1)
        rx = scipy.stats.pearsonr(pred[0, :, 0], gt[0, :, 0]).statistic
        ry = scipy.stats.pearsonr(pred[0, :, 1], gt[0, :, 1]).statistic
        worst = max(worst, abs(tcc(gt, pred) - 0.5 * (rx + ry)))
    ok &= worst < 1e-9
    detail.append(f"pearson oracle diff {worst:.1e}")

    gt = np.cumsum(rng.normal((2, 6, 2)), axis=1)
    a, f = ade_fde(gt, gt + np.array([0.3, 0.4]))
    ok &= abs(a - 0.5) < 1e-12 and abs(f - 0.5) < 1e-12
    detail.append("offset norm exact")

    monotone = True
    for _ in range(10):
        gt = np.cumsum(rng.normal((3, 6, 2)), axis=1)
        samples = [np.cumsum(rng.normal((3, 6, 2)), axis=1) for _ in range(20)]
        prev = np.inf
        for m in range(1, 21):
            rep = best_of_m_metrics(gt, np.stack(samples[:m]))
            monotone &= rep.ade <= prev + 1e-15
            prev = rep.ade
    ok &= monotone
    detail.append("best-of-m ADE non-increasing")
    report(4, "metric identities", bool(ok), "; ".join(detail))


def test_criterion_5_loss_identities():
    rng = Rng(51)
    ok = True

    gt = np.cumsum(rng.normal((2, 5, 2)), axis=1)
    others = [gt + rng.normal((2, 5, 2)) for _ in range(2)]
    ok &= variety_loss(gt, np.stack([others[0], gt, others[1]])) == 0.0

    def pair_features(c):
        a = np.array([1.0, 0.0])
        b = np.array([c, np.sqrt(max(0.0, 1.0 - c * c))])
        return np.stack([a, b])[None]

    cfg = LossConfig(margin=0.5, pairs_per_batch=16)
    same = np.tile(np.array([0.6, 0.8]), (1, 2, 1))
    v_near = coherence_loss(same, q=5, cfg=cfg, rng=Rng(1))
    v_far_orth = coherence_loss(pair_features(0.0), q=1, cfg=cfg, rng=Rng(1))
    v_far_09 = coherence_loss(pair_features(0.9), q=1, cfg=cfg, rng=Rng(1))
    ok &= v_near == 0.0
    ok &= v_far_orth == 0.0
    ok &= abs(v_far_09 - 0.4) < 1e-12
    report(5, "loss identities", bool(ok),
           f"variety exact-sample 0; coherence cases ({v_near}, {v_far_orth}, {v_far_09:.3f})")


def test_criterion_6_overfit_sanity():
    # The variety at any one late step is chaotic: over the last 500 steps
    # the curve swings between about 0.02 and 0.3, and nudging each batch
    # gradient by 1e-15 relative moved the trained model's variety from 0.03
    # to 0.18. The median over those 500 steps is stable: 0.058 to 0.080
    # (0.069 +- 0.007) over one plain and 7 nudged runs of the signed relation
    # the bound was set on, and 0.064 to 0.091 over the same 8 runs of the
    # softmax relation; 0.1 is 4.5 standard deviations above the first mean.
    t0 = time.monotonic()
    scenes = synth_dataset("parallel", 8, Rng(12), n_agents=2, noise=0.0)
    cfg = TrainConfig(h=32, z_dim=16, q=3, dec_h=32, m=1, lam=0.0,
                      pairs_per_batch=16, batch_size=8, lr=7e-4, epochs=2000,
                      seed=0, checkpoint_every=0, sigma_bias=-4.0)
    model, curve = train(cfg, scenes, "/tmp/motionq_overfit")
    assert len(curve) == 2000
    tail_variety = float(np.median([row[4] for row in curve[-500:]]))
    rep = evaluate(model, scenes, 20, seed=5)
    elapsed = time.monotonic() - t0
    ok = tail_variety < 0.1 and rep.ade < 0.1 and elapsed < 300.0
    report(6, "overfit sanity", ok,
           f"median variety of the last 500 steps {tail_variety:.4f} (<0.1, from "
           f"{curve[0][4]:.2f} at the first), train ADE {rep.ade:.4f} (<0.1), "
           f"{elapsed:.0f}s (<300)")


def test_criterion_7_method_effect_desk_scale():
    t0 = time.monotonic()
    scenes = synth_dataset("turning", 500, Rng(777), n_agents=2, noise=0.02)
    full_ades = []
    ablation_ades = []
    for seed in range(5):
        cfg_full = TrainConfig(h=32, z_dim=16, q=3, dec_h=32, m=2, lam=0.1,
                               pairs_per_batch=16, batch_size=32, lr=1.5e-3,
                               epochs=10, seed=seed, checkpoint_every=0)
        model, _ = train(cfg_full, scenes, f"/tmp/motionq_full_{seed}")
        full_ades.append(evaluate(model, scenes, 20, seed=1234).ade)

        cfg_abl = TrainConfig(h=32, z_dim=16, q=1, dec_h=32, m=1, lam=0.1,
                              pairs_per_batch=16, batch_size=32, lr=1.5e-3,
                              epochs=10, seed=seed, checkpoint_every=0,
                              use_social=False, use_latent=False)
        abl, _ = train(cfg_abl, scenes, f"/tmp/motionq_abl_{seed}")
        ablation_ades.append(evaluate(abl, scenes, 20, seed=1234).ade)
        print(f"  seed {seed}: full {full_ades[-1]:.4f} ablation {ablation_ades[-1]:.4f}")

    mean_full = float(np.mean(full_ades))
    mean_abl = float(np.mean(ablation_ades))
    elapsed = time.monotonic() - t0
    ok = mean_full <= mean_abl and elapsed < 1800.0
    report(7, "method effect", ok,
           f"best-of-20 ADE full {mean_full:.4f} vs ablation {mean_abl:.4f} "
           f"over 5 seeds in {elapsed:.0f}s (<1800)")


def test_criterion_8_determinism_and_checkpoint_roundtrip(tmp_path):
    scenes = synth_dataset("turning", 6, Rng(8), n_agents=2, noise=0.02)
    cfg = TrainConfig(h=16, z_dim=8, q=2, dec_h=16, m=2, pairs_per_batch=8,
                      batch_size=3, lr=1e-3, epochs=3, seed=4)
    model_a, curve_a = train(cfg, scenes, tmp_path / "a")
    model_b, curve_b = train(cfg, scenes, tmp_path / "b")
    rep_a = evaluate(model_a, scenes, 5, seed=11)
    rep_b = evaluate(model_b, scenes, 5, seed=11)
    bitwise = curve_a == curve_b and rep_a == rep_b

    _, loaded, _, _ = load_checkpoint(tmp_path / "a" / "final.ckpt")
    rep_loaded = evaluate(loaded, scenes, 5, seed=11)
    roundtrip = rep_loaded == rep_a
    params_equal = all(
        np.array_equal(model_a.store.value(n), loaded.store.value(n))
        for n in model_a.store.names()
    )
    ok = bitwise and roundtrip and params_equal
    report(8, "determinism & checkpoint roundtrip", ok,
           f"reruns bitwise={bitwise}, save/load eval equal={roundtrip}")
