import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from motionq.numkit import ParamStore, Rng, grad_check
from motionq.objectives import (
    LossConfig,
    ade_fde,
    aggregate_metrics,
    best_of_m_metrics,
    coherence_backward,
    coherence_forward,
    coherence_loss,
    format_metrics_report,
    nonlinear_filter,
    per_agent_best_metrics,
    tcc,
    variety_backward,
    variety_forward,
    variety_loss,
)

from oracles import (
    assert_close_to_oracle,
    best_of_m_metrics_oracle,
    coherence_backward_oracle,
    coherence_forward_oracle,
    per_agent_best_metrics_oracle,
    tcc_oracle,
)


def rms_perp_residual_oracle(points):
    """Brute-force scan of line angles through the centroid."""
    pts = np.asarray(points, dtype=np.float64)
    centered = pts - pts.mean(axis=0)
    best = np.inf
    for ang in np.linspace(0.0, np.pi, 20001):
        normal = np.array([-np.sin(ang), np.cos(ang)])
        best = min(best, float(np.sqrt(np.mean((centered @ normal) ** 2))))
    return best


# ---------------------------------------------------------------------------
# coherence loss


def features_with_cosine(c):
    """Two frames of a single agent whose features have cosine exactly c."""
    a = np.array([1.0, 0.0])
    b = np.array([c, np.sqrt(1.0 - c * c)])
    return np.stack([a, b])[None]  # (1 agent, 2 frames, 2)


def test_coherence_identical_near_pair_is_zero():
    feats = np.tile(np.array([0.3, 0.4]), (1, 2, 1))
    cfg = LossConfig(pairs_per_batch=16)
    assert coherence_loss(feats, q=5, cfg=cfg, rng=Rng(0)) == 0.0


def test_coherence_orthogonal_far_pair_under_margin():
    feats = features_with_cosine(0.0)
    cfg = LossConfig(margin=0.5, pairs_per_batch=16)
    assert coherence_loss(feats, q=1, cfg=cfg, rng=Rng(0)) == 0.0


def test_coherence_far_pair_above_margin():
    feats = features_with_cosine(0.9)
    cfg = LossConfig(margin=0.5, pairs_per_batch=16)
    # every sampled pair is the same (0, 1) frame pair: max(0, 0.9 - 0.5) = 0.4
    assert abs(coherence_loss(feats, q=1, cfg=cfg, rng=Rng(0)) - 0.4) < 1e-12


def test_coherence_near_pair_value():
    feats = features_with_cosine(0.9)
    cfg = LossConfig(pairs_per_batch=16)
    assert abs(coherence_loss(feats, q=2, cfg=cfg, rng=Rng(0)) - 0.1) < 1e-12


def test_coherence_no_valid_pairs_warns_and_returns_zero():
    feats = np.zeros((2, 1, 4))  # single frame: no pairs
    cfg = LossConfig(pairs_per_batch=4)
    with pytest.warns(UserWarning):
        assert coherence_loss(feats, q=2, cfg=cfg, rng=Rng(0)) == 0.0


def test_coherence_pair_contributions_bounded():
    rng = Rng(1)
    cfg = LossConfig(margin=0.5, pairs_per_batch=1)
    for _ in range(200):
        feats = rng.normal((2, 5, 3))
        v, cache = coherence_forward(feats, q=2, cfg=cfg, rng=rng)
        assert 0.0 <= v <= 2.0


def test_coherence_deterministic_given_rng():
    rng_feats = Rng(2)
    feats = rng_feats.normal((3, 6, 4))
    cfg = LossConfig(pairs_per_batch=32)
    a = coherence_loss(feats, q=3, cfg=cfg, rng=Rng(9))
    b = coherence_loss(feats, q=3, cfg=cfg, rng=Rng(9))
    assert a == b


def test_coherence_matches_per_pair_oracle_bitwise():
    # random shapes, queue lengths, margins and pair counts (1 and t = 2
    # included), some zero-norm feature rows: the value, the gradient added to
    # a nonzero buffer and the random stream after the draws are the oracle's
    gen = np.random.default_rng(5)
    for case in range(150):
        n, t, h = gen.integers(1, 6), gen.integers(2, 10), gen.integers(1, 9)
        if case % 5 == 0:
            t = 2
        q = int(gen.integers(1, 5))
        cfg = LossConfig(margin=float(gen.choice([0.0, gen.random(), 1.0])),
                         pairs_per_batch=int(gen.choice([1, gen.integers(2, 80)])))
        feats = gen.standard_normal((n, t, h))
        feats[gen.random((n, t)) < 0.15] = 0.0
        rng, ref_rng = Rng(case), Rng(case)
        value, cache = coherence_forward(feats, q, cfg, rng)
        ref_value, ref_cache = coherence_forward_oracle(feats, q, cfg, ref_rng)
        assert_close_to_oracle(value, ref_value, case)
        assert rng.state == ref_rng.state, case
        d_value = float(gen.standard_normal())
        grad = gen.standard_normal((n, t, h))
        ref_grad = grad.copy()
        coherence_backward(cache, d_value, grad)
        coherence_backward_oracle(ref_cache, d_value, ref_grad)
        assert_close_to_oracle(grad, ref_grad, case)


def test_coherence_backward_without_pairs_adds_nothing():
    grad = np.ones((2, 1, 3))
    with pytest.warns(UserWarning):
        _, cache = coherence_forward(np.ones((2, 1, 3)), 2, LossConfig(), Rng(0))
    coherence_backward(cache, 1.0, grad)
    assert np.array_equal(grad, np.ones((2, 1, 3)))


def test_loss_config_rejects_no_pairs():
    for bad in (0, -3):
        with pytest.raises(ValueError, match="pairs_per_batch"):
            LossConfig(pairs_per_batch=bad)


# ---------------------------------------------------------------------------
# variety loss


def test_variety_exact_sample_is_zero():
    gt = np.array([[[0.0, 0.0], [1.0, 1.0]]])
    preds = gt[None]
    assert variety_loss(gt, preds) == 0.0


def test_variety_min_selects_exact_among_samples():
    rng = Rng(3)
    gt = rng.normal((2, 4, 2))
    preds = np.stack([rng.normal((2, 4, 2)), gt, rng.normal((2, 4, 2))])
    assert variety_loss(gt, preds) == 0.0


def test_variety_hand_l2():
    gt = np.zeros((1, 1, 2))
    preds = np.array([[[[3.0, 4.0]]], [[[1.0, 0.0]]]])
    assert variety_loss(gt, preds) == 1.0  # min(5, 1)


def test_variety_nonincreasing_in_samples():
    rng = Rng(4)
    gt = rng.normal((3, 5, 2))
    samples = [rng.normal((3, 5, 2)) for _ in range(6)]
    prev = np.inf
    for m in range(1, 7):
        v = variety_loss(gt, np.stack(samples[:m]))
        assert v <= prev + 1e-15
        prev = v


def test_variety_misalignment_rejected():
    gt = np.zeros((1, 4, 2))
    preds = np.zeros((2, 1, 5, 2))
    with pytest.raises(ValueError):
        variety_loss(gt, preds)


def test_variety_concat_mode():
    # the error is the L2 norm of the whole trajectory difference: 5, not the
    # per-frame mean 2.5
    gt = np.zeros((1, 2, 2))
    preds = np.array([[[[3.0, 4.0], [0.0, 0.0]]]])
    assert variety_loss(gt, preds) == 5.0


def test_variety_backward_grad_check():
    # 3 samples of 2 agents over 4 frames, swept entry by entry over the
    # predictions; agent 0's best sample is 2 and agent 1's is 0, and only
    # those rows get a gradient
    rng = Rng(5)
    gt = rng.normal((2, 4, 2))
    store = ParamStore()
    preds = store.add("preds", rng.normal((3, 2, 4, 2)))
    preds[2, 0] = gt[0] + 0.1 * rng.normal((4, 2))
    preds[0, 1] = gt[1] + 0.1 * rng.normal((4, 2))
    _, cache = variety_forward(gt, preds)
    assert cache[3].tolist() == [2, 0]

    def f(s):
        value, cache = variety_forward(gt, preds)
        store.grad("preds")[...] += variety_backward(cache, 1.0)
        return value

    def f_value(s):
        return variety_loss(gt, preds)

    assert grad_check(f, store, eps=1e-5, f_value=f_value) < 1e-4
    _, cache = variety_forward(gt, preds)
    grad = variety_backward(cache, 1.0)
    assert grad[2, 0].any() and grad[0, 1].any()
    assert not grad[1].any() and not grad[0, 0].any() and not grad[2, 1].any()


# ---------------------------------------------------------------------------
# ADE / FDE


def test_ade_fde_exact_prediction():
    rng = Rng(5)
    gt = rng.normal((3, 6, 2))
    assert ade_fde(gt, gt) == (0.0, 0.0)


def test_ade_fde_constant_offset_three_four_five():
    rng = Rng(6)
    gt = rng.normal((2, 5, 2))
    pred = gt + np.array([0.3, 0.4])
    a, f = ade_fde(gt, pred)
    assert abs(a - 0.5) < 1e-12 and abs(f - 0.5) < 1e-12


def test_ade_fde_two_frame_hand_case():
    gt = np.array([[[0.0, 0.0], [2.0, 0.0]]])
    pred = np.array([[[1.0, 0.0], [2.0, 0.0]]])
    a, f = ade_fde(gt, pred)
    assert a == 0.5 and f == 0.0


def test_ade_fde_empty_rejected():
    with pytest.raises(ValueError):
        ade_fde(np.zeros((1, 0, 2)), np.zeros((1, 0, 2)))


def test_ade_fde_shape_mismatch():
    with pytest.raises(ValueError):
        ade_fde(np.zeros((1, 3, 2)), np.zeros((1, 4, 2)))


# ---------------------------------------------------------------------------
# TCC


def test_tcc_exact_nonconstant_prediction():
    traj = np.cumsum(Rng(7).normal((2, 8, 2)), axis=1)
    assert abs(tcc(traj, traj) - 1.0) < 1e-12


def test_tcc_mirrored_prediction():
    traj = np.cumsum(Rng(8).normal((2, 8, 2)) + 0.3, axis=1)
    mirrored = 2.0 * traj.mean(axis=1, keepdims=True) - traj
    assert abs(tcc(traj, mirrored) + 1.0) < 1e-12


def test_tcc_matches_pearson_oracle():
    rng = Rng(9)
    for _ in range(100):
        gt = np.cumsum(rng.normal((1, 6, 2)), axis=1)
        pred = np.cumsum(rng.normal((1, 6, 2)), axis=1)
        rx = scipy.stats.pearsonr(pred[0, :, 0], gt[0, :, 0]).statistic
        ry = scipy.stats.pearsonr(pred[0, :, 1], gt[0, :, 1]).statistic
        assert abs(tcc(gt, pred) - 0.5 * (rx + ry)) < 1e-9


def test_tcc_frozen_derived_case():
    # gt x = 0,1,2,3 / pred x = 0,1,1,2 with identical non-constant y;
    # pearsonr([0,1,2,3], [0,1,1,2]) = 0.9486832980505138 by the scipy oracle
    gt = np.zeros((1, 4, 2))
    gt[0, :, 0] = [0, 1, 2, 3]
    gt[0, :, 1] = [0, 1, 2, 3]
    pred = gt.copy()
    pred[0, :, 0] = [0, 1, 1, 2]
    expected = 0.5 * (0.9486832980505138 + 1.0)
    assert abs(tcc(gt, pred) - expected) < 1e-9


def test_tcc_short_horizon_rejected():
    with pytest.raises(ValueError):
        tcc(np.zeros((1, 1, 2)), np.zeros((1, 1, 2)))


def test_tcc_zero_variance_axis_contributes_zero():
    gt = np.zeros((1, 4, 2))
    gt[0, :, 0] = [0, 1, 2, 3]  # y constant
    pred = gt.copy()
    assert tcc(gt, pred) == 0.5  # x contributes 1, stationary y contributes 0


@settings(max_examples=50)
@given(st.floats(min_value=0.1, max_value=10.0), st.floats(min_value=-5.0, max_value=5.0))
def test_tcc_affine_invariance(a, b):
    rng = Rng(10)
    gt = np.cumsum(rng.normal((1, 6, 2)), axis=1)
    pred = np.cumsum(rng.normal((1, 6, 2)), axis=1)
    base = tcc(gt, pred)
    assert abs(tcc(gt, a * pred + b) - base) < 1e-9
    assert abs(tcc(gt, -a * pred + b) + base) < 1e-9


# ---------------------------------------------------------------------------
# best of m


def test_best_of_m_single_sample_equals_plain():
    rng = Rng(11)
    gt = np.cumsum(rng.normal((2, 5, 2)), axis=1)
    pred = np.cumsum(rng.normal((2, 5, 2)), axis=1)
    rep = best_of_m_metrics(gt, pred[None])
    a, f = ade_fde(gt, pred)
    assert abs(rep.ade - a) < 1e-12 and abs(rep.fde - f) < 1e-12
    assert abs(rep.tcc - tcc(gt, pred)) < 1e-12


def test_best_of_m_ade_nonincreasing():
    rng = Rng(12)
    gt = np.cumsum(rng.normal((3, 5, 2)), axis=1)
    samples = [np.cumsum(rng.normal((3, 5, 2)), axis=1) for _ in range(8)]
    prev = np.inf
    for m in range(1, 9):
        rep = best_of_m_metrics(gt, np.stack(samples[:m]))
        assert rep.ade <= prev + 1e-15
        prev = rep.ade


def test_best_of_m_exact_second_sample():
    rng = Rng(13)
    gt = np.cumsum(rng.normal((1, 5, 2)) + 0.2, axis=1)
    bad = gt + 3.0
    rep = best_of_m_metrics(gt, np.stack([bad, gt]))
    assert rep.ade == 0.0 and rep.fde == 0.0 and abs(rep.tcc - 1.0) < 1e-12


def test_best_of_m_truncates_to_first_m():
    rng = Rng(21)
    gt = np.cumsum(rng.normal((2, 5, 2)), axis=1)
    bad = gt + 2.0
    preds = np.stack([bad, gt])
    assert best_of_m_metrics(gt, preds, m=1).ade > 0.0
    assert best_of_m_metrics(gt, preds, m=2).ade == 0.0
    with pytest.raises(ValueError):
        best_of_m_metrics(gt, preds, m=3)


def test_best_of_m_horizons_and_report_format():
    rng = Rng(14)
    gt = np.cumsum(rng.normal((2, 6, 2)), axis=1)
    preds = np.stack([np.cumsum(rng.normal((2, 6, 2)), axis=1) for _ in range(3)])
    rep = best_of_m_metrics(gt, preds, horizons=(1, 2, 6))
    assert set(rep.per_horizon) == {1, 2, 6}
    assert rep.per_horizon[1][2] is None  # no correlation on a 1-frame horizon
    text = format_metrics_report(rep)
    assert "ade all" in text and "tcc 6" in text


def assert_stats_equal(stats, ref):
    assert stats.keys() == ref.keys()
    for key in ("ade", "fde", "tcc", "best"):
        assert np.array_equal(stats[key], ref[key], equal_nan=True), key
    assert stats["horizons"].keys() == ref["horizons"].keys()
    for k, vals in stats["horizons"].items():
        for key, arr in vals.items():
            assert np.array_equal(arr, ref["horizons"][k][key], equal_nan=True), (k, key)


def random_metric_case(gen):
    n, t, m = gen.integers(1, 18), gen.integers(2, 15), gen.integers(1, 6)
    gt = np.cumsum(gen.standard_normal((n, t, 2)), axis=1)
    preds = gt + gen.standard_normal((m, n, t, 2))
    gt[gen.random(n) < 0.2, :, 1] = 0.5  # stationary axes score 0
    return gt, preds, (1, 2, int(gen.integers(3, 20)), t, t + 1)


def test_metrics_match_per_agent_oracle_bitwise():
    gen = np.random.default_rng(6)
    for case in range(120):
        gt, preds, horizons = random_metric_case(gen)
        assert tcc(gt, preds[0]) == tcc_oracle(gt, preds[0]), case
        assert_stats_equal(per_agent_best_metrics(gt, preds, horizons),
                           per_agent_best_metrics_oracle(gt, preds, horizons))
        assert best_of_m_metrics(gt, preds, horizons=horizons) == \
            best_of_m_metrics_oracle(gt, preds, horizons), case


def test_per_agent_best_metrics_rejects_one_frame_horizon():
    with pytest.raises(ValueError, match="horizon of >= 2 frames"):
        per_agent_best_metrics(np.zeros((2, 1, 2)), np.zeros((3, 2, 1, 2)))


def test_aggregate_metrics_pools_agents_and_needs_some():
    gen = np.random.default_rng(7)
    stats = [per_agent_best_metrics(*random_metric_case(gen)[:2], horizons=(2,))
             for _ in range(3)]
    rep = aggregate_metrics(stats)
    assert rep.n_agents == sum(s["ade"].size for s in stats)
    assert rep.ade == float(np.concatenate([s["ade"] for s in stats]).mean())
    with pytest.raises(ValueError, match="no agents"):
        aggregate_metrics([])


# ---------------------------------------------------------------------------
# non-linear trajectory filter


def test_collinear_is_linear():
    t = np.linspace(0, 5, 12)
    traj = np.stack([t, 2.0 * t + 1.0], axis=1)
    assert nonlinear_filter(traj) is False


def test_right_angle_turn_is_nonlinear():
    # legs of length 1; brute-force oracle puts the RMS perpendicular
    # residual at 0.2264, well above the 0.1 default threshold
    pts = [(x, 0.0) for x in np.linspace(0, 1, 6)]
    pts += [(1.0, y) for y in np.linspace(0.2, 1, 5)]
    traj = np.array(pts)
    assert abs(rms_perp_residual_oracle(traj) - 0.2263618108725224) < 1e-6
    assert nonlinear_filter(traj) is True
    assert nonlinear_filter(traj, threshold=0.23) is False


def test_threshold_infinite_never_fires():
    rng = Rng(15)
    for _ in range(20):
        traj = np.cumsum(rng.normal((10, 2)), axis=0)
        assert nonlinear_filter(traj, threshold=np.inf) is False


def test_filter_matches_oracle_on_random_walks():
    rng = Rng(16)
    for _ in range(25):
        traj = np.cumsum(rng.normal((12, 2)), axis=0)
        oracle = rms_perp_residual_oracle(traj)
        assert nonlinear_filter(traj, threshold=oracle + 1e-4) is False
        assert nonlinear_filter(traj, threshold=oracle - 1e-4) is (oracle > 1e-4)
