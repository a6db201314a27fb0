import numpy as np
import pytest

from motionq import model as model_module
from motionq.model import ModelConfig, MotionModel
from motionq.numkit import ParamStore, Rng
from motionq.social import (
    SocialParams,
    refine_backward,
    refine_forward,
    relation,
)


# ---------------------------------------------------------------------------
# oracle: direct double-loop refinement, no shared terms with the implementation


def refine_oracle(hiddens, w_theta, w_phi, w_g, z_eps=1e-8):
    """hiddens is (n, q, h); returns the refined copy. Every agent refines
    against every agent, itself included."""
    n, q, _ = hiddens.shape
    out = hiddens.copy()
    for i in range(n):
        for s in range(q):
            z = 0.0
            for j in range(n):
                z += float((w_theta @ hiddens[i, s]) @ (w_phi @ hiddens[j, s]))
            if abs(z) < z_eps:
                continue
            acc = np.zeros(hiddens.shape[2])
            for j in range(n):
                r = float((w_theta @ hiddens[i, s]) @ (w_phi @ hiddens[j, s]))
                acc += r * (w_g @ hiddens[j, s])
            out[i, s] = hiddens[i, s] + acc / z
    return out


def make_social(rng, h):
    store = ParamStore()
    params = SocialParams(store, rng, h)
    return store, params


def random_queues(rng, n, q, h):
    """(hidden, cell), each (n, q, h), drawn agent by agent."""
    draws = rng.normal((n, 2, q, h))
    return draws[:, 0], draws[:, 1]


def refine(hidden, params, **kwargs):
    return refine_forward(hidden, params, **kwargs)[0]


# ---------------------------------------------------------------------------
# relation


def test_relation_identity_unit_vectors():
    rng = Rng(0)
    store, params = make_social(rng, 3)
    params.W_theta[...] = np.eye(3)
    params.W_phi[...] = np.eye(3)
    e1 = np.array([1.0, 0.0, 0.0])
    assert relation(e1, e1, params) == 1.0


def test_relation_zero_theta():
    rng = Rng(1)
    store, params = make_social(rng, 4)
    params.W_theta[...] = 0.0
    assert relation(rng.normal(4), rng.normal(4), params) == 0.0


def test_relation_matches_dot_product_oracle():
    rng = Rng(2)
    store, params = make_social(rng, 4)
    for _ in range(50):
        h_i = rng.normal(4)
        h_j = rng.normal(4)
        expected = float(np.dot(params.W_theta @ h_i, params.W_phi @ h_j))
        assert abs(relation(h_i, h_j, params) - expected) < 1e-12


def test_relation_shape_mismatch():
    rng = Rng(3)
    store, params = make_social(rng, 4)
    with pytest.raises(ValueError):
        relation(np.zeros(3), np.zeros(4), params)


# ---------------------------------------------------------------------------
# refinement forward


def test_single_agent_self_relation_cancels_normalizer():
    rng = Rng(4)
    store, params = make_social(rng, 5)
    hid = rng.normal((2, 5))
    out = refine(hid[None], params)
    expected = hid + hid @ params.W_g.T
    assert np.allclose(out[0], expected, atol=1e-12)


def test_zero_transform_is_identity():
    rng = Rng(5)
    store, params = make_social(rng, 4)
    params.W_g[...] = 0.0
    hidden, _ = random_queues(rng, 3, 2, 4)
    out = refine(hidden, params)
    assert np.allclose(out, hidden, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_matches_brute_force_oracle(n):
    rng = Rng(6 + n)
    store, params = make_social(rng, 2 if n == 2 else 5)
    q = 1 if n == 2 else 3
    hidden, _ = random_queues(rng, n, q, params.h)
    out = refine(hidden, params)
    expected = refine_oracle(hidden, params.W_theta, params.W_phi, params.W_g)
    assert np.allclose(out, expected, atol=1e-12)


def test_cell_queues_bitwise_unchanged(monkeypatch):
    # refinement leaves its input as it is, and the encoder's cell queues
    # hold exactly the cell steps' c_t: refinement never reaches them
    rng = Rng(10)
    store, params = make_social(rng, 6)
    hidden, _ = random_queues(rng, 3, 2, 6)
    before = hidden.copy()
    refine(hidden, params)
    assert np.array_equal(hidden, before)

    stepped = []
    cell_forward = model_module.cell_forward

    def recording_cell_forward(*args):
        out = cell_forward(*args)
        stepped.append(out[1].copy())  # c_t
        return out

    monkeypatch.setattr(model_module, "cell_forward", recording_cell_forward)
    model = MotionModel(ModelConfig(h=6, q=2, dec_h=4, use_latent=False), Rng(11))
    state = model.observe(rng.normal((3, 5, 2)), want_cells=True)
    assert np.array_equal(state.cells, np.stack(stepped, axis=1))
    assert np.array_equal(state.cell, np.stack(stepped[-2:], axis=1))


def test_offset_isolation():
    # refined entries at offset s read only offset-s inputs
    rng = Rng(11)
    store, params = make_social(rng, 4)
    hidden, _ = random_queues(rng, 2, 3, 4)
    out_a = refine(hidden, params)
    bumped = hidden.copy()
    bumped[1, 0] += 0.37  # oldest slot of agent 1
    out_b = refine(bumped, params)
    for i in range(2):
        assert np.array_equal(out_a[i, 1], out_b[i, 1])
        assert np.array_equal(out_a[i, 2], out_b[i, 2])
        assert not np.array_equal(out_a[i, 0], out_b[i, 0])


def test_near_zero_normalizer_skips_refinement():
    rng = Rng(13)
    store, params = make_social(rng, 2)
    params.W_theta[...] = np.eye(2)
    params.W_phi[...] = np.eye(2)
    # opposite features: Z_i = 1 - 1 = 0 exactly, both slots kept as-is
    hidden = np.array([[[1.0, 0.0]], [[-1.0, 0.0]]])
    out = refine(hidden, params)
    assert np.array_equal(out, hidden)


def test_softmax_mode_weights_sum_to_one():
    rng = Rng(14)
    store, params = make_social(rng, 4)
    hidden, _ = random_queues(rng, 3, 2, 4)
    out, cache = refine_forward(hidden, params, mode="softmax")
    for slot in cache.per_agent:
        for w, _ in slot:
            assert w is not None
            assert abs(w.sum() - 1.0) < 1e-12
            assert np.all(w > 0)


def test_inconsistent_queue_shapes_rejected():
    rng = Rng(15)
    store, params = make_social(rng, 4)
    with pytest.raises(ValueError):  # not (n, q, h)
        refine(rng.normal((2, 4)), params)
    with pytest.raises(ValueError):  # width other than the params' h
        refine(rng.normal((2, 3, 5)), params)


# ---------------------------------------------------------------------------
# backward


def test_backward_matches_finite_differences():
    rng = Rng(17)
    store, params = make_social(rng, 4)
    n, q = 3, 2
    hid = rng.normal((n, q, 4))

    def loss_from(hiddens):
        out = refine(hiddens, params)
        return float(sum((out[i] ** 2).sum() for i in range(n)))

    refined, cache = refine_forward(hid, params)
    store.zero_grads()
    d_in = refine_backward(cache, 2.0 * refined, params)

    eps = 1e-6
    # input gradients
    flat = hid.reshape(-1)
    gflat = d_in.reshape(-1)
    for idx in range(0, flat.size, 2):
        keep = flat[idx]
        flat[idx] = keep + eps
        fp = loss_from(hid)
        flat[idx] = keep - eps
        fm = loss_from(hid)
        flat[idx] = keep
        assert abs((fp - fm) / (2 * eps) - gflat[idx]) < 1e-6
    # parameter gradients
    for name in store.names():
        vflat = store.value(name).reshape(-1)
        aflat = store.grad(name).reshape(-1)
        for idx in range(0, vflat.size, 3):
            keep = vflat[idx]
            vflat[idx] = keep + eps
            fp = loss_from(hid)
            vflat[idx] = keep - eps
            fm = loss_from(hid)
            vflat[idx] = keep
            num = (fp - fm) / (2 * eps)
            assert abs(num - aflat[idx]) / max(abs(num), abs(aflat[idx]), 1e-8) < 1e-4


def test_stale_cache_rejected():
    rng = Rng(18)
    store, params = make_social(rng, 3)
    hidden, _ = random_queues(rng, 2, 1, 3)
    refined, cache = refine_forward(hidden, params)
    refine_backward(cache, refined, params)
    with pytest.raises(ValueError):
        refine_backward(cache, refined, params)
