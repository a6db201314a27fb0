import numpy as np
import pytest

from motionq import model as model_module
from motionq.model import ModelConfig, MotionModel
from motionq.numkit import ParamStore, Rng
from motionq.social import SocialParams, refine_backward, refine_forward

from oracles import assert_close_to_oracle, loop_refine, refine_oracle


def assert_matches_loop(hidden, d_out, seed, h):
    """Array and loop refinement from twin parameter stores whose gradient
    slots start from the same non-zero values."""
    results = []
    for run in ("array", "loop"):
        store, params = make_social(Rng(seed), h)
        for name in store.names():
            store.grad(name)[...] = Rng(seed + 1).normal((h, h))
        if run == "array":
            out, cache = refine_forward(hidden, params)
            d_in = refine_backward(cache, d_out, params)
        else:
            out, d_in = loop_refine(hidden, d_out, params)
        results.append([out, d_in] + [store.grad(name).copy() for name in store.names()])
    for label, got, want in zip(("refined", "d_in", "dW_theta", "dW_phi", "dW_g"), *results):
        assert_close_to_oracle(got, want, label)


def make_social(rng, h):
    store = ParamStore()
    params = SocialParams(store, rng, h)
    return store, params


def random_queues(rng, n, q, h):
    """(hidden, cell), each (n, q, h), drawn agent by agent."""
    draws = rng.normal((n, 2, q, h))
    return draws[:, 0], draws[:, 1]


def refine(hidden, params):
    return refine_forward(hidden, params)[0]


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


def test_softmax_mode_weights_sum_to_one():
    rng = Rng(14)
    store, params = make_social(rng, 4)
    hidden, _ = random_queues(rng, 3, 2, 4)
    out, cache = refine_forward(hidden, params)
    assert cache.W.shape == (2, 3, 3)  # (q, n, n)
    for w in cache.W.reshape(-1, 3):
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


# one relation, named in the test ids so they match earlier runs of this sweep
@pytest.mark.parametrize("relation", ["softmax"])
@pytest.mark.parametrize("q", [1, 2, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 16])
def test_matches_loop_oracle_bitwise(n, q, relation):
    rng = Rng(100 + 10 * n + q)
    h = {1: 2, 2: 8, 3: 5, 5: 16, 16: 32}[n]
    hidden = rng.normal((n, q, h))
    d_out = rng.normal((n, q, h))
    assert_matches_loop(hidden, d_out, 200 + n, h)


def test_stale_cache_rejected():
    rng = Rng(18)
    store, params = make_social(rng, 3)
    hidden, _ = random_queues(rng, 2, 1, 3)
    refined, cache = refine_forward(hidden, params)
    refine_backward(cache, refined, params)
    with pytest.raises(ValueError):
        refine_backward(cache, refined, params)
