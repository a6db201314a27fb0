import numpy as np
import pytest

from motionq.cell import CellParams, cell_backward, cell_forward
from motionq.numkit import ParamStore, Rng, grad_check, sigmoid

from oracles import (
    assert_close_to_oracle,
    lstm_oracle_backward,
    lstm_oracle_forward,
    oracle_cell_backward,
    oracle_cell_forward,
    oracle_params_from_cell,
)


def make_cell(rng, d=2, h=8):
    store = ParamStore()
    params = CellParams(store, rng, d=d, h=h)
    return store, params


def step(m_t, hid, cel, params):
    """One agent's step: (d,) input and (q, h) queues as a batch of one."""
    return cell_forward(m_t[None], hid[None], cel[None], params)


def randomize(store, rng, scale=0.8):
    for name in store.names():
        val = store.value(name)
        val[...] = scale * rng.normal(val.shape)


# ---------------------------------------------------------------------------
# forward


def test_zero_params_zero_queue_gives_zero_state():
    rng = Rng(0)
    store, params = make_cell(rng, h=6)
    for name in store.names():
        store.value(name)[...] = 0.0
    h_t, c_t, _ = cell_forward(np.array([[0.7, -1.2]]), np.zeros((1, 3, 6)),
                               np.zeros((1, 3, 6)), params)
    assert not h_t.any() and not c_t.any()


def test_zero_cell_children_leave_only_input_path():
    # queue with zero cell entries: c_t must equal g * u exactly
    rng = Rng(1)
    store, params = make_cell(rng, h=5)
    randomize(store, rng)
    m_t = rng.normal(2)
    hid = rng.normal((3, 5))
    h_t, c_t, _ = step(m_t, hid, np.zeros((3, 5)), params)
    h_tilde = hid.mean(axis=0)
    g = sigmoid(params.W["g"] @ m_t + params.U["g"] @ h_tilde + params.b["g"])
    u = np.tanh(params.W["u"] @ m_t + params.U["u"] @ h_tilde + params.b["u"])
    assert np.array_equal(c_t[0], g * u)


def test_width_mismatch_rejected():
    rng = Rng(2)
    store, params = make_cell(rng, h=4)
    with pytest.raises(ValueError):  # queue width
        cell_forward(np.zeros((1, 2)), np.zeros((1, 2, 5)), np.zeros((1, 2, 5)), params)
    with pytest.raises(ValueError):  # input width
        cell_forward(np.zeros((1, 3)), np.zeros((1, 2, 4)), np.zeros((1, 2, 4)), params)
    with pytest.raises(ValueError):  # agent count
        cell_forward(np.zeros((2, 2)), np.zeros((1, 2, 4)), np.zeros((1, 2, 4)), params)
    with pytest.raises(ValueError):  # hidden and cell queues differ
        cell_forward(np.zeros((1, 2)), np.zeros((1, 2, 4)), np.zeros((1, 3, 4)), params)
    with pytest.raises(ValueError):  # empty queue
        cell_forward(np.zeros((1, 2)), np.zeros((1, 0, 4)), np.zeros((1, 0, 4)), params)


def test_gate_ranges():
    rng = Rng(3)
    store, params = make_cell(rng, h=8)
    randomize(store, rng, scale=2.0)
    hid, cel = rng.normal((4, 8)), rng.normal((4, 8))
    _, _, cache = step(rng.normal(2), hid, cel, params)
    for arr in (cache.g, cache.o, cache.f):
        assert np.all(arr > 0) and np.all(arr < 1)
    assert np.all(np.abs(cache.u) < 1)
    assert np.all(np.abs(cache.tanh_c) < 1)


def test_cell_state_linear_in_cell_children():
    # doubling one cell child moves c_t by exactly f_l * c_l
    rng = Rng(4)
    store, params = make_cell(rng, h=6)
    randomize(store, rng)
    m_t = rng.normal(2)
    hid = rng.normal((3, 6))
    cel = rng.normal((3, 6))
    _, c_base, cache = step(m_t, hid, cel, params)
    doubled = cel.copy()
    doubled[1] *= 2.0
    _, c2, _ = step(m_t, hid, doubled, params)
    assert np.allclose(c2[0] - c_base[0], cache.f[0, 1] * cel[1], atol=1e-12)


# ---------------------------------------------------------------------------
# q=1 degeneration against the oracle


def test_q1_forward_matches_vanilla_lstm_bitwise():
    rng = Rng(5)
    store, params = make_cell(rng, h=8)
    oracle_p = oracle_params_from_cell(params)
    for trial in range(200):
        randomize(store, rng)
        m_t = rng.normal(2)
        h_prev = rng.normal(8)
        c_prev = rng.normal(8)
        h_t, c_t, _ = step(m_t, h_prev[None], c_prev[None], params)
        h_ref, c_ref, _ = lstm_oracle_forward(m_t, h_prev, c_prev, oracle_p)
        assert np.array_equal(h_t[0], h_ref)
        assert np.array_equal(c_t[0], c_ref)


def test_q1_backward_matches_vanilla_lstm():
    rng = Rng(6)
    store, params = make_cell(rng, h=8)
    oracle_p = oracle_params_from_cell(params)
    for trial in range(200):
        randomize(store, rng)
        m_t = rng.normal(2)
        h_prev = rng.normal(8)
        c_prev = rng.normal(8)
        d_h = rng.normal(8)
        d_c = rng.normal(8)
        h_t, c_t, cache = step(m_t, h_prev[None], c_prev[None], params)
        store.zero_grads()
        d_m, d_hid, d_cel = cell_backward(cache, d_h[None], d_c[None], params)
        _, _, oc = lstm_oracle_forward(m_t, h_prev, c_prev, oracle_p)
        d_x_ref, d_h_ref, d_c_ref, grads_ref = lstm_oracle_backward(oc, d_h, d_c, oracle_p)
        assert np.allclose(d_m[0], d_x_ref, atol=1e-10)
        assert np.allclose(d_hid[0, 0], d_h_ref, atol=1e-10)
        assert np.allclose(d_cel[0, 0], d_c_ref, atol=1e-10)
        gate_map = {"g": "i", "f": "f", "o": "o", "u": "u"}
        for gate, og in gate_map.items():
            assert np.allclose(params.dW[gate], grads_ref["W" + og], atol=1e-10)
            assert np.allclose(params.dU[gate], grads_ref["U" + og], atol=1e-10)
            assert np.allclose(params.db[gate], grads_ref["b" + og], atol=1e-10)


# ---------------------------------------------------------------------------
# backward


def test_zero_upstream_gives_zero_param_grads():
    rng = Rng(7)
    store, params = make_cell(rng, h=6)
    randomize(store, rng)
    hid, cel = rng.normal((3, 6)), rng.normal((3, 6))
    _, _, cache = step(rng.normal(2), hid, cel, params)
    store.zero_grads()
    cell_backward(cache, np.zeros((1, 6)), np.zeros((1, 6)), params)
    for name in store.names():
        assert not store.grad(name).any()


def test_stale_cache_rejected():
    rng = Rng(8)
    store, params = make_cell(rng, h=4)
    _, _, cache = step(np.zeros(2), np.zeros((2, 4)), np.zeros((2, 4)), params)
    cell_backward(cache, np.zeros((1, 4)), np.zeros((1, 4)), params)
    with pytest.raises(ValueError):
        cell_backward(cache, np.zeros((1, 4)), np.zeros((1, 4)), params)


# seeds keep every gradient entry well above the central-difference roundoff
# floor (~1e-11 absolute at eps=1e-5); the formulas themselves are checked
# exactly against the oracle in the q=1 tests above
@pytest.mark.parametrize("q,seed", [(1, 103), (2, 103), (3, 103), (4, 104)])
def test_grad_check_squared_hidden_norm(q, seed):
    rng = Rng(seed)
    store, params = make_cell(rng, h=8)
    randomize(store, rng)
    m_t = rng.normal(2)
    hid, cel = rng.normal((q, 8)), rng.normal((q, 8))

    def f(s):
        h_t, _, cache = step(m_t, hid, cel, params)
        cell_backward(cache, 2.0 * h_t, np.zeros((1, 8)), params)
        return float((h_t ** 2).sum())

    def f_value(s):
        h_t, _, _ = step(m_t, hid, cel, params)
        return float((h_t ** 2).sum())

    assert grad_check(f, store, eps=1e-5, f_value=f_value) < 1e-4


def test_queue_entry_gradients_match_finite_differences():
    rng = Rng(9)
    store, params = make_cell(rng, h=6)
    randomize(store, rng)
    m_t = rng.normal(2)
    hid = rng.normal((3, 6))
    cel = rng.normal((3, 6))

    def loss(hid_in, cel_in):
        h_t, c_t, _ = step(m_t, hid_in, cel_in, params)
        return float((h_t ** 2).sum() + (c_t ** 2).sum())

    h_t, c_t, cache = step(m_t, hid, cel, params)
    _, d_hid, d_cel = cell_backward(cache, 2.0 * h_t, 2.0 * c_t, params)
    d_hid, d_cel = d_hid[0], d_cel[0]
    eps = 1e-6
    for arr, grad in ((hid, d_hid), (cel, d_cel)):
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for idx in range(0, flat.size, 3):
            keep = flat[idx]
            flat[idx] = keep + eps
            fp = loss(hid, cel)
            flat[idx] = keep - eps
            fm = loss(hid, cel)
            flat[idx] = keep
            num = (fp - fm) / (2 * eps)
            assert abs(num - gflat[idx]) < 1e-6


# ---------------------------------------------------------------------------
# the batched cell against the per-agent oracle


def oracle_case(n, q):
    rng = Rng(100 + 10 * n + q)
    store, params = make_cell(rng, h=32)
    randomize(store, rng, scale=0.3)
    m_t = rng.normal((n, 2))
    hidden = rng.normal((n, q, 32))
    cell = rng.normal((n, q, 32))
    return rng, store, params, (m_t, hidden, cell)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_batched_cell_matches_per_agent_oracle_bitwise(n, q):
    _, _, params, inputs = oracle_case(n, q)
    h_t, c_t, cache = cell_forward(*inputs, params)
    h_ref, c_ref, caches = oracle_cell_forward(*inputs, params)
    assert_close_to_oracle(h_t, h_ref, "h_t")
    assert_close_to_oracle(c_t, c_ref, "c_t")
    for key in ("m", "hidden", "cell", "h_tilde", "g", "o", "u", "f", "tanh_c"):
        assert_close_to_oracle(getattr(cache, key), np.stack([c[key] for c in caches]), key)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_batched_cell_backward_matches_per_agent_oracle(n, q):
    rng, store, params, inputs = oracle_case(n, q)
    d_h = rng.normal((n, 32))
    d_c = rng.normal((n, 32))
    # non-zero starting slots: the backward adds to them
    start = {name: rng.normal(store.grad(name).shape) for name in store.names()}

    outs = []
    for forward, backward in ((cell_forward, cell_backward),
                              (oracle_cell_forward, oracle_cell_backward)):
        _, _, cache = forward(*inputs, params)
        for name in store.names():
            store.grad(name)[...] = start[name]
        returned = backward(cache, d_h, d_c, params)
        outs.append((returned, {name: store.grad(name).copy() for name in store.names()}))
    (got, got_grads), (want, want_grads) = outs
    for a, b in zip(got, want):
        assert_close_to_oracle(a, b)
    for name in want_grads:
        assert_close_to_oracle(got_grads[name], want_grads[name], name)
