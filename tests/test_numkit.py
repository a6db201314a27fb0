import io
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from motionq.numkit import (
    ParamStore,
    Rng,
    cosine_sim,
    cosine_sim_grad,
    grad_check,
    read_tensors,
    sigmoid,
)

from oracles import assert_close_to_oracle, cosine_grad_oracle

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "rng_seed42.txt")


def naive_matmul(a, b):
    """Triple-loop matrix multiply oracle."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            s = 0.0
            for l in range(k):
                s += a[i, l] * b[l, j]
            out[i, j] = s
    return out


# ---------------------------------------------------------------- activations


@given(st.floats(min_value=-30, max_value=30))
def test_sigmoid_symmetry(x):
    assert abs(float(sigmoid(x)) + float(sigmoid(-x)) - 1.0) <= 1e-12


@given(st.floats(min_value=-15, max_value=15))
def test_tanh_sigmoid_identity(x):
    assert abs(np.tanh(x) - (2.0 * float(sigmoid(2.0 * x)) - 1.0)) <= 1e-12


def test_sigmoid_extremes_finite():
    out = sigmoid(np.array([-1e4, -50.0, 0.0, 50.0, 1e4]))
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0 and out[-1] == 1.0
    assert out[2] == 0.5


def test_sigmoid_matches_two_branch_exp_form():
    # the tanh form against the two exp branches it replaced, each of which
    # exponentiates only non-positive arguments
    x = np.linspace(-50.0, 50.0, 200001)
    ex = np.exp(-np.abs(x))
    two_branch = np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))
    assert np.abs(sigmoid(x) - two_branch).max() <= 1e-15


def test_sigmoid_far_tails_are_exact_without_floating_point_errors():
    with np.errstate(all="raise"):
        out = sigmoid(np.array([-1e4, 1e4]))
    assert out[0] == 0.0 and out[1] == 1.0


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        assert np.max(np.abs(a @ b - naive_matmul(a, b))) < 1e-12


# ---------------------------------------------------------------- cosine


def test_cosine_identical():
    assert cosine_sim([1.0, 0.0], [1.0, 0.0]) == 1.0


def test_cosine_orthogonal():
    assert cosine_sim([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_cosine_hand_value():
    assert abs(cosine_sim([1.0, 1.0], [1.0, 0.0]) - 0.7071067811865475) <= 1e-6


def test_cosine_shape_mismatch():
    with pytest.raises(ValueError):
        cosine_sim([1.0, 0.0], [1.0, 0.0, 0.0])


def test_cosine_zero_guard():
    assert cosine_sim([0.0, 0.0], [1.0, 2.0]) == 0.0
    c, da, db = cosine_sim_grad([[0.0, 0.0], [1.0, 0.0]], [[1.0, 2.0], [0.0, 0.0]])
    assert not c.any() and not da.any() and not db.any()


def test_cosine_rows_match_per_vector_oracle_bitwise():
    rng = np.random.default_rng(8)
    for _ in range(100):
        k, h = rng.integers(1, 9), rng.integers(1, 40)
        a = rng.standard_normal((k, h)) * 10.0 ** rng.integers(-3, 4)
        b = rng.standard_normal((k, h))
        a[rng.random(k) < 0.2] = 0.0
        b[rng.random(k) < 0.2] = 1e-13
        c, da, db = cosine_sim_grad(a, b)
        for r in range(k):
            oc, oda, odb = cosine_grad_oracle(a[r], b[r])
            assert_close_to_oracle(c[r], oc, "cos")
            assert_close_to_oracle(da[r], oda, "d_a")
            assert_close_to_oracle(db[r], odb, "d_b")


def test_cosine_grad_rejects_unaligned_rows():
    with pytest.raises(ValueError):
        cosine_sim_grad(np.ones((2, 3)), np.ones((3, 3)))
    with pytest.raises(ValueError):
        cosine_sim_grad(np.ones(3), np.ones(3))


@given(st.integers(min_value=0, max_value=10_000))
def test_cosine_bounded(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(4)
    b = rng.standard_normal(4)
    assert -1.0 <= cosine_sim(a, b) <= 1.0


def test_cosine_grad_matches_finite_difference():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 5))
    b = rng.standard_normal((3, 5))
    _, da, db = cosine_sim_grad(a, b)
    eps = 1e-6
    for r in range(3):
        for i in range(5):
            pa = a[r].copy()
            pa[i] += eps
            ma = a[r].copy()
            ma[i] -= eps
            num = (cosine_sim(pa, b[r]) - cosine_sim(ma, b[r])) / (2 * eps)
            assert abs(num - da[r, i]) < 1e-8
            pb = b[r].copy()
            pb[i] += eps
            mb = b[r].copy()
            mb[i] -= eps
            num = (cosine_sim(a[r], pb) - cosine_sim(a[r], mb)) / (2 * eps)
            assert abs(num - db[r, i]) < 1e-8


# ---------------------------------------------------------------- rng


def test_rng_golden_vector_seed_42():
    with open(GOLDEN) as fh:
        golden = [float.fromhex(line.strip()) for line in fh if not line.startswith("#")]
    draws = Rng(42).normal(16)
    assert len(golden) == 16
    assert np.array_equal(draws, np.array(golden))


def test_rng_same_seed_same_stream():
    a = Rng(123)
    b = Rng(123)
    assert np.array_equal(a.normal(100), b.normal(100))
    assert np.array_equal(a.uniform(-1, 1, 50), b.uniform(-1, 1, 50))
    assert np.array_equal(a.integers(0, 1000, 50), b.integers(0, 1000, 50))


# ---------------------------------------------------------------- param store


def test_paramstore_duplicate_name_rejected():
    store = ParamStore()
    store.add("w", np.zeros(3))
    with pytest.raises(ValueError):
        store.add("w", np.zeros(3))


def test_paramstore_rejects_nonfinite():
    store = ParamStore()
    with pytest.raises(ValueError):
        store.add("bad", np.array([1.0, np.nan]))


def test_paramstore_grad_shape_and_zeroing():
    store = ParamStore()
    w = store.add("w", np.ones((2, 3)))
    g = store.grad("w")
    assert g.shape == w.shape
    g += 5.0
    store.zero_grads()
    assert not store.grad("w").any()


def test_paramstore_load_shape_mismatch():
    store = ParamStore()
    store.add("w", np.zeros((2, 2)))
    other = ParamStore()
    other.add("w", np.zeros((2, 3)))
    with pytest.raises(ValueError, match="shape mismatch for w"):
        other.load_values(store.copy_values())


# ---------------------------------------------------------------- tensor blocks


def test_read_tensors_checks_declared_size_before_allocating():
    # 10^7 float64 values (80 MB) declared in front of a 16-byte payload
    block = io.BytesIO(b"tensors 1\ntensor w float64 1 10000000\n" + bytes(16))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="tensor w: truncated payload"):
            read_tensors(block)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------- grad check


def test_grad_check_quadratic():
    store = ParamStore()
    store.add("theta", np.array([3.0]))

    def f(s):
        th = s.value("theta")[0]
        s.grad("theta")[0] += 2.0 * th
        return th * th

    assert grad_check(f, store, eps=1e-5) < 1e-9


def test_grad_check_sigmoid_layer():
    rng = Rng(11)
    store = ParamStore()
    w = store.add("w", rng.normal((4, 3)))
    x = rng.normal(3)

    def f(s):
        pre = s.value("w") @ x
        out = sigmoid(pre)
        d_pre = out * (1 - out)
        s.grad("w")[...] += np.outer(d_pre, x)
        return float(out.sum())

    assert grad_check(f, store, eps=1e-5) < 1e-6


def test_grad_check_eps_range():
    store = ParamStore()
    store.add("t", np.array([1.0]))
    with pytest.raises(ValueError):
        grad_check(lambda s: 0.0, store, eps=1e-2)


def test_grad_check_nonfinite_loss():
    store = ParamStore()
    store.add("t", np.array([1.0]))
    with pytest.raises(FloatingPointError):
        grad_check(lambda s: float("nan"), store, eps=1e-5)
