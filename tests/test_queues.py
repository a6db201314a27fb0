import numpy as np
import pytest

from motionq.cell import CellParams, cell_forward
from motionq.model import ModelConfig, MotionModel
from motionq.numkit import ParamStore, Rng
from motionq.queues import push_pop


def observe(n, q, h, frames, use_social=True):
    cfg = ModelConfig(h=h, q=q, dec_h=4, use_social=use_social, use_latent=False)
    model = MotionModel(cfg, Rng(0))
    return model.observe(Rng(1).normal((n, frames, 2)))


def h_tilde(hidden):
    """The queue mean the cell's gates read, for one agent's (q, h) queue."""
    params = CellParams(ParamStore(), Rng(2), d=2, h=hidden.shape[1])
    _, _, cache = cell_forward(np.zeros((1, 2)), hidden[None], np.zeros_like(hidden)[None], params)
    return cache.h_tilde[0]


def test_init_shapes_and_zero_content():
    # after one frame only the newest slot of each (n, q, h) queue is filled
    state = observe(1, 3, 32, frames=1)
    assert state.hidden.shape == (1, 3, 32)
    assert state.cell.shape == (1, 3, 32)
    assert not state.hidden[:, :2].any() and not state.cell[:, :2].any()
    assert state.hidden[:, 2].any() and state.cell[:, 2].any()


def test_init_degenerate_single_slot():
    state = observe(2, 1, 4, frames=3, use_social=False)
    assert state.hidden.shape == (2, 1, 4) and state.cell.shape == (2, 1, 4)
    assert np.array_equal(state.hidden[:, 0], state.h_obs)


def test_init_rejects_zero_counts():
    for bad in [(0, 3, 4), (1, 0, 4), (1, 3, 0)]:
        n, _, h = bad
        with pytest.raises(ValueError):
            push_pop(np.zeros(bad), np.zeros(bad), np.zeros((n, h)), np.zeros((n, h)))


def test_queue_rejects_nonfinite():
    # queue entries come only from observe's cell steps, and observe refuses
    # a non-finite input before any entry is made
    cfg = ModelConfig(h=2, q=1, dec_h=4, use_latent=False)
    disp = np.zeros((1, 3, 2))
    disp[0, 1, 0] = np.inf
    with pytest.raises(ValueError):
        MotionModel(cfg, Rng(0)).observe(disp)


def test_push_pop_single_slot_fully_replaces():
    hidden, cell = push_pop(np.zeros((1, 1, 2)), np.zeros((1, 1, 2)),
                            np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]))
    assert np.array_equal(hidden, [[[1.0, 2.0]]])
    assert np.array_equal(cell, [[[3.0, 4.0]]])


def test_push_pop_hand_trace():
    # four pushes onto a q=3 zero queue leave the last three
    hidden = np.zeros((1, 3, 1))
    cell = np.zeros((1, 3, 1))
    for v in (1.0, 2.0, 3.0, 4.0):
        hidden, cell = push_pop(hidden, cell, np.array([[v]]), np.array([[-v]]))
    assert np.array_equal(hidden, [[[2.0], [3.0], [4.0]]])
    assert np.array_equal(cell, [[[-2.0], [-3.0], [-4.0]]])


def test_push_pop_length_preserved():
    hidden, cell = push_pop(np.zeros((2, 4, 3)), np.zeros((2, 4, 3)), np.ones((2, 3)), np.ones((2, 3)))
    assert hidden.shape == (2, 4, 3) and cell.shape == (2, 4, 3)


def test_push_pop_width_mismatch():
    with pytest.raises(ValueError):
        push_pop(np.zeros((1, 2, 3)), np.zeros((1, 2, 3)), np.ones((1, 4)), np.ones((1, 3)))
    with pytest.raises(ValueError):  # agent count
        push_pop(np.zeros((1, 2, 3)), np.zeros((1, 2, 3)), np.ones((2, 3)), np.ones((2, 3)))


def test_push_pop_value_semantics():
    rng = Rng(3)
    hidden, cell = rng.normal((2, 2, 2)), rng.normal((2, 2, 2))
    before = hidden.copy(), cell.copy()
    push_pop(hidden, cell, np.ones((2, 2)), np.ones((2, 2)))
    assert np.array_equal(hidden, before[0]) and np.array_equal(cell, before[1])


def test_full_turnover_after_q_pushes():
    # two agents with different queues hold the same entries after q equal pushes
    rng = Rng(0)
    q, h = 3, 4
    hidden, cell = rng.normal((2, q, h)), rng.normal((2, q, h))
    for _ in range(q):
        hv, cv = rng.normal(h), rng.normal(h)
        hidden, cell = push_pop(hidden, cell, np.stack([hv, hv]), np.stack([cv, cv]))
    assert np.array_equal(hidden[0], hidden[1])
    assert np.array_equal(cell[0], cell[1])


def test_mean_hidden_zero_queue():
    assert not h_tilde(np.zeros((3, 5))).any()


def test_mean_hidden_hand_value():
    assert np.array_equal(h_tilde(np.array([[2.0, 0.0], [0.0, 2.0]])), [1.0, 1.0])


def test_mean_hidden_single_slot_identity():
    entry = np.array([0.3, -0.7, 2.5])
    assert np.array_equal(h_tilde(entry[None]), entry)


def test_mean_hidden_permutation_invariant():
    rng = Rng(1)
    hid = rng.normal((4, 6))
    assert np.allclose(h_tilde(hid), h_tilde(hid[::-1].copy()), atol=1e-15)
