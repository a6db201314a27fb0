import hashlib
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from motionq.data import synth_dataset
from motionq.model import MotionModel
from motionq.numkit import ParamStore, Rng
from motionq.objectives import MetricsReport, nonlinear_filter, per_agent_best_metrics
from motionq.trainer import (
    AdamState,
    TrainConfig,
    adam_step,
    build_model,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def micro_train_cfg(**overrides):
    base = dict(h=8, z_dim=4, q=2, dec_h=8, obs_len=8, pred_len=12,
                m=2, pairs_per_batch=8, batch_size=2, lr=1e-3, epochs=2,
                seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def micro_scenes(kind="turning", count=3, seed=0, noise=0.01):
    return synth_dataset(kind, count, Rng(seed), n_agents=2, noise=noise)


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradients_leave_params():
    store = ParamStore()
    store.add("w", np.array([1.0, -2.0]))
    state = AdamState(store)
    adam_step(store, state, lr=0.1)
    assert np.array_equal(store.value("w"), [1.0, -2.0])
    assert state.t == 1


def test_adam_first_step_hand_trace():
    # theta = 0, g = 1, lr = 0.1: bias-corrected ratio is 1, step is -0.1
    store = ParamStore()
    store.add("theta", np.array([0.0]))
    store.grad("theta")[0] = 1.0
    state = AdamState(store)
    adam_step(store, state, lr=0.1)
    assert abs(store.value("theta")[0] + 0.1) < 1e-8


def test_adam_constant_gradient_keeps_unit_steps():
    store = ParamStore()
    store.add("theta", np.array([0.0]))
    state = AdamState(store)
    for k in range(1, 6):
        store.zero_grads()
        store.grad("theta")[0] = 1.0
        adam_step(store, state, lr=0.1)
        assert state.t == k
    assert abs(store.value("theta")[0] + 0.5) < 1e-6


def test_adam_nonfinite_gradient_names_parameter():
    store = ParamStore()
    store.add("enc.w", np.zeros(2))
    store.add("dec.w", np.zeros(2))
    store.grad("dec.w")[0] = np.inf
    state = AdamState(store)
    with pytest.raises(FloatingPointError, match="dec.w"):
        adam_step(store, state, lr=0.1)


# ---------------------------------------------------------------------------
# config


def test_config_text_roundtrip():
    cfg = micro_train_cfg(lam=0.25, use_social=False, sigma_bias=-2.5, precision="32")
    parsed = TrainConfig.from_text(cfg.to_text())
    assert parsed == cfg
    assert parsed.digest() == cfg.digest()


def test_config_rejects_unknown_key():
    with pytest.raises(ValueError):
        TrainConfig.from_text("not_a_field = 3\n")


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(m=0)
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)


def test_config_rejects_bad_bool_naming_line_and_key():
    with pytest.raises(ValueError, match="line 2: use_social"):
        TrainConfig.from_text("m = 2\nuse_social = Ture\n")
    for word, value in (("1", True), ("no", False), ("True", True), ("FALSE", False)):
        assert TrainConfig.from_text(f"use_latent = {word}\n").use_latent is value


def test_config_rejects_bad_number_naming_line_and_key():
    with pytest.raises(ValueError, match="line 1: m expects an integer"):
        TrainConfig.from_text("m = 2.5\n")


@pytest.mark.parametrize("key,bad,refused", [
    pytest.param("precision", "16", ValueError, id="precision-16"),
    # a retired field: a config file names it as an unknown key, and the
    # constructor has no such keyword
    pytest.param("relation_mode", "cosine", TypeError, id="relation_mode-cosine"),
])
def test_config_rejects_values_outside_their_sets(key, bad, refused):
    with pytest.raises(ValueError, match=key):
        TrainConfig.from_text(f"{key} = {bad}\n")
    with pytest.raises(refused, match=key):
        TrainConfig(**{key: bad})


@pytest.mark.parametrize("key,bad", [
    ("pairs_per_batch", 0), ("pairs_per_batch", -3), ("lam", -0.1), ("lam", float("nan")),
    ("margin", -0.1), ("margin", 1.5), ("checkpoint_every", -1),
    ("lr", float("inf")), ("lr", float("nan")), ("lam", float("inf")),
    ("margin", float("inf")), ("sigma_bias", float("inf")), ("sigma_bias", float("-inf")),
    ("sigma_bias", float("nan")),
])
def test_config_rejects_values_outside_their_ranges(key, bad):
    with pytest.raises(ValueError, match=key):
        TrainConfig(**{key: bad})
    with pytest.raises(ValueError, match=key):
        TrainConfig.from_text(f"{key} = {bad}\n")


def test_config_range_edges_stay_valid():
    TrainConfig(checkpoint_every=0, lam=0.0, margin=0.0, pairs_per_batch=1)
    TrainConfig(margin=1.0)


# ---------------------------------------------------------------------------
# training loop


def test_train_rejects_empty_dataset(tmp_path):
    with pytest.raises(ValueError):
        train(micro_train_cfg(), [], tmp_path)


def test_train_deterministic_and_finite(tmp_path):
    cfg = micro_train_cfg()
    scenes = micro_scenes()
    _, curve_a = train(cfg, scenes, tmp_path / "a")
    _, curve_b = train(cfg, scenes, tmp_path / "b")
    assert curve_a == curve_b
    assert all(np.isfinite(row[2]) for row in curve_a)
    ckpt_a = (tmp_path / "a" / "final.ckpt").read_bytes()
    ckpt_b = (tmp_path / "b" / "final.ckpt").read_bytes()
    assert ckpt_a == ckpt_b


def test_train_lambda_zero_total_equals_variety(tmp_path):
    cfg = micro_train_cfg(lam=0.0)
    _, curve = train(cfg, micro_scenes(), tmp_path)
    for _, _, total, _, variety in curve:
        assert abs(total - variety) < 1e-12


def test_single_step_decreases_loss_small_lr():
    cfg = micro_train_cfg(lr=1e-4)
    model = build_model(cfg)
    scenes = micro_scenes(count=2)
    state = AdamState(model.store)
    loss_cfg = cfg.loss_config()

    def batch_loss(grad):
        model.store.zero_grads()
        rng = Rng(5)
        total = 0.0
        for scene in scenes:
            fn = model.loss_and_grad if grad else model.loss
            total += fn(scene, loss_cfg, rng)["total"]
        return total / len(scenes)

    before = batch_loss(grad=True)
    model.store.scale_grads(1.0 / len(scenes))
    adam_step(model.store, state, cfg.lr)
    after = batch_loss(grad=False)
    assert after < before


def test_loss_curve_file_written(tmp_path):
    cfg = micro_train_cfg(epochs=1)
    train(cfg, micro_scenes(count=2), tmp_path)
    lines = (tmp_path / "loss_curve.txt").read_text().strip().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 2  # header + one batch


# ---------------------------------------------------------------------------
# evaluation and checkpointing


def test_evaluate_deterministic_and_monotone_in_m(tmp_path):
    cfg = micro_train_cfg(epochs=1)
    scenes = micro_scenes(count=3, noise=0.02)
    model, _ = train(cfg, scenes, tmp_path)
    rep_a = evaluate(model, scenes, 5, seed=99)
    rep_b = evaluate(model, scenes, 5, seed=99)
    assert rep_a == rep_b
    rep_1 = evaluate(model, scenes, 1, seed=99)
    rep_20 = evaluate(model, scenes, 20, seed=99)
    assert rep_20.ade <= rep_1.ade


def test_checkpoint_roundtrip_preserves_evaluation(tmp_path):
    cfg = micro_train_cfg(epochs=1)
    scenes = micro_scenes(count=2, noise=0.02)
    model, _ = train(cfg, scenes, tmp_path)
    before = evaluate(model, scenes, 4, seed=7)
    loaded_cfg, loaded, state, epoch = load_checkpoint(tmp_path / "final.ckpt")
    assert loaded_cfg == cfg
    assert epoch == cfg.epochs - 1
    for name in model.store.names():
        assert np.array_equal(model.store.value(name), loaded.store.value(name))
    after = evaluate(loaded, scenes, 4, seed=7)
    assert before == after


def test_checkpoint_hash_mismatch_rejected(tmp_path):
    cfg = micro_train_cfg(epochs=1)
    model = build_model(cfg)
    state = AdamState(model.store)
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, model.store, state, cfg, 0)
    data = path.read_bytes().replace(b"seed = 0", b"seed = 1")
    path.write_bytes(data)
    with pytest.raises(ValueError, match="hash"):
        load_checkpoint(path)


def assert_same_training_state(store, state, ref_store, ref_state):
    assert state.t == ref_state.t
    for name in ref_store.names():
        assert np.array_equal(store.value(name), ref_store.value(name)), name
        assert store.value(name).dtype == ref_store.value(name).dtype, name
        assert np.array_equal(state.m[name], ref_state.m[name]), name
        assert np.array_equal(state.v[name], ref_state.v[name]), name


def test_checkpoint_v1_is_refused_naming_path(tmp_path):
    # checkpoint-v1 files (text tensor blocks) are no longer read
    cfg = micro_train_cfg(epochs=1)
    model = build_model(cfg)
    path = tmp_path / "v1.ckpt"
    save_checkpoint(path, model.store, AdamState(model.store), cfg, 0)
    path.write_bytes(path.read_bytes().replace(b"checkpoint-v2\n", b"checkpoint-v1\n", 1))
    with pytest.raises(ValueError, match=re.escape(f"{path}: not a checkpoint file")):
        load_checkpoint(path)


def with_retired_keys(cfg, sigma_transform="sigmoid", variety_mode="concat", adam_eps="1e-08",
                      relation_mode="softmax"):
    """cfg's config text as older code wrote it: each retired key on the line
    where TrainConfig declared it, and a `dataset` line last."""
    text = cfg.to_text()
    for before, line in (("sigma_bias", f"sigma_transform = {sigma_transform}"),
                         ("lam", f"relation_mode = {relation_mode}"),
                         ("batch_size", f"variety_mode = {variety_mode}"),
                         ("epochs", f"beta1 = 0.9\nbeta2 = 0.999\nadam_eps = {adam_eps}"),
                         ("eval_seed", "eval_samples = 3")):
        assert f"\n{before} = " in text
        text = text.replace(f"\n{before} = ", f"\n{line}\n{before} = ")
    return text + "dataset = zara1\n"


def with_config_text(data, cfg, legacy_cfg):
    """Checkpoint bytes written with cfg, their header rewritten to carry
    legacy_cfg, with its line count and hash."""
    cfg_text = cfg.to_text().encode()
    end = data.index(cfg_text) + len(cfg_text)  # the header ends with the config
    head = (data[:end]
            .replace(f"hash {cfg.digest()}\n".encode(),
                     f"hash {hashlib.sha256(legacy_cfg.encode()).hexdigest()}\n".encode())
            .replace(f"config-lines {len(cfg_text.splitlines())}\n".encode(),
                     f"config-lines {len(legacy_cfg.splitlines())}\n".encode())
            .replace(cfg_text, legacy_cfg.encode()))
    return head + data[end:]


def test_v2_checkpoint_with_retired_keys_resumes_bitwise(tmp_path):
    scenes = micro_scenes(count=4)
    _, full_curve = train(micro_train_cfg(epochs=2), scenes, tmp_path / "full")
    cfg = micro_train_cfg(epochs=1)
    _, head = train(cfg, scenes, tmp_path / "head")
    data = (tmp_path / "head" / "last.ckpt").read_bytes()
    legacy = tmp_path / "legacy.ckpt"
    legacy.write_bytes(with_config_text(data, cfg, with_retired_keys(cfg)))
    assert load_checkpoint(legacy)[0] == cfg
    _, tail = train(micro_train_cfg(epochs=2), scenes, tmp_path / "tail", resume=legacy)
    assert head + tail == full_curve
    assert ((tmp_path / "tail" / "final.ckpt").read_bytes()
            == (tmp_path / "full" / "final.ckpt").read_bytes())
    # a retired switch set to the behaviour that was removed is refused by name
    for refused, key in ((with_retired_keys(cfg, variety_mode="per_frame"), "variety_mode"),
                         (with_retired_keys(cfg, adam_eps="1e-06"), "adam_eps"),
                         (with_retired_keys(cfg, relation_mode="signed"), "relation_mode"),
                         (with_retired_keys(cfg, sigma_transform="softplus"), "sigma_transform")):
        legacy.write_bytes(with_config_text(data, cfg, refused))
        with pytest.raises(ValueError, match=re.escape(f"{legacy}: ") + f".*'{key}'"):
            train(micro_train_cfg(epochs=2), scenes, tmp_path / "tail", resume=legacy)
    # outside a stored config, a retired key is an unknown key
    for line in ("dataset = zara1", "variety_mode = concat", "sigma_transform = sigmoid",
                 "eval_samples = 20", "beta1 = 0.9", "beta2 = 0.999", "adam_eps = 1e-08",
                 "relation_mode = softmax"):
        with pytest.raises(ValueError, match=f"unknown key '{line.split()[0]}'"):
            TrainConfig.from_text(line + "\n")


def test_checkpoint_preserves_adam_state(tmp_path):
    cfg = micro_train_cfg(epochs=2)
    scenes = micro_scenes(count=2)
    train(cfg, scenes, tmp_path)
    _, _, state, _ = load_checkpoint(tmp_path / "final.ckpt")
    assert state.t == len(scenes) // cfg.batch_size * cfg.epochs
    assert any(state.m[name].any() for name in state.m)


def test_evaluate_nonlinear_only_filter(tmp_path):
    cfg = micro_train_cfg(epochs=1)
    turning = micro_scenes("turning", count=2, noise=0.0)
    parallel = micro_scenes("parallel", count=2, noise=0.0)
    model, _ = train(cfg, turning, tmp_path)
    rep = evaluate(model, turning + parallel, 2, seed=3, nonlinear_only=True)
    assert rep.n_agents == sum(s.n_agents for s in turning)  # straight walkers excluded
    with pytest.raises(ValueError):
        evaluate(model, parallel, 2, seed=3, nonlinear_only=True)


def evaluate_oracle(model, scenes, m, seed=1234, nonlinear_only=False, horizons=()):
    """List-building reference for evaluate's aggregation."""
    rng = Rng(seed)
    ades, fdes, tccs = [], [], []
    hz_acc = {k: {"ade": [], "fde": [], "tcc": []} for k in horizons}
    for scene in scenes:
        preds = model.predict(scene, m, rng)
        keep = list(range(scene.n_agents))
        if nonlinear_only:
            keep = [i for i in keep if nonlinear_filter(scene.positions[i])]
            if not keep:
                continue
        stats = per_agent_best_metrics(scene.future()[keep], preds.positions[:, keep],
                                       horizons=horizons)
        ades.extend(stats["ade"].tolist())
        fdes.extend(stats["fde"].tolist())
        tccs.extend(stats["tcc"].tolist())
        for k, vals in stats["horizons"].items():
            hz_acc[k]["ade"].extend(vals["ade"].tolist())
            hz_acc[k]["fde"].extend(vals["fde"].tolist())
            hz_acc[k]["tcc"].extend(v for v in vals["tcc"].tolist() if not np.isnan(v))
    per_h = {}
    for k, acc in hz_acc.items():
        if acc["ade"]:
            per_h[k] = (float(np.mean(acc["ade"])), float(np.mean(acc["fde"])),
                        float(np.mean(acc["tcc"])) if acc["tcc"] else None)
    return MetricsReport(ade=float(np.mean(ades)), fde=float(np.mean(fdes)),
                         tcc=float(np.mean(tccs)), n_agents=len(ades), per_horizon=per_h)


@pytest.mark.parametrize("m", [1, 6])
def test_evaluate_matches_list_oracle_bitwise(m):
    # horizons of 1 frame, inside and beyond pred_len; with nonlinear_only a
    # parallel scene keeps no agent and a turning scene keeps some
    model = build_model(micro_train_cfg(pred_len=5))
    scenes = (synth_dataset("turning", 3, Rng(4), n_agents=3, noise=0.05, pred_len=5)
              + synth_dataset("parallel", 2, Rng(5), n_agents=2, pred_len=5)
              + synth_dataset("crossroad", 1, Rng(6), n_agents=9, noise=0.05, pred_len=5))
    horizons = (1, 2, 4, 5, 9)
    for nonlinear_only in (False, True):
        rep = evaluate(model, scenes, m, seed=8, nonlinear_only=nonlinear_only,
                       horizons=horizons)
        ref = evaluate_oracle(model, scenes, m, seed=8, nonlinear_only=nonlinear_only,
                              horizons=horizons)
        assert rep == ref
        assert set(rep.per_horizon) == {1, 2, 4, 5} and rep.per_horizon[1][2] is None


def test_interrupted_checkpoint_save_keeps_previous(tmp_path, monkeypatch):
    import motionq.trainer as T

    cfg = micro_train_cfg(epochs=1)
    model = build_model(cfg)
    state = AdamState(model.store)
    path = tmp_path / "last.ckpt"
    save_checkpoint(path, model.store, state, cfg, 0)
    before = path.read_bytes()

    calls = []
    real = T.write_tensors

    def fail_on_second_block(fh, mapping):
        calls.append(1)
        if len(calls) == 2:
            raise KeyboardInterrupt("interrupted mid-save")
        real(fh, mapping)

    monkeypatch.setattr(T, "write_tensors", fail_on_second_block)
    model.store.value(model.store.names()[0])[...] += 1.0
    with pytest.raises(KeyboardInterrupt):
        save_checkpoint(path, model.store, state, cfg, 1)
    assert len(calls) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["last.ckpt"]
    assert path.read_bytes() == before
    _, _, _, epoch = load_checkpoint(path)
    assert epoch == 0


def test_float32_checkpoint_roundtrip_bitwise(tmp_path):
    cfg = micro_train_cfg(epochs=1, precision="32")
    model, _ = train(cfg, micro_scenes(count=2), tmp_path)
    data = (tmp_path / "final.ckpt").read_bytes()
    assert b" float32 " in data and b" float64 " not in data
    loaded_cfg, loaded, state, _ = load_checkpoint(tmp_path / "final.ckpt")
    assert loaded_cfg == cfg
    for name in model.store.names():
        assert loaded.store.value(name).dtype == np.float32
        assert state.m[name].dtype == np.float32 and state.v[name].dtype == np.float32
        assert loaded.store.value(name).tobytes() == model.store.value(name).tobytes(), name


def test_malformed_checkpoint_fails_naming_path(tmp_path):
    cfg = micro_train_cfg(epochs=1)
    model = build_model(cfg)
    state = AdamState(model.store)
    good = tmp_path / "good.ckpt"
    save_checkpoint(good, model.store, state, cfg, 0)
    data = good.read_bytes()
    blocks = [m.start() for m in re.finditer(rb"tensors \d+\n", data)]
    assert len(blocks) == 3  # parameters, Adam m, Adam v
    cuts = [0, 5, blocks[0] // 2, len(data) - 1]
    for start, end in zip(blocks, blocks[1:] + [len(data)]):
        line_end = data.index(b"\n", data.index(b"\n", start) + 1)  # first tensor's header
        cuts += [start, start + 4, line_end - 3, line_end + 1, line_end + 9, (start + end) // 2,
                 end - 1]
    bad = tmp_path / "bad.ckpt"
    for cut in cuts:
        bad.write_bytes(data[:cut])
        with pytest.raises(ValueError, match=re.escape(str(bad))):
            load_checkpoint(bad)
    cases = [
        (data + b"\0", "trailing bytes"),
        (data.replace(b" float64 ", b" float16 ", 1), "unknown dtype 'float16'"),
        (b"checkpoint-v3" + data[len(b"checkpoint-v2"):], "not a checkpoint file"),
    ]
    for broken, reason in cases:
        bad.write_bytes(broken)
        with pytest.raises(ValueError, match=re.escape(f"{bad}: ") + ".*" + re.escape(reason)):
            load_checkpoint(bad)


def test_resume_matches_uninterrupted_run_bitwise(tmp_path):
    scenes = micro_scenes(count=4)
    full_model, full_curve = train(micro_train_cfg(epochs=3), scenes, tmp_path / "full")
    _, head = train(micro_train_cfg(epochs=1), scenes, tmp_path / "head")
    model, tail = train(micro_train_cfg(epochs=3), scenes, tmp_path / "tail",
                        resume=tmp_path / "head" / "last.ckpt")
    assert [row[:2] for row in tail] == [(1, 2), (1, 3), (2, 4), (2, 5)]
    assert head + tail == full_curve
    _, _, full_state, _ = load_checkpoint(tmp_path / "full" / "final.ckpt")
    _, _, state, _ = load_checkpoint(tmp_path / "tail" / "final.ckpt")
    assert_same_training_state(model.store, state, full_model.store, full_state)
    assert ((tmp_path / "tail" / "final.ckpt").read_bytes()
            == (tmp_path / "full" / "final.ckpt").read_bytes())


def test_resume_rejects_other_config_or_missing_streams(tmp_path):
    scenes = micro_scenes(count=2)
    train(micro_train_cfg(epochs=2), scenes, tmp_path / "a")
    ckpt = tmp_path / "a" / "final.ckpt"
    with pytest.raises(ValueError, match="config differs in lr"):
        train(micro_train_cfg(epochs=3, lr=2e-3), scenes, tmp_path / "b", resume=ckpt)
    with pytest.raises(ValueError, match="epoch 1 is past the last epoch 0"):
        train(micro_train_cfg(epochs=1), scenes, tmp_path / "b", resume=ckpt)
    cfg = micro_train_cfg(epochs=1)
    model = build_model(cfg)
    bare = tmp_path / "bare.ckpt"
    save_checkpoint(bare, model.store, AdamState(model.store), cfg, 0)
    with pytest.raises(ValueError, match="no training random streams"):
        train(micro_train_cfg(epochs=2), scenes, tmp_path / "b", resume=bare)


@pytest.mark.parametrize("broken", ["loss", "gradient"])
def test_nonfinite_training_error_names_epoch_iteration_and_scenes(tmp_path, monkeypatch,
                                                                    broken):
    cfg = micro_train_cfg(epochs=2)
    scenes = micro_scenes(count=4)
    real = MotionModel.loss_and_grad

    def nan_for_scene_2(self, scene, loss_cfg, rng):
        parts = real(self, scene, loss_cfg, rng)
        if scene is scenes[2]:
            if broken == "loss":
                parts = dict(parts, total=float("nan"))
            else:
                self.store.grad(self.store.names()[-1])[...] = np.nan
        return parts

    monkeypatch.setattr(MotionModel, "loss_and_grad", nan_for_scene_2)
    with pytest.raises(FloatingPointError) as err:
        train(cfg, scenes, tmp_path)
    order = np.arange(len(scenes))
    Rng(cfg.seed + 1).shuffle(order)
    iteration = list(order).index(2) // cfg.batch_size
    batch = order[iteration * cfg.batch_size:(iteration + 1) * cfg.batch_size]
    message = str(err.value)
    assert message.startswith("non-finite loss" if broken == "loss"
                              else "non-finite gradient in parameter")
    assert f"epoch 0, iteration {iteration}, scenes " in message
    for i in batch:
        assert repr(scenes[i].scene_id) in message


# a crowd-sized run (16 agents, q = 4) trained and evaluated at best of 20, so
# the decoder's products span 320 rows, large enough for OpenBLAS to split a
# gemm over threads: prints the loss rows and the report and writes
# final.ckpt to argv[1]
CROWD_RUN = """
import sys
from motionq.data import synth_dataset
from motionq.numkit import Rng
from motionq.trainer import TrainConfig, evaluate, train

cfg = TrainConfig(q=4, m=20, pairs_per_batch=16, batch_size=2, epochs=2, seed=3)
scenes = synth_dataset("crossroad", 4, Rng(0), n_agents=16, noise=0.02)
model, curve = train(cfg, scenes, sys.argv[1])
print(curve)
print(evaluate(model, scenes, 20, horizons=(4, 12)))
"""


def test_run_is_bitwise_the_same_under_one_and_two_blas_threads(tmp_path):
    # the matrix products carry every sum, so (config, seed, data) must fix
    # every number whatever the thread count BLAS splits them over
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", CROWD_RUN, str(tmp_path / threads)],
                              env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr[-3000:]
        runs.append((proc.stdout, (tmp_path / threads / "final.ckpt").read_bytes()))
    (text_1, ckpt_1), (text_2, ckpt_2) = runs
    assert text_1.count("\n") == 2 and text_1 == text_2
    assert ckpt_1 == ckpt_2
