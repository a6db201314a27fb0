"""Adam optimization loop, run configuration and checkpointing.

Config files are flat ``key = value`` text ('#' comments allowed); keys match
TrainConfig field names. Checkpoints (``checkpoint-v2``) are a text header
carrying the config, the epoch and the training random streams, followed by
every parameter tensor and the optimizer moments as raw little-endian bytes,
so a reload reproduces forward outputs and resumed training bit for bit at
the same precision.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .model import ModelConfig, MotionModel
from .numkit import Rng, read_tensors, write_tensors
from .objectives import (
    LossConfig,
    aggregate_metrics,
    nonlinear_filter,
    per_agent_best_metrics,
)

__all__ = [
    "TrainConfig",
    "AdamState",
    "adam_step",
    "build_model",
    "train",
    "evaluate",
    "save_checkpoint",
    "load_checkpoint",
]


BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
CHECKPOINT_MAGIC = b"checkpoint-v2\n"
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
# keys that configs stored in older checkpoints carry but TrainConfig no
# longer has: key -> the one stored value that still loads, being what the
# code now always does (None: any value, as the key never changed a number)
RETIRED_KEYS = {
    "beta1": "0.9",
    "beta2": "0.999",
    "adam_eps": "1e-08",
    "dataset": None,
    "eval_samples": None,
    "relation_mode": "softmax",
    "sigma_transform": "sigmoid",
    "variety_mode": "concat",
}


@dataclass
class TrainConfig:
    h: int = 32
    z_dim: int = 16
    q: int = 3
    dec_h: int = 32
    obs_len: int = 8
    pred_len: int = 12
    use_social: bool = True
    use_latent: bool = True
    map_size: int = 64
    map_channels: int = 2
    sigma_bias: float = 0.0
    lam: float = 0.1
    margin: float = 0.5
    m: int = 20
    pairs_per_batch: int = 64
    batch_size: int = 64
    lr: float = 0.001
    epochs: int = 200
    seed: int = 0
    eval_seed: int = 1234
    precision: str = "64"
    checkpoint_every: int = 1

    def __post_init__(self):
        for name in ("h", "z_dim", "q", "dec_h", "obs_len", "pred_len", "batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("lr", "lam", "margin", "sigma_bias"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.lr > 0:
            raise ValueError("lr must be positive")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.precision not in ("32", "64"):
            raise ValueError(f"precision must be one of 32, 64, got {self.precision!r}")
        self.loss_config()  # checks lam, margin, m and pairs_per_batch

    def model_config(self):
        return ModelConfig(
            h=self.h, q=self.q, z_dim=self.z_dim, dec_h=self.dec_h,
            obs_len=self.obs_len, pred_len=self.pred_len,
            use_social=self.use_social, use_latent=self.use_latent,
            map_size=self.map_size, map_channels=self.map_channels,
            sigma_bias=self.sigma_bias,
        )

    def loss_config(self):
        return LossConfig(lam=self.lam, margin=self.margin, m=self.m,
                          pairs_per_batch=self.pairs_per_batch)

    def dtype(self):
        return np.float32 if self.precision == "32" else np.float64

    def to_text(self):
        lines = []
        for f in fields(self):
            lines.append(f"{f.name} = {getattr(self, f.name)}")
        return "\n".join(lines) + "\n"

    def digest(self):
        return hashlib.sha256(self.to_text().encode()).hexdigest()

    @classmethod
    def from_text(cls, text):
        kwargs = {}
        types = {f.name: f.type for f in fields(cls)}
        defaults = cls()
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ValueError(f"config line {lineno}: expected 'key = value'")
            key, _, value = body.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in types:
                raise ValueError(f"config line {lineno}: unknown key {key!r}")
            current = getattr(defaults, key)
            try:
                if isinstance(current, bool):
                    kwargs[key] = BOOL_WORDS[value.lower()]
                elif isinstance(current, int):
                    kwargs[key] = int(value)
                elif isinstance(current, float):
                    kwargs[key] = float(value)
                else:
                    kwargs[key] = value
            except (KeyError, ValueError):
                kind = ("a bool (1/0/true/false/yes/no)" if isinstance(current, bool)
                        else "an integer" if isinstance(current, int) else "a number")
                raise ValueError(f"config line {lineno}: {key} expects {kind}, "
                                 f"got {value!r}") from None
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return cls.from_text(fh.read())


def build_model(cfg: TrainConfig):
    """Model with parameters initialized from the config seed."""
    return MotionModel(cfg.model_config(), Rng(cfg.seed), dtype=cfg.dtype())


class AdamState:
    """First/second moments per parameter plus the shared step count."""

    def __init__(self, store):
        self.t = 0
        self.m = {name: np.zeros_like(store.value(name)) for name in store.names()}
        self.v = {name: np.zeros_like(store.value(name)) for name in store.names()}


def adam_step(store, state, lr):
    """Bias-corrected Adam update (ADAM_BETAS, ADAM_EPS) applied in place to
    every parameter."""
    bad = store.first_nonfinite_grad()
    if bad is not None:
        raise FloatingPointError(f"non-finite gradient in parameter {bad!r}")
    b1, b2 = ADAM_BETAS
    state.t += 1
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name in store.names():
        g = store.grad(name)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        store.value(name)[...] -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def train(cfg: TrainConfig, scenes, out_dir, log=None, resume=None):
    """Full optimization run; returns (model, loss curve).

    Scenes are shuffled per epoch from the config seed, batched, and each
    batch's mean gradient drives one Adam step. The curve rows are
    (epoch, iteration, total, coherence, variety). A rolling checkpoint is
    written every checkpoint_every epochs and a final one at the end.

    `resume` is the path of a checkpoint written by train: the run goes on
    after that checkpoint's epoch from its parameters, Adam moments and
    random streams, so train(k epochs) then a resumed train(N epochs) makes
    bitwise the rows, parameters and moments of train(N epochs). The
    checkpoint's config must equal cfg in every field but `epochs`. The
    curve and loss_curve.txt then hold the resumed epochs' rows only.
    """
    if not scenes:
        raise ValueError("empty dataset")
    os.makedirs(out_dir, exist_ok=True)
    streams = {"shuffle": Rng(cfg.seed + 1), "loss": Rng(cfg.seed + 2)}
    if resume is None:
        model = build_model(cfg)
        state = AdamState(model.store)
        first_epoch = 0
    else:
        model, state, first_epoch = _resume(cfg, resume, streams)
    loss_cfg = cfg.loss_config()
    curve = []
    iteration = state.t
    for epoch in range(first_epoch, cfg.epochs):
        order = np.arange(len(scenes))
        streams["shuffle"].shuffle(order)
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            model.store.zero_grads()
            sums = {"total": 0.0, "coherence": 0.0, "variety": 0.0}
            for idx in batch:
                parts = model.loss_and_grad(scenes[idx], loss_cfg, streams["loss"])
                for key in sums:
                    sums[key] += parts[key]
            row = (epoch, iteration,
                   sums["total"] / len(batch),
                   sums["coherence"] / len(batch),
                   sums["variety"] / len(batch))
            if not np.isfinite(row[2]):
                raise FloatingPointError(
                    f"non-finite loss at {_batch_place(epoch, iteration, scenes, batch)}")
            model.store.scale_grads(1.0 / len(batch))
            try:
                adam_step(model.store, state, cfg.lr)
            except FloatingPointError as exc:
                raise FloatingPointError(
                    f"{exc} at {_batch_place(epoch, iteration, scenes, batch)}") from None
            curve.append(row)
            if log is not None:
                log(row)
            iteration += 1
        if cfg.checkpoint_every and (epoch + 1) % cfg.checkpoint_every == 0:
            save_checkpoint(os.path.join(out_dir, "last.ckpt"), model.store, state, cfg, epoch,
                            streams)
    final = os.path.join(out_dir, "final.ckpt")
    save_checkpoint(final, model.store, state, cfg, cfg.epochs - 1, streams)
    with open(os.path.join(out_dir, "loss_curve.txt"), "w") as fh:
        fh.write("# epoch iteration total coherence variety\n")
        for row in curve:
            fh.write(f"{row[0]} {row[1]} {row[2]:.8f} {row[3]:.8f} {row[4]:.8f}\n")
    return model, curve


def _batch_place(epoch, iteration, scenes, batch):
    return f"epoch {epoch}, iteration {iteration}, scenes {[scenes[i].scene_id for i in batch]}"


def _resume(cfg, path, streams):
    """(model, AdamState, first epoch) from a checkpoint written by train;
    sets each stream in `streams` to its stored state."""
    saved_cfg, model, state, epoch, saved = _read_checkpoint(path)
    differ = [f.name for f in fields(cfg)
              if f.name != "epochs" and getattr(cfg, f.name) != getattr(saved_cfg, f.name)]
    if differ:
        raise ValueError(f"{path}: cannot resume, the config differs in {', '.join(differ)}")
    if set(saved) != set(streams):
        raise ValueError(f"{path}: cannot resume, the checkpoint holds no training random streams")
    if epoch >= cfg.epochs:
        raise ValueError(f"{path}: cannot resume, epoch {epoch} is past the last epoch "
                         f"{cfg.epochs - 1}")
    for name, rng in streams.items():
        rng.state = saved[name]
    return model, state, epoch + 1


def evaluate(model, scenes, m, seed=1234, nonlinear_only=False, horizons=()):
    """Best-of-m metrics aggregated over every agent of every scene."""
    rng = Rng(seed)
    stats = []
    for scene in scenes:
        preds = model.predict(scene, m, rng).positions
        keep = [i for i in range(scene.n_agents) if not nonlinear_only
                or nonlinear_filter(scene.positions[i])]
        if keep:
            stats.append(per_agent_best_metrics(scene.future()[keep], preds[:, keep],
                                                horizons=horizons))
    return aggregate_metrics(stats)


def save_checkpoint(path, store, state, cfg, epoch, streams=None):
    """Write a checkpoint-v2 file: the text header, then the parameter and
    Adam m and v tensor blocks. `streams` maps a name to each training Rng
    whose state a resumed run needs.

    The file is written to a temporary file beside `path`, flushed and
    fsynced, then renamed over `path`: an interrupted save leaves the
    previous checkpoint whole.
    """
    cfg_text = cfg.to_text()
    streams = streams or {}
    head = [f"hash {cfg.digest()}", f"epoch {epoch}", f"adam-t {state.t}",
            f"streams {len(streams)}"]
    for name, rng in streams.items():
        st = rng.state
        head.append(f"stream {name} {st['state']['state']} {st['state']['inc']} "
                    f"{st['has_uint32']} {st['uinteger']}")
    head.append(f"config-lines {len(cfg_text.splitlines())}")
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC + ("\n".join(head) + "\n" + cfg_text).encode())
            write_tensors(fh, {name: store.value(name) for name in store.names()})
            write_tensors(fh, state.m)
            write_tensors(fh, state.v)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path):
    """Returns (cfg, model, AdamState, epoch) with parameters loaded in place.

    Reads checkpoint-v2 files. The stored hash is checked against the
    stored config text, and a malformed or truncated file raises ValueError
    naming `path`. Files written before a config key was retired still load:
    each RETIRED_KEYS line is dropped if its value is one the code still
    behaves as, and raises ValueError naming `path` and the key otherwise.
    """
    return _read_checkpoint(path)[:4]


def _read_checkpoint(path):
    """load_checkpoint's result plus the stored random streams, as a dict of
    name -> PCG64 state (empty for saves without streams)."""
    try:
        with open(path, "rb") as fh:
            if fh.readline() != CHECKPOINT_MAGIC:
                raise ValueError("not a checkpoint file")
            digest = _header_field(fh, "hash")
            epoch = int(_header_field(fh, "epoch"))
            adam_t = int(_header_field(fh, "adam-t"))
            streams = {}
            for _ in range(int(_header_field(fh, "streams"))):
                name, *nums = _header_field(fh, "stream").split()
                if len(nums) != 4:
                    raise ValueError(f"stream {name}: expected 4 state integers")
                st, inc, has_uint32, uinteger = (int(v) for v in nums)
                streams[name] = {"bit_generator": "PCG64",
                                 "state": {"state": st, "inc": inc},
                                 "has_uint32": has_uint32, "uinteger": uinteger}
            n_lines = int(_header_field(fh, "config-lines"))
            cfg_bytes = b"".join(fh.readline() for _ in range(n_lines))
            if hashlib.sha256(cfg_bytes).hexdigest() != digest:
                raise ValueError("config hash mismatch")
            cfg = TrainConfig.from_text(_drop_retired(cfg_bytes.decode()))
            # parameters, Adam m, Adam v
            values, moments_m, moments_v = (read_tensors(fh) for _ in range(3))
            if fh.read(1):
                raise ValueError("trailing bytes after the third tensor block")
        model = build_model(cfg)
        model.store.load_values(values)
        if set(moments_m) != set(values) or set(moments_v) != set(values):
            raise ValueError("Adam moment names do not match the parameter names")
        state = AdamState(model.store)
        state.t = adam_t
        for name in model.store.names():
            state.m[name][...] = moments_m[name]
            state.v[name][...] = moments_v[name]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return cfg, model, state, epoch, streams


def _drop_retired(cfg_text):
    """A stored config text without its RETIRED_KEYS lines."""
    kept = []
    for line in cfg_text.splitlines(keepends=True):
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in RETIRED_KEYS:
            kept.append(line)
        elif RETIRED_KEYS[key] not in (None, value):
            raise ValueError(f"config key {key!r} is retired and loads only as "
                             f"{RETIRED_KEYS[key]!r}, got {value!r}")
    return "".join(kept)


def _header_field(fh, key):
    """Value of the next header line, which must read `<key> <value>`."""
    line = fh.readline().decode("ascii", "replace").strip()
    found, _, value = line.partition(" ")
    if found != key or not value:
        raise ValueError(f"expected a {key!r} header line, got {line[:60]!r}")
    return value
