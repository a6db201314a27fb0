"""Encoder-decoder assembly.

Observation runs frame by frame on two (n, q, h) queue arrays, hidden and
cell: one queue-gated cell step for all agents, then a queue push/pop, then
(optionally) the social refinement of the hidden queues across agents. The
final hidden features are fused with a scene-conditioned latent draw and
rolled out by the same cell at q = 1, the vanilla LSTM, which emits per-frame
displacements and feeds each one back as the next input. All m x n (sample,
agent) rows roll out together, one matrix product per projection; training
backpropagates all rows in one pass, with zero upstream gradient off each
agent's best-of-m row.
Absolute positions are cumulative sums from the last observed position, which
makes every prediction translate exactly with the inputs.

Prediction export format (text): a comment header then one record per line,

    scene_id agent_id sample_id frame_id x y
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cell import CellParams, cell_forward, cell_backward
from .data import to_relative
from .numkit import ParamStore
from .objectives import (
    coherence_forward,
    coherence_backward,
    variety_forward,
    variety_backward,
)
from .queues import push_pop
from .scene import SceneEncoderParams, encode_scene, encode_scene_backward, sample_latent
from .social import SocialParams, refine_forward, refine_backward

__all__ = [
    "ModelConfig",
    "DecoderParams",
    "EncoderState",
    "PredictionSet",
    "MotionModel",
    "write_prediction_records",
]


@dataclass
class ModelConfig:
    h: int = 32
    q: int = 3
    z_dim: int = 16
    dec_h: int = 32
    obs_len: int = 8
    pred_len: int = 12
    use_social: bool = True
    use_latent: bool = True
    map_size: int = 64
    map_channels: int = 2
    conv_channels: tuple = (8, 16)
    conv_kernels: tuple = (10, 10, 1)
    conv_strides: tuple = (6, 4, 1)
    sigma_bias: float = 0.0  # init of the sigma-half FC bias; negative starts near-deterministic


class DecoderParams:
    """The decoder's cell (the queue cell at q = 1, registered as
    `<prefix>.W_g` ... `<prefix>.b_u`) plus the fusion and output projections."""

    def __init__(self, store, rng, h_enc, z_dim, dec_h=32, prefix="decoder"):
        self.h_enc = h_enc
        self.cell = CellParams(store, rng, d=2, h=dec_h, prefix=prefix)
        bound = 1.0 / np.sqrt(dec_h)
        fuse_in = h_enc + z_dim
        bound_f = 1.0 / np.sqrt(fuse_in)
        self.W_fuse = store.add(f"{prefix}.W_fuse", rng.uniform(-bound_f, bound_f, (dec_h, fuse_in)))
        self.b_fuse = store.add(f"{prefix}.b_fuse", np.zeros(dec_h))
        self.W_out = store.add(f"{prefix}.W_out", rng.uniform(-bound, bound, (2, dec_h)))
        self.b_out = store.add(f"{prefix}.b_out", np.zeros(2))
        self.dW_fuse = store.grad(f"{prefix}.W_fuse")
        self.db_fuse = store.grad(f"{prefix}.b_fuse")
        self.dW_out = store.grad(f"{prefix}.W_out")
        self.db_out = store.grad(f"{prefix}.b_out")


@dataclass
class EncoderState:
    """Queues after the last observation frame plus feature history."""

    hidden: np.ndarray            # (n, q, h) hidden queues, oldest slot first
    cell: np.ndarray              # (n, q, h) cell queues
    h_obs: np.ndarray             # (n, h) newest hidden entries after final refinement
    features: np.ndarray          # (n, obs_len, h) per-frame post-refinement features
    cells: np.ndarray | None = None  # (n, obs_len, h) newest cell entries, on request
    tape: list | None = None


@dataclass
class PredictionSet:
    """m sampled futures per agent plus the latent draw behind each sample."""

    positions: np.ndarray  # (m, n_agents, steps, 2) absolute
    zs: np.ndarray         # (m, z_dim)

    @property
    def m(self):
        return self.positions.shape[0]


class MotionModel:
    """Full forecaster: queue-gated encoder, social refinement, latent fusion,
    LSTM decoder, and the training objective with hand-derived gradients.

    predict, the loss and cell_state_trace share one scene path: `_encode`
    observes the scene and runs the scene head (a latent model refuses a
    scene without a map there), `sample_latent` draws the latents, and
    `_rollout` decodes from the last observed position and displacement.
    """

    def __init__(self, cfg: ModelConfig, rng, dtype=np.float64):
        self.cfg = cfg
        self.store = ParamStore(dtype)
        self.cell = CellParams(self.store, rng, d=2, h=cfg.h)
        self.social = SocialParams(self.store, rng, cfg.h) if cfg.use_social else None
        self.scene_enc = SceneEncoderParams(self.store, rng, cfg) if cfg.use_latent else None
        z_dim = cfg.z_dim if cfg.use_latent else 0
        self.decoder = DecoderParams(self.store, rng, h_enc=cfg.h, z_dim=z_dim, dec_h=cfg.dec_h)

    # ------------------------------------------------------------------ encoder

    def observe(self, obs_disp, want_tape=False, want_cells=False):
        """Run the observation frames; returns the EncoderState.

        obs_disp is (n_agents, obs_len, 2) displacement form. Per frame: one
        cell step for all agents, queue push/pop, then social refinement of
        the hidden queues across all agents (a per-frame barrier).
        """
        obs_disp = np.asarray(obs_disp, dtype=np.float64)
        if obs_disp.ndim != 3 or obs_disp.shape[2] != 2:
            raise ValueError(f"observed displacements must be (n, t, 2), got {obs_disp.shape}")
        n, t_obs = obs_disp.shape[0], obs_disp.shape[1]
        if t_obs < 1:
            raise ValueError("need at least one observation frame")
        if not np.all(np.isfinite(obs_disp)):
            raise ValueError("agent missing or non-finite input inside the window")

        hidden = np.zeros((n, self.cfg.q, self.cfg.h))
        cell = np.zeros((n, self.cfg.q, self.cfg.h))
        features = np.zeros((n, t_obs, self.cfg.h))
        cells = np.zeros((n, t_obs, self.cfg.h)) if want_cells else None
        tape = [] if want_tape else None
        for t in range(t_obs):
            h_t, c_t, cell_cache = cell_forward(obs_disp[:, t], hidden, cell, self.cell)
            hidden, cell = push_pop(hidden, cell, h_t, c_t)
            refine_cache = None
            if self.social is not None:
                hidden, refine_cache = refine_forward(hidden, self.social)
            features[:, t] = hidden[:, -1]
            if want_cells:
                cells[:, t] = cell[:, -1]
            if want_tape:
                tape.append((cell_cache, refine_cache))
        h_obs = features[:, -1].copy()
        return EncoderState(hidden, cell, h_obs, features, cells=cells, tape=tape)

    def _observe_backward(self, state, d_h_obs, d_features):
        """Backpropagate through the whole observation loop (needs a tape)."""
        n, t_obs, h = state.features.shape
        q = self.cfg.q
        d_hid = np.zeros((n, q, h))
        d_cell = np.zeros((n, q, h))
        d_hid[:, -1] += d_h_obs
        for t in range(t_obs - 1, -1, -1):
            if d_features is not None:
                d_hid[:, -1] += d_features[:, t]
            cell_cache, refine_cache = state.tape[t]
            if refine_cache is not None:
                d_hid = refine_backward(refine_cache, d_hid, self.social)
            d_hid_prev = np.zeros_like(d_hid)
            d_cell_prev = np.zeros_like(d_cell)
            d_hid_prev[:, 1:] += d_hid[:, :-1]
            d_cell_prev[:, 1:] += d_cell[:, :-1]
            _, dh_q, dc_q = cell_backward(cell_cache, d_hid[:, -1], d_cell[:, -1], self.cell)
            d_hid_prev += dh_q
            d_cell_prev += dc_q
            d_hid, d_cell = d_hid_prev, d_cell_prev
        # remaining gradients land on the zero-initialized queues

    # ------------------------------------------------------------------ decoder

    def decode(self, h_obs, z, steps, last_pos, last_disp, want_cache=False):
        """Roll out every (sample, agent) row at once; returns (positions, cache).

        z is (m, z_dim), one latent draw per sample, and positions is
        (m, n, steps, 2). Row k*n + i decodes agent i under draw k: its hidden
        state starts from tanh(W_fuse [h_obs_i; z_k] + b), its cell at zero;
        the first input is the agent's final observed displacement and every
        emitted displacement is fed back as the next input. Each step is one
        cell_forward over all rows at q = 1. The cache, on request, is
        (s, h0, records): the fused inputs [h_obs_i; z_k] and initial states
        of all rows, and per step the cell's cache with the step's (h_t, c_t).
        """
        if steps < 1:
            raise ValueError("steps must be >= 1")
        h_obs = np.asarray(h_obs, dtype=np.float64)
        z = np.asarray(z, dtype=np.float64)
        if z.ndim != 2:
            raise ValueError(f"latent draws must be (m, z_dim), got {z.shape}")
        n, m = h_obs.shape[0], z.shape[0]
        dec = self.decoder
        s = np.concatenate([np.tile(h_obs, (m, 1)), np.repeat(z, n, axis=0)], axis=1)
        h = np.tanh(s @ dec.W_fuse.T + dec.b_fuse)
        c = np.zeros_like(h)
        x = np.tile(np.asarray(last_disp, dtype=np.float64), (m, 1))
        disps = np.zeros((m * n, steps, 2))
        cache = (s, h, []) if want_cache else None
        for t in range(steps):
            h, c, cell_cache = cell_forward(x, h[:, None], c[:, None], dec.cell)
            x = h @ dec.W_out.T + dec.b_out
            disps[:, t] = x
            if want_cache:
                cache[2].append((cell_cache, h, c))
        last = np.tile(np.asarray(last_pos, dtype=np.float64), (m, 1))
        positions = last[:, None] + np.cumsum(disps, axis=1)
        return positions.reshape(m, n, steps, 2), cache

    def _decode_backward_agent(self, cache, d_pos):
        """Gradient of every cached rollout row at once.

        d_pos is (m, n, steps, 2), zero on rows that get no gradient. Returns
        (d_h_obs, d_z), (n, h_enc) and (m, z_dim), summed over the rows that
        read each agent and each draw.
        """
        dec = self.decoder
        s, h0, records = cache
        m, n, steps, _ = d_pos.shape
        d_disp = np.cumsum(d_pos[:, :, ::-1], axis=2)[:, :, ::-1].reshape(m * n, steps, 2)
        d_x = np.zeros((m * n, 2))
        d_h = np.zeros_like(h0)
        d_c = np.zeros_like(h0)
        for t in range(steps - 1, -1, -1):
            cell_cache, h_t, _ = records[t]
            d_delta = d_disp[:, t] + d_x  # position cumsum fan-out plus the fed-back input
            dec.dW_out += d_delta.T @ h_t
            dec.db_out += d_delta.sum(axis=0)
            d_x, d_hq, d_cq = cell_backward(cell_cache, d_h + d_delta @ dec.W_out, d_c, dec.cell)
            d_h, d_c = d_hq[:, 0], d_cq[:, 0]
        # d_x now targets the seed input (observed data): dropped
        d_a0 = d_h * (1.0 - h0 ** 2)
        dec.dW_fuse += d_a0.T @ s
        dec.db_fuse += d_a0.sum(axis=0)
        d_s = (d_a0 @ dec.W_fuse).reshape(m, n, -1)
        return d_s[:, :, :dec.h_enc].sum(axis=0), d_s[:, :, dec.h_enc:].sum(axis=1)

    # ------------------------------------------------------------------ scene path

    def _encode(self, scene, want_tape=False, want_cells=False):
        """(obs_disp, EncoderState, latent) of a scene: its observed
        displacements, the observation run and the scene head's
        (mu, sigma, cache), or None for a model without a latent."""
        obs_disp = to_relative(scene.positions)[:, :scene.obs_len]
        state = self.observe(obs_disp, want_tape=want_tape, want_cells=want_cells)
        if self.scene_enc is None:
            return obs_disp, state, None
        if scene.smap is None:
            raise ValueError("model is latent-conditioned but the scene has no semantic map")
        return obs_disp, state, encode_scene(scene.smap, obs_disp, self.scene_enc)

    def _rollout(self, scene, obs_disp, state, zs, steps=None, want_cache=False):
        """Decode zs from the scene's last observed position and displacement
        over `steps` frames, by default its future frames (the configured
        pred_len when it has none); returns decode's (positions, cache)."""
        if steps is None:
            steps = scene.pred_len if scene.pred_len > 0 else self.cfg.pred_len
        return self.decode(state.h_obs, zs, steps, scene.positions[:, scene.obs_len - 1],
                           obs_disp[:, -1], want_cache=want_cache)

    # ------------------------------------------------------------------ prediction

    def predict(self, scene, m, rng, steps=None):
        """Encode once, sample m latent draws, decode m futures per agent."""
        if m < 1:
            raise ValueError("m must be >= 1")
        obs_disp, state, latent = self._encode(scene)
        zs = np.zeros((m, 0)) if latent is None else sample_latent(*latent[:2], m, rng)[0]
        positions, _ = self._rollout(scene, obs_disp, state, zs, steps)
        return PredictionSet(positions, zs)

    # ------------------------------------------------------------------ training

    def loss(self, scene, loss_cfg, rng):
        """Forward-only training objective; returns its parts."""
        return self._loss_impl(scene, loss_cfg, rng, with_grad=False)

    def loss_and_grad(self, scene, loss_cfg, rng):
        """Objective plus gradient accumulation into the ParamStore slots."""
        return self._loss_impl(scene, loss_cfg, rng, with_grad=True)

    def _loss_impl(self, scene, loss_cfg, rng, with_grad):
        if scene.pred_len < 1:
            raise ValueError("training scenes need ground-truth future frames")
        obs_disp, state, latent = self._encode(scene, want_tape=with_grad)
        if latent is None:
            zs = np.zeros((1, 0))  # all samples coincide without a latent
        else:
            mu, sigma, scene_cache = latent
            zs, eps = sample_latent(mu, sigma, loss_cfg.m, rng)
        preds, dec_cache = self._rollout(scene, obs_disp, state, zs, want_cache=with_grad)

        var_value, var_cache = variety_forward(scene.future(), preds)
        coh_value, coh_cache = coherence_forward(state.features, self.cfg.q, loss_cfg, rng)
        total = loss_cfg.lam * coh_value + var_value
        parts = {"total": float(total), "coherence": float(coh_value), "variety": float(var_value)}
        if not with_grad:
            return parts

        d_preds = variety_backward(var_cache, 1.0)
        d_h_obs, d_zs = self._decode_backward_agent(dec_cache, d_preds)

        d_features = np.zeros_like(state.features)
        coherence_backward(coh_cache, loss_cfg.lam, d_features)

        if latent is not None:
            d_mu = d_zs.sum(axis=0)
            d_sigma = (d_zs * eps).sum(axis=0)
            encode_scene_backward(scene_cache, d_mu, d_sigma, self.scene_enc)

        self._observe_backward(state, d_h_obs, d_features)
        return parts

    # ------------------------------------------------------------------ exports

    def cell_state_trace(self, scene, steps=None):
        """Raw cell values per frame for offline activation analysis.

        Returns rows (phase, agent_id, frame_id, vector): encoder cells for
        every observation frame, then decoder cells for a rollout driven by
        the mean latent (deterministic export).
        """
        obs_disp, state, latent = self._encode(scene, want_cells=True)
        z = np.zeros((1, 0)) if latent is None else latent[0][None]  # mean latent
        _, (_, _, records) = self._rollout(scene, obs_disp, state, z, steps, want_cache=True)
        agents = range(scene.n_agents)
        return ([("obs", i, t, state.cells[i, t].copy()) for i in agents
                 for t in range(scene.obs_len)]
                + [("pred", i, t, records[t][2][i].copy()) for i in agents
                   for t in range(len(records))])


def write_prediction_records(path, scene_id, pred_set):
    """Append prediction records for one scene to a delimited-text file."""
    with open(path, "a") as fh:
        m, n, steps, _ = pred_set.positions.shape
        for k in range(m):
            for i in range(n):
                for t in range(steps):
                    x, y = pred_set.positions[k, i, t]
                    fh.write(f"{scene_id} {i} {k} {t} {float(x)!r} {float(y)!r}\n")
