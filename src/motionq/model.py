"""Encoder-decoder assembly.

Observation runs frame by frame on two (n, q, h) queue arrays, hidden and
cell: one queue-gated cell step for all agents, then a queue push/pop, then
(optionally) the social refinement of the hidden queues across agents. The
final hidden features are fused with a scene-conditioned latent draw and
rolled out by the same cell at q = 1, the vanilla LSTM, which emits per-frame
displacements and feeds each one back as the next input. All m x n (sample,
agent) rows roll out together, one matrix product per projection.
Absolute positions are cumulative sums from the last observed position, which
makes every prediction translate exactly with the inputs.

Training takes a batch of scenes in one pass, their agents concatenated
along the agent axis as in Social GAN's seq_start_end layout: the cell,
push/pop, the decoder and the coherence pairs run on all rows, and only
social refinement is split by scene. The best-of-m variety loss gives
gradient to one sample per agent, so the m x n rollout keeps no cache: each
agent's best sample is decoded again, and only those rows are
backpropagated. Neither recurrent loop keeps its steps' caches for the
backward, only each step's inputs, from which the backward steps the cell
forward again; a batch's memory then stays near one scene's. A single scene
is the batch of one.

Prediction export format (text): a comment header then one record per line,

    scene_id agent_id sample_id frame_id x y
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cell import CellParams, cell_forward, cell_backward
from .data import Scene, to_relative
from .numkit import ParamStore
from .objectives import (
    coherence_pairs,
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
    tape: list | None = None      # per frame the (input, hidden, cell) its cell step reads
    counts: list | None = None    # agents per scene of a batch, None for one scene


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
    observes a scene, or a batch's scenes with their agents concatenated,
    and runs each scene's head (a latent model refuses a scene without a map
    there), `sample_latent` draws the latents, and `_rollout` decodes from
    the last observed position and displacement.
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

    def observe(self, obs_disp, want_tape=False, want_cells=False, counts=None):
        """Run the observation frames; returns the EncoderState.

        obs_disp is (n_agents, obs_len, 2) displacement form. Per frame: one
        cell step for all agents, queue push/pop, then social refinement of
        the hidden queues across all agents of a scene (a per-frame
        barrier). counts, the agents of each scene when a batch's scenes are
        concatenated (default: one scene), only splits the refinement.

        The tape, on request, keeps each frame's inputs, not its caches: the
        backward steps each frame forward again, so a batch holds two queue
        arrays per frame until then.
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
            if want_tape:
                tape.append((obs_disp[:, t], hidden, cell))
            hidden, cell = self._observe_frame(obs_disp[:, t], hidden, cell, counts)[:2]
            features[:, t] = hidden[:, -1]
            if want_cells:
                cells[:, t] = cell[:, -1]
        h_obs = features[:, -1].copy()
        return EncoderState(hidden, cell, h_obs, features, cells=cells, tape=tape, counts=counts)

    def _observe_frame(self, x_t, hidden, cell, counts):
        """One observation frame: (hidden, cell, caches) after the cell step,
        the push/pop and the refinement; caches holds the cell's and the
        refinement's (None without social)."""
        h_t, c_t, cell_cache = cell_forward(x_t, hidden, cell, self.cell)
        hidden, cell = push_pop(hidden, cell, h_t, c_t)
        refine_cache = None
        if self.social is not None:
            hidden, refine_cache = refine_forward(hidden, self.social, counts)
        return hidden, cell, (cell_cache, refine_cache)

    def _observe_backward(self, state, d_h_obs, d_features):
        """Backpropagate through the whole observation loop (needs a tape)."""
        n, t_obs, h = state.features.shape
        d_hid = np.zeros((n, self.cfg.q, h))
        d_cell = np.zeros((n, self.cfg.q, h))
        d_hid[:, -1] += d_h_obs
        for t in range(t_obs - 1, -1, -1):
            if d_features is not None:
                d_hid[:, -1] += d_features[:, t]
            d_hid, d_cell = self._frame_backward(state.tape[t], state.counts, d_hid, d_cell)
        # remaining gradients land on the zero-initialized queues

    def _frame_backward(self, frame, counts, d_hid, d_cell):
        """Gradients for the (hidden, cell) queues a frame read from those for
        the queues it left. The frame steps forward again from its taped
        inputs for the caches its backward reads, which go with the call."""
        _, _, (cell_cache, refine_cache) = self._observe_frame(*frame, counts)
        if refine_cache is not None:
            d_hid = refine_backward(refine_cache, d_hid, self.social)
        d_hid_prev = np.zeros_like(d_hid)
        d_cell_prev = np.zeros_like(d_cell)
        d_hid_prev[:, 1:] += d_hid[:, :-1]
        d_cell_prev[:, 1:] += d_cell[:, :-1]
        _, dh_q, dc_q = cell_backward(cell_cache, d_hid[:, -1], d_cell[:, -1], self.cell)
        d_hid_prev += dh_q
        d_cell_prev += dc_q
        return d_hid_prev, d_cell_prev

    # ------------------------------------------------------------------ decoder

    def decode(self, h_obs, z, steps, last_pos, last_disp, want_cache=False):
        """Roll out rows at once; returns (positions, cache).

        Row r decodes the encoding h_obs[r] under the latent draw z[r] from
        the position last_pos[r] and the displacement last_disp[r]: h_obs is
        (rows, h_enc), z (rows, z_dim), the last two (rows, 2), and positions
        is (rows, steps, 2). A row's hidden state starts from
        tanh(W_fuse [h_obs_r; z_r] + b), its cell at zero; the first input is
        last_disp[r] and every emitted displacement is fed back as the next
        input. Each step is one cell_forward over all rows at q = 1. The
        cache, on request, is (s, h0, records): the fused inputs and initial
        states of all rows, and per step its input and its (h_t, c_t), from
        which the backward steps the cell forward again for the caches it
        reads.
        """
        if steps < 1:
            raise ValueError("steps must be >= 1")
        h_obs = np.asarray(h_obs, dtype=np.float64)
        z = np.asarray(z, dtype=np.float64)
        if z.ndim != 2 or h_obs.ndim != 2 or len(z) != len(h_obs):
            raise ValueError(f"encodings and latent draws must be (rows, h_enc) and "
                             f"(rows, z_dim), got {h_obs.shape} and {z.shape}")
        dec = self.decoder
        s = np.concatenate([h_obs, z], axis=1)
        h = np.tanh(s @ dec.W_fuse.T + dec.b_fuse)
        c = np.zeros_like(h)
        x = np.asarray(last_disp, dtype=np.float64)
        disps = np.zeros((len(s), steps, 2))
        cache = (s, h, []) if want_cache else None
        for t in range(steps):
            h, c = cell_forward(x, h[:, None], c[:, None], dec.cell)[:2]  # the cache goes at once
            if want_cache:
                cache[2].append((x, h, c))
            x = h @ dec.W_out.T + dec.b_out
            disps[:, t] = x
        positions = np.asarray(last_pos, dtype=np.float64)[:, None] + np.cumsum(disps, axis=1)
        return positions, cache

    def _decode_backward_agent(self, cache, d_pos):
        """Gradient of every rollout row of a decode cache at once, each step's
        cell stepped forward again from the cache's records.

        d_pos is (rows, steps, 2). Accumulates the decoder's parameter
        gradients and returns (d_h_obs, d_z), (rows, h_enc) and
        (rows, z_dim): each row's gradient for its encoding and its draw.
        """
        dec = self.decoder
        s, h0, records = cache
        steps = d_pos.shape[1]
        d_disp = np.cumsum(d_pos[:, ::-1], axis=1)[:, ::-1]
        d_x = np.zeros((len(s), 2))
        d_h = np.zeros_like(h0)
        d_c = np.zeros_like(h0)
        for t in range(steps - 1, -1, -1):
            x_t, h_t, _ = records[t]
            h_prev, c_prev = records[t - 1][1:] if t else (h0, np.zeros_like(h0))
            _, _, cell_cache = cell_forward(x_t, h_prev[:, None], c_prev[:, None], dec.cell)
            d_delta = d_disp[:, t] + d_x  # position cumsum fan-out plus the fed-back input
            dec.dW_out += d_delta.T @ h_t
            dec.db_out += d_delta.sum(axis=0)
            d_x, d_hq, d_cq = cell_backward(cell_cache, d_h + d_delta @ dec.W_out, d_c, dec.cell)
            d_h, d_c = d_hq[:, 0], d_cq[:, 0]
        # d_x now targets the seed input (observed data): dropped
        d_a0 = d_h * (1.0 - h0 ** 2)
        dec.dW_fuse += d_a0.T @ s
        dec.db_fuse += d_a0.sum(axis=0)
        d_s = d_a0 @ dec.W_fuse
        return d_s[:, :dec.h_enc], d_s[:, dec.h_enc:]

    # ------------------------------------------------------------------ scene path

    def _encode(self, scenes, want_tape=False, want_cells=False):
        """(obs_disp, EncoderState, latents) of scenes observed together,
        their agents concatenated in order: the observed displacements, the
        observation run and each scene's scene head (mu, sigma, cache), or
        None for a model without a latent."""
        obs_disp = np.concatenate([to_relative(s.positions)[:, :s.obs_len] for s in scenes])
        counts = [s.n_agents for s in scenes]
        state = self.observe(obs_disp, want_tape=want_tape, want_cells=want_cells, counts=counts)
        if self.scene_enc is None:
            return obs_disp, state, None
        if any(s.smap is None for s in scenes):
            raise ValueError("model is latent-conditioned but the scene has no semantic map")
        ends = np.cumsum(counts)
        return obs_disp, state, [encode_scene(s.smap, obs_disp[end - k:end], self.scene_enc)
                                 for s, k, end in zip(scenes, counts, ends)]

    def _rollout(self, scenes, obs_disp, state, z, steps=None, want_cache=False):
        """Decode the agents of `scenes` from their last observed position and
        displacement over `steps` frames, by default the scenes' future
        frames (the configured pred_len when they have none). z is (m, n,
        z_dim), or (m, 1, z_dim) for all agents: sample k of agent i decodes
        under z[k, i]. Returns positions (m, n, steps, 2) and decode's
        cache, rows ordered sample-major."""
        if steps is None:
            steps = scenes[0].pred_len if scenes[0].pred_len > 0 else self.cfg.pred_len
        n = len(obs_disp)
        m, z_dim = z.shape[0], z.shape[2]
        last_pos = np.concatenate([s.positions[:, s.obs_len - 1] for s in scenes])
        positions, cache = self.decode(
            np.tile(state.h_obs, (m, 1)), np.broadcast_to(z, (m, n, z_dim)).reshape(m * n, z_dim),
            steps, np.tile(last_pos, (m, 1)), np.tile(obs_disp[:, -1], (m, 1)),
            want_cache=want_cache)
        return positions.reshape(m, n, steps, 2), cache

    # ------------------------------------------------------------------ prediction

    def predict(self, scene, m, rng, steps=None):
        """Encode once, sample m latent draws, decode m futures per agent."""
        if m < 1:
            raise ValueError("m must be >= 1")
        obs_disp, state, latents = self._encode([scene])
        zs = np.zeros((m, 0)) if latents is None else sample_latent(*latents[0][:2], m, rng)[0]
        positions, _ = self._rollout([scene], obs_disp, state, zs[:, None], steps)
        return PredictionSet(positions, zs)

    # ------------------------------------------------------------------ training

    def loss(self, scenes, loss_cfg, rng):
        """Forward-only training objective of a scene or a batch of scenes;
        returns its parts."""
        return self._loss_impl(scenes, loss_cfg, rng, with_grad=False)

    def loss_and_grad(self, scenes, loss_cfg, rng):
        """Objective plus gradient accumulation into the ParamStore slots."""
        return self._loss_impl(scenes, loss_cfg, rng, with_grad=True)

    def _loss_impl(self, scenes, loss_cfg, rng, with_grad):
        """A batch's loss is the mean over its scenes of each scene's loss:
        variety the mean over that scene's agents, coherence the mean over
        its pairs. The loss stream is drawn scene by scene, the latent draws
        then the coherence pairs, as one call per scene would draw it."""
        scenes = [scenes] if isinstance(scenes, Scene) else list(scenes)
        if not scenes:
            raise ValueError("no scenes to train on")
        if any(s.pred_len < 1 for s in scenes):
            raise ValueError("training scenes need ground-truth future frames")
        if len({(s.obs_len, s.pred_len) for s in scenes}) > 1:
            raise ValueError("the scenes of a batch need equal observed and future lengths")
        obs_disp, state, latents = self._encode(scenes, want_tape=with_grad)
        counts = [s.n_agents for s in scenes]
        starts = np.cumsum(counts) - counts  # each scene's first agent row
        n, t_obs = state.features.shape[:2]
        zs, eps, pairs = [], [], []
        for b, start in enumerate(starts):
            if latents is not None:
                z, e = sample_latent(*latents[b][:2], loss_cfg.m, rng)
                zs.append(z)
                eps.append(e)
            agent, t1, t2 = coherence_pairs(counts[b], t_obs, loss_cfg, rng)
            pairs.append((agent + start, t1, t2))
        # (scenes, m, z_dim) draws; without a latent all samples coincide, so one
        zs = np.zeros((len(scenes), 1, 0)) if latents is None else np.stack(zs)
        scene_of = np.repeat(np.arange(len(scenes)), counts)
        preds, _ = self._rollout(scenes, obs_disp, state, zs[scene_of].swapaxes(0, 1))

        gt = np.concatenate([s.future() for s in scenes])
        var_value, var_cache = variety_forward(gt, preds, counts)
        coh_value, coh_cache = coherence_forward(state.features, self.cfg.q, loss_cfg,
                                                 tuple(np.concatenate(p) for p in zip(*pairs)))
        total = loss_cfg.lam * coh_value + var_value
        parts = {"total": float(total), "coherence": float(coh_value), "variety": float(var_value)}
        if not with_grad:
            return parts

        # only each agent's best sample has gradient: decode those rows again
        best = var_cache[3]
        d_best = variety_backward(var_cache, 1.0)[best, np.arange(n)]
        _, dec_cache = self._rollout(scenes, obs_disp, state, zs[scene_of, best][None],
                                     want_cache=True)
        d_h_obs, d_z = self._decode_backward_agent(dec_cache, d_best)
        del dec_cache  # free the rollout's records before the encoder's frames step again

        d_features = np.zeros_like(state.features)
        coherence_backward(coh_cache, loss_cfg.lam, d_features)

        if latents is not None:
            d_sigma = d_z * np.stack(eps)[scene_of, best]
            for b, start in enumerate(starts):
                rows = slice(start, start + counts[b])
                encode_scene_backward(latents[b][2], d_z[rows].sum(axis=0),
                                      d_sigma[rows].sum(axis=0), self.scene_enc)

        self._observe_backward(state, d_h_obs, d_features)
        return parts

    # ------------------------------------------------------------------ exports

    def cell_state_trace(self, scene, steps=None):
        """Raw cell values per frame for offline activation analysis.

        Returns rows (phase, agent_id, frame_id, vector): encoder cells for
        every observation frame, then decoder cells for a rollout driven by
        the mean latent (deterministic export).
        """
        obs_disp, state, latents = self._encode([scene], want_cells=True)
        z = np.zeros((1, 1, 0)) if latents is None else latents[0][0][None, None]  # mean latent
        _, (_, _, records) = self._rollout([scene], obs_disp, state, z, steps, want_cache=True)
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
