"""motionq: queue-augmented LSTM forecasting for multi-agent motion.

Each agent carries fixed-length queues of its recent hidden and cell
features, held for all agents as (n, q, h) arrays. A gated recurrent cell
consumes the whole queue every frame, a social module refines queued
features across agents through learned pairwise relations, and a
scene-conditioned latent variable drives multimodal decoding through the same
cell at q = 1, the vanilla LSTM. Everything, including the backward passes,
is written against numpy directly.
"""

from .numkit import Rng, ParamStore, grad_check, cosine_sim
from .queues import push_pop
from .data import SceneBatch, WindowConfig, load_trajectories, extract_windows, to_relative, synth_scene
from .model import ModelConfig, MotionModel, PredictionSet
from .objectives import LossConfig, MetricsReport, ade_fde, tcc, variety_loss, coherence_loss
from .trainer import TrainConfig, train, evaluate, adam_step

__version__ = "0.1.0"
