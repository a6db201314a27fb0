"""Trajectory ingestion, window extraction and synthetic scene generation.

Trajectory files are whitespace-delimited text, one observation per line:

    frame_id agent_id x y

frame_id and agent_id are integers, x/y floats (meters for street datasets,
scaled pixels for drone footage). Blank lines and '#' comments are skipped.
A (frame_id, agent_id) pair may appear at most once per file.

Dataset manifests list one source per line: ``traj_path map_path frame_step``
with '-' as the map path for scenes without a semantic map (a uniform
walkable map is substituted). Paths are resolved relative to the manifest,
and a listed map must be map_size x map_size x map_channels.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .numkit import check_finite
from .scene import SemanticMap, load_map

__all__ = [
    "TrajectoryRecord",
    "WindowConfig",
    "SceneBatch",
    "load_trajectories",
    "save_trajectories",
    "to_relative",
    "extract_windows",
    "load_windows",
    "blank_map",
    "synth_scene",
    "synth_dataset",
    "load_manifest",
]

SYNTH_KINDS = ("parallel", "face_to_face", "turning", "crossroad")
WORLD_EXTENT = 16.0  # synthetic scenes live in [0, 16] x [0, 16]


@dataclass
class TrajectoryRecord:
    frame_id: int
    agent_id: int
    x: float
    y: float


@dataclass
class WindowConfig:
    obs_len: int = 8
    pred_len: int = 12
    stride: int = 1
    frame_step: int = 1  # raw frame-id gap corresponding to one 0.4 s step

    def __post_init__(self):
        if self.obs_len < 2 or self.pred_len < 1:
            raise ValueError("need obs_len >= 2 and pred_len >= 1")
        if self.stride < 1 or self.frame_step < 1:
            raise ValueError("stride and frame_step must be >= 1")

    @property
    def total_len(self):
        return self.obs_len + self.pred_len


class SceneBatch:
    """All agents co-present across one observation+prediction window."""

    def __init__(self, positions, obs_len, smap=None, scene_id=""):
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 3 or positions.shape[2] != 2:
            raise ValueError(f"positions must be (n_agents, frames, 2), got {positions.shape}")
        if not 1 <= obs_len <= positions.shape[1]:
            raise ValueError(f"obs_len {obs_len} outside window length {positions.shape[1]}")
        check_finite(positions, "scene positions")
        self.positions = positions
        self.obs_len = int(obs_len)
        self.smap = smap
        self.scene_id = scene_id

    @property
    def n_agents(self):
        return self.positions.shape[0]

    @property
    def total_len(self):
        return self.positions.shape[1]

    @property
    def pred_len(self):
        return self.total_len - self.obs_len

    def observed(self):
        return self.positions[:, :self.obs_len]

    def future(self):
        return self.positions[:, self.obs_len:]

    def __repr__(self):
        return f"SceneBatch({self.scene_id!r}, n={self.n_agents}, frames={self.total_len})"


def _integer_id(text, name):
    """An id field as an int; integral floats such as 780.0 are accepted."""
    value = float(text)
    if not value.is_integer():  # also false for inf and nan
        raise ValueError(f"{name} {text!r} is not an integer")
    return int(value)


def load_trajectories(path):
    """Parse a trajectory file into records sorted by (frame_id, agent_id)."""
    records = []
    seen = set()
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"{path}:{lineno}: not UTF-8 text") from None
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 'frame_id agent_id x y', got {line.rstrip()!r}")
            try:
                frame = _integer_id(parts[0], "frame_id")
                agent = _integer_id(parts[1], "agent_id")
                x = float(parts[2])
                y = float(parts[3])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: unparseable field: {exc}") from None
            if not (np.isfinite(x) and np.isfinite(y)):
                raise ValueError(f"{path}:{lineno}: non-finite coordinate")
            key = (frame, agent)
            if key in seen:
                raise ValueError(f"{path}:{lineno}: duplicate (frame_id, agent_id) = {key}")
            seen.add(key)
            records.append(TrajectoryRecord(frame, agent, x, y))
    records.sort(key=lambda r: (r.frame_id, r.agent_id))
    return records


def save_trajectories(path, records):
    with open(path, "w") as fh:
        for r in records:
            fh.write(f"{r.frame_id} {r.agent_id} {r.x!r} {r.y!r}\n")


def scene_to_records(scene):
    """Flatten a SceneBatch back into records (frame ids 0..T-1, agent ids 0..n-1)."""
    out = []
    for i in range(scene.n_agents):
        for t in range(scene.total_len):
            x, y = scene.positions[i, t]
            out.append(TrajectoryRecord(t, i, float(x), float(y)))
    return out


def to_relative(positions):
    """Per-frame displacements; the first displacement is (0, 0).

    Accepts (t, 2) or (n, t, 2). The cumulative sum of the output added to
    the start position reconstructs the input exactly.
    """
    positions = np.asarray(positions, dtype=np.float64)
    disp = np.zeros_like(positions)
    disp[..., 1:, :] = positions[..., 1:, :] - positions[..., :-1, :]
    return disp


def extract_windows(records, cfg, smap=None, scene_prefix=""):
    """Sliding windows of obs_len+pred_len resampled frames.

    Candidate start frames walk the sorted unique frame ids at the configured
    stride; a window is kept when every one of its total_len frames (spaced
    frame_step apart) exists and at least one agent is present at all of
    them. Agents missing from any frame of a window are excluded from it.
    """
    by_frame = {}
    for r in records:
        by_frame.setdefault(r.frame_id, {})[r.agent_id] = (r.x, r.y)
    frames = sorted(by_frame)
    length = cfg.total_len
    windows = []
    for pos in range(0, len(frames), cfg.stride):
        f0 = frames[pos]
        want = [f0 + k * cfg.frame_step for k in range(length)]
        if any(f not in by_frame for f in want):
            continue
        agents = set(by_frame[want[0]])
        for f in want[1:]:
            agents &= set(by_frame[f])
        if not agents:
            continue
        agents = sorted(agents)
        positions = np.array([[by_frame[f][a] for f in want] for a in agents])
        windows.append(
            SceneBatch(
                positions,
                cfg.obs_len,
                smap=smap,
                scene_id=f"{scene_prefix}f{f0}",
            )
        )
    return windows


def load_windows(traj_path, map_path, cfg, map_size, map_channels, scene_prefix):
    """extract_windows of one trajectory file, all sharing the map read from
    map_path, or a blank map when map_path is None. A map whose grid is not
    (map_size, map_size, map_channels) raises ValueError naming map_path."""
    records = load_trajectories(traj_path)
    if map_path is None:
        smap = blank_map(map_size, map_channels)
    else:
        smap = load_map(map_path)
        if smap.grid.shape != (map_size, map_size, map_channels):
            raise ValueError(f"{map_path}: map grid {smap.grid.shape} does not match "
                             f"configured ({map_size}, {map_size}, {map_channels})")
    return extract_windows(records, cfg, smap=smap, scene_prefix=scene_prefix)


# ---------------------------------------------------------------------------
# synthetic scenes


def blank_map(map_size=64, channels=2):
    """Uniform walkable map: channel 0 set to 1 everywhere."""
    grid = np.zeros((map_size, map_size, channels))
    grid[:, :, 0] = 1.0
    return SemanticMap(grid)


def _paint_band(grid, lo, hi, axis):
    """Mark a walkable band [lo, hi) in world units along the given axis."""
    size = grid.shape[0]
    scale = size / WORLD_EXTENT
    a = max(0, int(lo * scale))
    b = min(size, int(np.ceil(hi * scale)))
    if axis == 0:
        grid[a:b, :, 0] = 1.0
        grid[a:b, :, 1] = 0.0
    else:
        grid[:, a:b, 0] = 1.0
        grid[:, a:b, 1] = 0.0


def _obstacle_base(map_size, channels):
    grid = np.zeros((map_size, map_size, channels))
    grid[:, :, 1] = 1.0  # everything starts as obstacle
    return grid


def _corridor_map(map_size, channels, y_center, half_width=2.0):
    grid = _obstacle_base(map_size, channels)
    _paint_band(grid, y_center - half_width, y_center + half_width, axis=0)
    return grid


def _cross_map(map_size, channels, half_width=2.0):
    grid = _obstacle_base(map_size, channels)
    c = WORLD_EXTENT / 2
    _paint_band(grid, c - half_width, c + half_width, axis=0)
    _paint_band(grid, c - half_width, c + half_width, axis=1)
    return grid


def _corner_map(map_size, channels, y_center, turn_sign, half_width=2.0):
    """L-shaped corridor: horizontal approach, vertical leg toward the turn side."""
    scale = map_size / WORLD_EXTENT
    grid = _obstacle_base(map_size, channels)
    _paint_band(grid, y_center - half_width, y_center + half_width, axis=0)
    cx = WORLD_EXTENT / 2
    a = max(0, int((cx - half_width) * scale))
    b = min(map_size, int(np.ceil((cx + half_width) * scale)))
    if turn_sign > 0:
        grid[int(y_center * scale):, a:b, 0] = 1.0
        grid[int(y_center * scale):, a:b, 1] = 0.0
    else:
        grid[:int(np.ceil(y_center * scale)), a:b, 0] = 1.0
        grid[:int(np.ceil(y_center * scale)), a:b, 1] = 0.0
    return grid


def synth_scene(kind, n_agents, rng, noise=0.0, map_size=64, map_channels=2,
                obs_len=8, pred_len=12, scene_id=""):
    """Procedural ground-truth scene with a matching semantic map.

    Kinds: parallel (collinear offset walkers sharing one velocity),
    face_to_face (approaching pairs with lateral avoidance), turning
    (group right-angle turn; the map's corner layout matches the realized
    turn direction), crossroad (agents crossing the center, continuing
    straight or turning). Gaussian position noise of scale `noise` is added
    to every frame.
    """
    if kind not in SYNTH_KINDS:
        raise ValueError(f"unknown scene kind: {kind!r}, expected one of {SYNTH_KINDS}")
    minimum = 2 if kind == "face_to_face" else 1
    if n_agents < minimum:
        raise ValueError(f"{kind} scenes need at least {minimum} agents, got {n_agents}")
    if kind == "face_to_face" and n_agents % 2:
        raise ValueError("face_to_face scenes pair agents; n_agents must be even")

    total = obs_len + pred_len
    t_axis = np.arange(total, dtype=np.float64)
    c = WORLD_EXTENT / 2
    positions = np.zeros((n_agents, total, 2))

    if kind == "parallel":
        speed = 0.5 + 0.1 * rng.uniform()
        x0 = 1.0 + rng.uniform()
        for i in range(n_agents):
            lane = c + (i - (n_agents - 1) / 2) * 1.0
            positions[i, :, 0] = x0 + speed * t_axis
            positions[i, :, 1] = lane
        smap = SemanticMap(_corridor_map(map_size, map_channels, c, half_width=1.0 + n_agents / 2))

    elif kind == "face_to_face":
        speed = 0.5 + 0.1 * rng.uniform()
        for p in range(n_agents // 2):
            lane = c + (p - (n_agents // 2 - 1) / 2) * 1.5
            gap = speed * total + 1.0
            xa = c - gap / 2
            xb = c + gap / 2
            dodge = 0.6 * np.exp(-0.5 * ((t_axis - total / 2) / (total / 6)) ** 2)
            a, b = 2 * p, 2 * p + 1
            positions[a, :, 0] = xa + speed * t_axis
            positions[a, :, 1] = lane + dodge
            positions[b, :, 0] = xb - speed * t_axis
            positions[b, :, 1] = lane - dodge
        smap = SemanticMap(_corridor_map(map_size, map_channels, c, half_width=1.5 + n_agents / 2))

    elif kind == "turning":
        speed = 0.5 + 0.1 * rng.uniform()
        turn_sign = 1 if rng.uniform() < 0.5 else -1
        turn_at = int(rng.integers(obs_len + 1, obs_len + 5))  # turn inside the horizon
        for i in range(n_agents):
            lane = c + (i - (n_agents - 1) / 2) * 0.8
            x0 = c - speed * turn_at
            for t in range(total):
                if t <= turn_at:
                    positions[i, t] = (x0 + speed * t, lane)
                else:
                    positions[i, t] = (x0 + speed * turn_at, lane + turn_sign * speed * (t - turn_at))
        smap = SemanticMap(
            _corner_map(map_size, map_channels, c, turn_sign, half_width=1.0 + n_agents / 2))

    else:  # crossroad
        speed = 0.5 + 0.1 * rng.uniform()
        arms = {
            0: (np.array([1.0, 0.0]), np.array([0.0, c])),    # entering eastbound
            1: (np.array([-1.0, 0.0]), np.array([WORLD_EXTENT, c])),
            2: (np.array([0.0, 1.0]), np.array([c, 0.0])),
            3: (np.array([0.0, -1.0]), np.array([c, WORLD_EXTENT])),
        }
        cross_at = int(rng.integers(obs_len + 1, obs_len + 5))
        for i in range(n_agents):
            direction, _ = arms[int(rng.integers(0, 4))]
            choice = int(rng.integers(0, 3))  # straight, left, right
            if choice == 0:
                out_dir = direction
            elif choice == 1:
                out_dir = np.array([-direction[1], direction[0]])
            else:
                out_dir = np.array([direction[1], -direction[0]])
            start = np.array([c, c]) - direction * speed * cross_at
            for t in range(total):
                if t <= cross_at:
                    positions[i, t] = start + direction * speed * t
                else:
                    positions[i, t] = np.array([c, c]) + out_dir * speed * (t - cross_at)
        smap = SemanticMap(_cross_map(map_size, map_channels))

    if noise > 0:
        positions = positions + noise * rng.normal(positions.shape)

    return SceneBatch(positions, obs_len, smap=smap, scene_id=scene_id or kind)


def synth_dataset(kind, count, rng, n_agents=2, noise=0.0, map_size=64,
                  map_channels=2, obs_len=8, pred_len=12):
    return [
        synth_scene(kind, n_agents, rng, noise=noise, map_size=map_size,
                    map_channels=map_channels, obs_len=obs_len, pred_len=pred_len,
                    scene_id=f"{kind}_{i:04d}")
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# manifests


def load_manifest(path, cfg, map_size=64, map_channels=2):
    """Build scene windows from every source listed in a manifest file.

    Each line's trajectory file and map (or '-') are read by load_windows,
    with the line's frame_step; window ids are prefixed with the trajectory
    file's name without its extension. A malformed line raises ValueError
    naming `path:line`, a malformed or wrong-size map one naming the map.
    """
    base = os.path.dirname(os.path.abspath(path))
    scenes = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'traj_path map_path frame_step'")
            if not parts[2].isdigit() or int(parts[2]) < 1:
                raise ValueError(f"{path}:{lineno}: frame_step must be an integer >= 1, "
                                 f"got {parts[2]!r}")
            map_path = None if parts[1] == "-" else os.path.join(base, parts[1])
            step_cfg = WindowConfig(cfg.obs_len, cfg.pred_len, cfg.stride, int(parts[2]))
            prefix = os.path.splitext(os.path.basename(parts[0]))[0] + ":"
            scenes.extend(load_windows(os.path.join(base, parts[0]), map_path, step_cfg,
                                       map_size, map_channels, prefix))
    return scenes
