"""Seeded input generator for the benchmark.

Scenes are made here, independently of the generator in `motionq.data`, and
reach the program only as files in the formats the repository README
documents: one trajectory file (`frame_id agent_id x y`) and one semantic map
file (`H W C` header, then H*W*C floats) per scene, listed in a manifest
(`traj_path map_path frame_step`). Frame ids step by FRAME_STEP, so the
manifest's frame_step column is exercised.

Every scene is exactly obs_len + pred_len frames long, so each trajectory
file yields exactly one window, and agent ids are 1..n in generation order,
so the program's agent order (sorted ids) equals the generator's.
"""

from __future__ import annotations

import os

import numpy as np

WORLD = 16.0          # scenes live in [0, 16] x [0, 16]
MAP_SIZE = 64
MAP_CHANNELS = 2      # channel 0 walkable, channel 1 obstacle
OBS_LEN = 8
PRED_LEN = 12
FRAME_BASE = 100
FRAME_STEP = 10
NOISE = 0.02


class Scene:
    """Ground-truth positions (n, T, 2) plus the (H, W, C) map grid."""

    def __init__(self, kind, positions, grid):
        self.kind = kind
        self.positions = positions
        self.grid = grid

    @property
    def n_agents(self):
        return self.positions.shape[0]


def _obstacles():
    grid = np.zeros((MAP_SIZE, MAP_SIZE, MAP_CHANNELS))
    grid[:, :, 1] = 1.0
    return grid


def _walk(grid, rows, cols):
    """Mark the world-unit box rows x cols walkable (row = y, col = x)."""
    scale = MAP_SIZE / WORLD
    r0, r1 = max(0, int(rows[0] * scale)), min(MAP_SIZE, int(np.ceil(rows[1] * scale)))
    c0, c1 = max(0, int(cols[0] * scale)), min(MAP_SIZE, int(np.ceil(cols[1] * scale)))
    grid[r0:r1, c0:c1, 0] = 1.0
    grid[r0:r1, c0:c1, 1] = 0.0


def turning(rng, n):
    """A group walking east that turns north or south inside the horizon,
    on an L-shaped corner map whose leg matches the realised turn."""
    c = WORLD / 2
    total = OBS_LEN + PRED_LEN
    speed = rng.uniform(0.5, 0.6)
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    turn_at = int(rng.integers(OBS_LEN + 1, OBS_LEN + 5))
    pos = np.zeros((n, total, 2))
    for i in range(n):
        lane = c + (i - (n - 1) / 2) * 0.8
        x0 = c - speed * turn_at
        for t in range(total):
            if t <= turn_at:
                pos[i, t] = (x0 + speed * t, lane)
            else:
                pos[i, t] = (x0 + speed * turn_at, lane + sign * speed * (t - turn_at))
    half = 1.0 + n / 2
    grid = _obstacles()
    _walk(grid, (c - half, c + half), (0.0, WORLD))
    _walk(grid, (c, WORLD) if sign > 0 else (0.0, c), (c - half, c + half))
    return Scene("turning", pos + NOISE * rng.standard_normal(pos.shape), grid)


def crossroad(rng, n):
    """Agents entering a cross-shaped junction from any arm, each with its own
    speed, lateral offset and crossing frame, then going straight or turning."""
    c = WORLD / 2
    total = OBS_LEN + PRED_LEN
    arms = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    pos = np.zeros((n, total, 2))
    for i in range(n):
        d_in = arms[rng.integers(0, 4)]
        left = np.array([-d_in[1], d_in[0]])
        d_out = (d_in, left, -left)[rng.integers(0, 3)]
        speed = rng.uniform(0.45, 0.65)
        cross_at = int(rng.integers(OBS_LEN + 1, OBS_LEN + 5))
        hub = np.array([c, c]) + rng.uniform(-0.5, 0.5) * left
        for t in range(total):
            if t <= cross_at:
                pos[i, t] = hub - d_in * speed * (cross_at - t)
            else:
                pos[i, t] = hub + d_out * speed * (t - cross_at)
    grid = _obstacles()
    _walk(grid, (c - 2.0, c + 2.0), (0.0, WORLD))
    _walk(grid, (0.0, WORLD), (c - 2.0, c + 2.0))
    return Scene("crossroad", pos + NOISE * rng.standard_normal(pos.shape), grid)


def parallel(rng, n):
    """Side-by-side walkers sharing one velocity along a straight corridor."""
    c = WORLD / 2
    total = OBS_LEN + PRED_LEN
    speed = rng.uniform(0.5, 0.6)
    x0 = rng.uniform(1.0, 2.0)
    t_axis = np.arange(total)
    pos = np.zeros((n, total, 2))
    for i in range(n):
        pos[i, :, 0] = x0 + speed * t_axis
        pos[i, :, 1] = c + (i - (n - 1) / 2) * 0.6
    half = 1.0 + 0.3 * n
    grid = _obstacles()
    _walk(grid, (c - half, c + half), (0.0, WORLD))
    return Scene("parallel", pos + NOISE * rng.standard_normal(pos.shape), grid)


KINDS = {"turning": turning, "crossroad": crossroad, "parallel": parallel}


def make_scenes(seed, specs):
    """specs: list of (kind, n_agents). The same seed gives the same scenes."""
    rng = np.random.default_rng(seed)
    return [KINDS[kind](rng, n) for kind, n in specs]


def shifted(scene, offset):
    """The same scene translated by a constant world offset (map unchanged)."""
    return Scene(scene.kind, scene.positions + np.asarray(offset), scene.grid)


def reversed_agents(scene):
    """The same scene with the agent order reversed."""
    return Scene(scene.kind, scene.positions[::-1].copy(), scene.grid)


def _write_trajectories(path, positions):
    lines = []
    n, total, _ = positions.shape
    for t in range(total):
        frame = FRAME_BASE + FRAME_STEP * t
        for i in range(n):
            x, y = positions[i, t]
            lines.append(f"{frame} {i + 1} {float(x)!r} {float(y)!r}\n")
    with open(path, "w") as fh:
        fh.writelines(lines)


def _map_text(grid):
    h, w, c = grid.shape
    flat = np.where(grid.reshape(-1) > 0.5, "1.0", "0.0")
    rows = [" ".join(flat[i:i + 64]) for i in range(0, flat.size, 64)]
    return f"{h} {w} {c}\n" + "\n".join(rows) + "\n"


def write_manifest(directory, name, scenes):
    """Write one trajectory and one map file per scene plus `<name>.manifest`;
    returns the manifest path."""
    os.makedirs(directory, exist_ok=True)
    lines = []
    for i, scene in enumerate(scenes):
        traj = f"{name}_{i:03d}.txt"
        smap = f"{name}_{i:03d}.map"
        _write_trajectories(os.path.join(directory, traj), scene.positions)
        with open(os.path.join(directory, smap), "w") as fh:
            fh.write(_map_text(scene.grid))
        lines.append(f"{traj} {smap} {FRAME_STEP}\n")
    path = os.path.join(directory, f"{name}.manifest")
    with open(path, "w") as fh:
        fh.write("# traj_path map_path frame_step\n")
        fh.writelines(lines)
    return path
