import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from motionq.data import (
    SceneBatch,
    WindowConfig,
    blank_map,
    extract_windows,
    load_manifest,
    load_trajectories,
    save_trajectories,
    scene_to_records,
    synth_dataset,
    synth_scene,
    to_relative,
)
from motionq.numkit import Rng
from motionq.objectives import nonlinear_filter
from motionq.scene import save_map


# ---------------------------------------------------------------------------
# trajectory files


def test_load_parses_basic_line(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("10 1 3.5 -2.0\n")
    records = load_trajectories(path)
    assert len(records) == 1
    r = records[0]
    assert (r.frame_id, r.agent_id, r.x, r.y) == (10, 1, 3.5, -2.0)


def test_load_empty_file(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("")
    assert load_trajectories(path) == []


def test_load_duplicate_key_rejected(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("10 1 0 0\n10 1 1 1\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_trajectories(path)


def test_load_malformed_line_reports_lineno(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("10 1 0 0\n10 2 oops 0\n")
    with pytest.raises(ValueError, match=":2:"):
        load_trajectories(path)


@pytest.mark.parametrize("lines,lineno,bad", [
    ("10 1 0 0\n1.5 1 0 0\n", 2, "frame_id '1.5' is not an integer"),
    ("10 0.7 0 0\n10 0.2 1 1\n", 1, "agent_id '0.7' is not an integer"),
    ("10 1 0 0\ninf 1 0 0\n", 2, "frame_id 'inf' is not an integer"),
], ids=["fractional-frame", "fractional-agents", "infinite-frame"])
def test_load_rejects_ids_that_are_not_integers(tmp_path, lines, lineno, bad):
    path = tmp_path / "t.txt"
    path.write_text(lines)
    with pytest.raises(ValueError, match=re.escape(f"{path}:{lineno}: ") + ".*" + re.escape(bad)):
        load_trajectories(path)


def test_load_rejects_undecodable_line_naming_path_and_line(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"10 1 0 0\n10 2 \xff 0\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: ")):
        load_trajectories(path)


def test_load_accepts_integral_float_ids(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("780.0 3.0 1.5 2.5\n")
    r, = load_trajectories(path)
    assert (r.frame_id, r.agent_id, r.x, r.y) == (780, 3, 1.5, 2.5)
    assert type(r.frame_id) is int and type(r.agent_id) is int


def test_load_sorts_and_skips_comments(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# header\n20 1 0 0\n\n10 2 1 1\n10 1 2 2\n")
    records = load_trajectories(path)
    assert [(r.frame_id, r.agent_id) for r in records] == [(10, 1), (10, 2), (20, 1)]


def test_save_load_roundtrip(tmp_path):
    rng = Rng(0)
    scene = synth_scene("parallel", 2, rng)
    path = tmp_path / "t.txt"
    save_trajectories(path, scene_to_records(scene))
    records = load_trajectories(path)
    windows = extract_windows(records, WindowConfig())
    assert len(windows) == 1
    assert np.array_equal(windows[0].positions, scene.positions)


# ---------------------------------------------------------------------------
# windowing


def make_records(agent_spans):
    """agent_spans: {agent_id: (first_frame, n_frames)}."""
    from motionq.data import TrajectoryRecord

    out = []
    for agent, (start, n) in agent_spans.items():
        for k in range(n):
            out.append(TrajectoryRecord(start + k, agent, float(k), float(agent)))
    out.sort(key=lambda r: (r.frame_id, r.agent_id))
    return out


def test_minimal_span_single_window():
    records = make_records({1: (0, 20)})
    assert len(extract_windows(records, WindowConfig())) == 1


def test_short_span_no_windows():
    records = make_records({1: (0, 19)})
    assert len(extract_windows(records, WindowConfig())) == 0


def test_overlapping_agents_window_count():
    # both agents span the same 25 frames: 25 - 20 + 1 = 6 windows, each with both
    records = make_records({1: (0, 25), 2: (0, 25)})
    windows = extract_windows(records, WindowConfig())
    assert len(windows) == 6
    assert all(w.n_agents == 2 for w in windows)


def test_all_agents_present_at_every_frame():
    records = make_records({1: (0, 30), 2: (5, 20), 3: (0, 12)})
    for w in extract_windows(records, WindowConfig()):
        assert np.all(np.isfinite(w.positions))
        assert w.total_len == 20


def test_frame_step_resampling():
    records = make_records({1: (0, 200)})
    windows = extract_windows(records, WindowConfig(frame_step=10))
    # spans frames 0..199: starts 0..9 give full 20-step windows at gap 10
    assert len(windows) == 10
    w = windows[0]
    assert w.positions[0, 1, 0] - w.positions[0, 0, 0] == 10.0


def test_stride_skips_candidate_starts():
    records = make_records({1: (0, 25)})
    assert len(extract_windows(records, WindowConfig(stride=2))) == 3  # starts 0, 2, 4


def test_window_config_validation():
    with pytest.raises(ValueError):
        WindowConfig(obs_len=1)
    with pytest.raises(ValueError):
        WindowConfig(pred_len=0)


# ---------------------------------------------------------------------------
# relative encoding


def test_to_relative_hand_case():
    pos = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    disp = to_relative(pos)
    assert np.array_equal(disp, [[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])


def test_to_relative_constant_position():
    pos = np.tile(np.array([3.0, -1.0]), (6, 1))
    assert not to_relative(pos).any()


@given(st.integers(min_value=0, max_value=10_000))
def test_to_relative_cumsum_inverse(seed):
    rng = Rng(seed)
    pos = np.cumsum(rng.normal((2, 7, 2)), axis=1)
    disp = to_relative(pos)
    rebuilt = pos[:, :1, :] + np.cumsum(disp, axis=1)
    assert np.allclose(rebuilt, pos, atol=1e-12)


# ---------------------------------------------------------------------------
# synthetic scenes


def test_parallel_scene_exactly_parallel():
    scene = synth_scene("parallel", 2, Rng(0), noise=0.0)
    v0 = np.diff(scene.positions[0], axis=0)
    v1 = np.diff(scene.positions[1], axis=0)
    assert np.array_equal(v0, v1)
    assert np.allclose(v0, v0[0], atol=1e-12)  # constant velocity


def test_turning_scene_is_nonlinear():
    scene = synth_scene("turning", 3, Rng(1), noise=0.0)
    for i in range(scene.n_agents):
        assert nonlinear_filter(scene.positions[i]) is True


def test_synth_deterministic():
    a = synth_scene("crossroad", 4, Rng(7), noise=0.1)
    b = synth_scene("crossroad", 4, Rng(7), noise=0.1)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.smap.grid, b.smap.grid)


def test_face_to_face_needs_pairs():
    with pytest.raises(ValueError):
        synth_scene("face_to_face", 1, Rng(0))
    with pytest.raises(ValueError):
        synth_scene("face_to_face", 3, Rng(0))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        synth_scene("zigzag", 2, Rng(0))


def test_synth_scene_shapes_and_map():
    scene = synth_scene("turning", 2, Rng(3), map_size=32)
    assert scene.positions.shape == (2, 20, 2)
    assert scene.obs_len == 8 and scene.pred_len == 12
    assert scene.smap.grid.shape == (32, 32, 2)
    # one-hot walkable/obstacle classes
    assert np.array_equal(np.unique(scene.smap.grid), [0.0, 1.0])
    assert np.array_equal(scene.smap.grid.sum(axis=2), np.ones((32, 32)))


def test_synth_dataset_count_and_ids():
    scenes = synth_dataset("parallel", 5, Rng(0), n_agents=2)
    assert len(scenes) == 5
    assert len({s.scene_id for s in scenes}) == 5


# ---------------------------------------------------------------------------
# scene batch and manifests


def test_scene_batch_validation():
    with pytest.raises(ValueError):
        SceneBatch(np.zeros((2, 20, 3)), 8)
    with pytest.raises(ValueError):
        SceneBatch(np.full((1, 20, 2), np.nan), 8)
    with pytest.raises(ValueError):
        SceneBatch(np.zeros((1, 20, 2)), 25)


def test_manifest_loading(tmp_path):
    rng = Rng(0)
    scenes = synth_dataset("turning", 2, rng, map_size=32)
    lines = []
    for i, scene in enumerate(scenes):
        save_trajectories(tmp_path / f"s{i}.txt", scene_to_records(scene))
        save_map(tmp_path / f"s{i}.map", scene.smap)
        lines.append(f"s{i}.txt s{i}.map 1")
    lines.append("s0.txt - 1")  # blank-map entry
    (tmp_path / "manifest.txt").write_text("\n".join(lines) + "\n")
    loaded = load_manifest(tmp_path / "manifest.txt", WindowConfig(), map_size=32)
    assert len(loaded) == 3
    assert np.array_equal(loaded[0].positions, scenes[0].positions)
    assert np.array_equal(loaded[0].smap.grid, scenes[0].smap.grid)
    assert np.array_equal(loaded[2].smap.grid, blank_map(32).grid)


def test_manifest_bad_line(tmp_path):
    (tmp_path / "manifest.txt").write_text("only_two fields\n")
    with pytest.raises(ValueError):
        load_manifest(tmp_path / "manifest.txt", WindowConfig())


@pytest.mark.parametrize("step", ["x", "0", "-2", "1.5"])
def test_manifest_bad_frame_step_names_path_and_line(tmp_path, step):
    scene = synth_dataset("turning", 1, Rng(0), map_size=32)[0]
    save_trajectories(tmp_path / "s.txt", scene_to_records(scene))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"# comment\ns.txt - 1\ns.txt - {step}\n")
    with pytest.raises(ValueError, match=re.escape(f"{manifest}:3: frame_step")):
        load_manifest(manifest, WindowConfig(), map_size=32)


def test_manifest_bad_map_names_map_path(tmp_path):
    scene = synth_dataset("turning", 1, Rng(0), map_size=32)[0]
    save_trajectories(tmp_path / "s.txt", scene_to_records(scene))
    (tmp_path / "s.map").write_text("1 1 1\nnan\n")
    (tmp_path / "manifest.txt").write_text("s.txt s.map 1\n")
    with pytest.raises(ValueError, match=re.escape(str(tmp_path / "s.map"))):
        load_manifest(tmp_path / "manifest.txt", WindowConfig(), map_size=32)


def test_manifest_wrong_size_map_names_map_path(tmp_path):
    scene = synth_dataset("turning", 1, Rng(0), map_size=32)[0]
    save_trajectories(tmp_path / "s.txt", scene_to_records(scene))
    save_map(tmp_path / "s.map", scene.smap)
    (tmp_path / "manifest.txt").write_text("s.txt s.map 1\n")
    with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 's.map'}: map grid (32, 32, 2) "
                                                   "does not match configured (64, 64, 2)")):
        load_manifest(tmp_path / "manifest.txt", WindowConfig(), map_size=64)
