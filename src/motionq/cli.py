"""Command-line surface: train, eval, predict, gradcheck, synth, cellstates."""

from __future__ import annotations

import argparse
import os
import sys

from .data import (
    WindowConfig,
    load_manifest,
    load_windows,
    scene_to_records,
    save_trajectories,
    synth_dataset,
)
from .model import write_prediction_records
from .numkit import Rng
from .objectives import format_metrics_report
from .scene import save_map
from .trainer import TrainConfig, evaluate, load_checkpoint, train


def _load_scenes(manifest, cfg):
    return load_manifest(
        manifest,
        WindowConfig(cfg.obs_len, cfg.pred_len, 1, 1),
        map_size=cfg.map_size,
        map_channels=cfg.map_channels,
    )


def _scene_windows(args, cfg):
    """Windows of --scene with its --map (a blank map when omitted), ids
    prefixed with the scene file's name; exits when there are none."""
    windows = load_windows(args.scene, args.map or None,
                           WindowConfig(cfg.obs_len, cfg.pred_len, 1, args.frame_step),
                           cfg.map_size, cfg.map_channels, os.path.basename(args.scene) + ":")
    if not windows:
        sys.exit("no complete windows in the scene file")
    return windows


def _cmd_train(args):
    cfg = TrainConfig.from_file(args.config) if args.config else TrainConfig()
    scenes = _load_scenes(args.data, cfg)
    print(f"training on {len(scenes)} scene windows")
    _, curve = train(cfg, scenes, args.out,
                     log=lambda row: print(
                         f"epoch {row[0]} iter {row[1]} total {row[2]:.5f} "
                         f"coherence {row[3]:.5f} variety {row[4]:.5f}"),
                     resume=args.resume)
    print(f"done: {len(curve)} iterations, checkpoints in {args.out}")


def _cmd_eval(args):
    cfg, model, _, _ = load_checkpoint(args.ckpt)
    scenes = _load_scenes(args.data, cfg)
    horizons = tuple(int(h) for h in args.horizons.split(",")) if args.horizons else ()
    seed = cfg.eval_seed if args.seed is None else args.seed
    report = evaluate(model, scenes, args.samples, seed=seed,
                      nonlinear_only=args.nonlinear_only, horizons=horizons)
    text = format_metrics_report(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text, end="")


def _cmd_predict(args):
    cfg, model, _, _ = load_checkpoint(args.ckpt)
    windows = _scene_windows(args, cfg)
    rng = Rng(args.seed)
    with open(args.out, "w") as fh:
        fh.write("# scene_id agent_id sample_id frame_id x y\n")
    for scene in windows:
        preds = model.predict(scene, args.samples, rng)
        write_prediction_records(args.out, scene.scene_id, preds)
    print(f"wrote predictions for {len(windows)} windows to {args.out}")


def _cmd_gradcheck(args):
    from . import gradchecks

    checks = gradchecks.run(args.module)
    status = 0
    for name, err, bound in checks:
        ok = err < bound
        print(f"{name}: max rel err {err:.3e} (bound {bound:.0e}) {'PASS' if ok else 'FAIL'}")
        if not ok:
            status = 1
    sys.exit(status)


def _cmd_synth(args):
    rng = Rng(args.seed)
    scenes = synth_dataset(args.kind, args.count, rng, n_agents=args.agents,
                           noise=args.noise, map_size=args.map_size)
    os.makedirs(args.out, exist_ok=True)
    manifest_lines = []
    for i, scene in enumerate(scenes):
        traj_name = f"{args.kind}_{i:04d}.txt"
        map_name = f"{args.kind}_{i:04d}.map"
        save_trajectories(os.path.join(args.out, traj_name), scene_to_records(scene))
        save_map(os.path.join(args.out, map_name), scene.smap)
        manifest_lines.append(f"{traj_name} {map_name} 1")
    with open(os.path.join(args.out, "manifest.txt"), "w") as fh:
        fh.write("\n".join(manifest_lines) + "\n")
    print(f"wrote {len(scenes)} scenes and manifest.txt to {args.out}")


def _cmd_cellstates(args):
    cfg, model, _, _ = load_checkpoint(args.ckpt)
    windows = _scene_windows(args, cfg)
    with open(args.out, "w") as fh:
        fh.write("# scene_id phase agent_id frame_id c0 c1 ...\n")
        for scene in windows:
            for phase, agent, frame, vec in model.cell_state_trace(scene):
                vals = " ".join(repr(float(v)) for v in vec)
                fh.write(f"{scene.scene_id} {phase} {agent} {frame} {vals}\n")
    print(f"wrote cell states for {len(windows)} windows to {args.out}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="motionq",
        description="Queue-augmented LSTM forecaster for multi-agent motion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="optimize a model on a dataset manifest")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--data", required=True, help="dataset manifest path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--resume", help="checkpoint written by train to continue from; "
                                    "its config must match in every key but epochs")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="best-of-m metrics for a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, help="sampling seed (default: the checkpoint's eval_seed)")
    p.add_argument("--nonlinear-only", action="store_true",
                   help="restrict to agents whose trajectory fails a line fit")
    p.add_argument("--horizons",
                   help="comma-separated frame counts for per-horizon breakdown, e.g. 2,5,7,10")
    p.add_argument("--out", help="write the metrics report here as well")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("predict", help="export sampled trajectories for a scene file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--scene", required=True, help="trajectory file")
    p.add_argument("--map", help="semantic map file (blank walkable map if omitted)")
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--frame-step", type=int, default=1)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference checks of every backward pass")
    p.add_argument("--module", default="full",
                   choices=["cell", "social", "scene", "decoder", "full"])
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("synth", help="generate synthetic scenes with semantic maps")
    p.add_argument("--kind", required=True,
                   choices=["parallel", "face_to_face", "turning", "crossroad"])
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--agents", type=int, default=2)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--map-size", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("cellstates", help="export raw cell values per frame")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--map")
    p.add_argument("--out", required=True)
    p.add_argument("--frame-step", type=int, default=1)
    p.set_defaults(func=_cmd_cellstates)

    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
