import re

import pytest

from motionq.cli import main


def write_config(path, **overrides):
    base = dict(h=8, z_dim=4, q=2, dec_h=8, m=2, pairs_per_batch=8,
                batch_size=2, epochs=2, seed=0)
    base.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    return path


def test_synth_train_eval_predict_cellstates(tmp_path, capsys):
    data_dir = tmp_path / "data"
    run_dir = tmp_path / "run"
    main(["synth", "--kind", "turning", "--count", "3", "--out", str(data_dir),
          "--agents", "2", "--noise", "0.01", "--seed", "1"])
    assert (data_dir / "manifest.txt").exists()
    assert (data_dir / "turning_0000.txt").exists()
    assert (data_dir / "turning_0000.map").exists()

    cfg_path = write_config(tmp_path / "train.cfg")
    main(["train", "--config", str(cfg_path), "--data", str(data_dir / "manifest.txt"),
          "--out", str(run_dir)])
    assert (run_dir / "final.ckpt").exists()
    assert (run_dir / "loss_curve.txt").exists()

    report_path = tmp_path / "report.txt"
    main(["eval", "--ckpt", str(run_dir / "final.ckpt"),
          "--data", str(data_dir / "manifest.txt"),
          "--samples", "3", "--out", str(report_path)])
    report = report_path.read_text()
    assert "ade all" in report and "fde all" in report and "tcc all" in report

    pred_path = tmp_path / "preds.txt"
    main(["predict", "--ckpt", str(run_dir / "final.ckpt"),
          "--scene", str(data_dir / "turning_0000.txt"),
          "--map", str(data_dir / "turning_0000.map"),
          "--out", str(pred_path), "--samples", "2"])
    lines = [l for l in pred_path.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 2 * 2 * 12  # samples * agents * frames

    cells_path = tmp_path / "cells.txt"
    main(["cellstates", "--ckpt", str(run_dir / "final.ckpt"),
          "--scene", str(data_dir / "turning_0001.txt"),
          "--map", str(data_dir / "turning_0001.map"),
          "--out", str(cells_path)])
    body = [l for l in cells_path.read_text().splitlines() if not l.startswith("#")]
    assert len(body) == 2 * (8 + 12)  # agents * (obs + pred frames)
    assert body[0].split()[1] == "obs"
    capsys.readouterr()


def test_gradcheck_cli_single_module(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--module", "cell"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_eval_nonlinear_flag(tmp_path, capsys):
    data_dir = tmp_path / "data"
    run_dir = tmp_path / "run"
    main(["synth", "--kind", "turning", "--count", "2", "--out", str(data_dir),
          "--noise", "0.0"])
    cfg_path = write_config(tmp_path / "train.cfg", epochs=1)
    main(["train", "--config", str(cfg_path), "--data", str(data_dir / "manifest.txt"),
          "--out", str(run_dir)])
    main(["eval", "--ckpt", str(run_dir / "final.ckpt"),
          "--data", str(data_dir / "manifest.txt"),
          "--samples", "2", "--nonlinear-only"])
    out = capsys.readouterr().out
    assert "ade all" in out


def test_train_resume_continues_run(tmp_path, capsys):
    data_dir = tmp_path / "data"
    main(["synth", "--kind", "turning", "--count", "2", "--out", str(data_dir),
          "--noise", "0.01", "--seed", "1"])
    manifest = str(data_dir / "manifest.txt")
    two = str(write_config(tmp_path / "two.cfg", epochs=2))
    one = str(write_config(tmp_path / "one.cfg", epochs=1))
    main(["train", "--config", two, "--data", manifest, "--out", str(tmp_path / "full")])
    main(["train", "--config", one, "--data", manifest, "--out", str(tmp_path / "head")])
    capsys.readouterr()
    main(["train", "--config", two, "--data", manifest, "--out", str(tmp_path / "tail"),
          "--resume", str(tmp_path / "head" / "last.ckpt")])
    assert "epoch 1 iter 1 " in capsys.readouterr().out
    assert ((tmp_path / "tail" / "final.ckpt").read_bytes()
            == (tmp_path / "full" / "final.ckpt").read_bytes())


def test_eval_seed_defaults_to_the_checkpoint_eval_seed(tmp_path, capsys):
    data_dir = tmp_path / "data"
    main(["synth", "--kind", "turning", "--count", "2", "--out", str(data_dir),
          "--noise", "0.05", "--seed", "2"])
    cfg_path = write_config(tmp_path / "train.cfg", epochs=1, eval_seed=99)
    main(["train", "--config", str(cfg_path), "--data", str(data_dir / "manifest.txt"),
          "--out", str(tmp_path / "run")])
    capsys.readouterr()
    reports = []
    for seed in ([], ["--seed", "99"], ["--seed", "1234"]):
        main(["eval", "--ckpt", str(tmp_path / "run" / "final.ckpt"),
              "--data", str(data_dir / "manifest.txt"), "--samples", "3", *seed])
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] != reports[2]


def test_cellstates_takes_no_seed():
    with pytest.raises(SystemExit) as exc:
        main(["cellstates", "--ckpt", "a", "--scene", "b", "--out", "c", "--seed", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["predict", "cellstates"])
def test_scene_commands_reject_wrong_size_map_naming_it(tmp_path, capsys, command):
    data_dir = tmp_path / "data"
    small_dir = tmp_path / "small"
    main(["synth", "--kind", "turning", "--count", "1", "--out", str(data_dir)])
    main(["synth", "--kind", "turning", "--count", "1", "--out", str(small_dir),
          "--map-size", "32"])
    cfg_path = write_config(tmp_path / "train.cfg", epochs=1)
    main(["train", "--config", str(cfg_path), "--data", str(data_dir / "manifest.txt"),
          "--out", str(tmp_path / "run")])
    small_map = small_dir / "turning_0000.map"
    with pytest.raises(ValueError, match=re.escape(f"{small_map}: map grid (32, 32, 2) "
                                                   "does not match configured (64, 64, 2)")):
        main([command, "--ckpt", str(tmp_path / "run" / "final.ckpt"),
              "--scene", str(data_dir / "turning_0000.txt"), "--map", str(small_map),
              "--out", str(tmp_path / "out.txt")])
    assert not (tmp_path / "out.txt").exists()
    capsys.readouterr()
