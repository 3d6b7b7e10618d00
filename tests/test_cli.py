"""End-to-end command tests: train, eval, infer, gradcheck, ablate."""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import mirnet_forge
import numpy as np
import pytest

from mirnet_forge import blocks as B
from mirnet_forge import cli
from mirnet_forge import data as D
from mirnet_forge import optim as O
from mirnet_forge import pipeline
from mirnet_forge import tensor as T
from mirnet_forge.checkpoint import load_checkpoint, save_checkpoint
from mirnet_forge.config import parse_config, render_config
from mirnet_forge.verify import run_gradcheck_suite

RNG = np.random.default_rng

BASE_CONFIG = """\
train.total_steps = 4
train.batch = 2
train.patch_size = 16
train.checkpoint_every = 2
data.manifest = manifest.txt
data.noise_sigma = 25
"""


def _config_with(extra: bytes) -> bytes:
    """BASE_CONFIG with the lines of `extra` appended, less the lines whose
    keys `extra` sets again: a config sets each key once."""
    def key(line):
        return line.split(b"#")[0].split(b"=")[0].strip()

    keys = {key(line) for line in extra.splitlines()} - {b""}
    base = BASE_CONFIG.encode().splitlines(keepends=True)
    return b"".join(line for line in base if key(line) not in keys) + extra


def _smooth_image(seed, h=24, w=24):
    """Low-frequency random image so denoising has signal to recover."""
    rng = RNG(seed)
    coarse = rng.uniform(40, 216, (3, 3, 3))
    img = D.bicubic_resize(D.ImageBuffer(coarse.astype(np.uint8)), w, h)
    return img


def _make_dataset(root, n=3, config_text=BASE_CONFIG):
    root.mkdir(parents=True, exist_ok=True)
    names = []
    for i in range(n):
        name = f"img_{i}.ppm"
        D.save_ppm(_smooth_image(100 + i), root / name)
        names.append(name)
    (root / "manifest.txt").write_text("\n".join(names) + "\n")
    (root / "config.txt").write_text(config_text)
    return root / "config.txt", root / "manifest.txt"


class TestTrainCommand:
    def test_outputs(self, tmp_path):
        config, _ = _make_dataset(tmp_path / "data")
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config),
                         "--out", str(out)]) == cli.EXIT_OK

        assert (out / "final.ckpt").exists()
        assert (out / "checkpoint_000002.ckpt").exists()
        assert (out / "checkpoint_000004.ckpt").exists()

        log = (out / "loss_log.csv").read_text().splitlines()
        assert log[0] == "step,lr,loss"
        assert len(log) == 5
        steps, lrs, losses = zip(*(row.split(",") for row in log[1:]))
        assert list(steps) == ["0", "1", "2", "3"]
        assert all(float(v) > 0 for v in lrs + losses)
        assert sorted(map(float, lrs), reverse=True) == list(map(float, lrs))

        echoed = parse_config((out / "config.txt").read_text())
        assert render_config(echoed) == (out / "config.txt").read_text()

    def test_checkpoint_holds_exactly_the_parameters(self, tmp_path):
        config, _ = _make_dataset(tmp_path / "data")
        out = tmp_path / "run"
        cli.main(["train", "--config", str(config), "--out", str(out)])
        net = pipeline.load_network(pipeline.load_config(str(config)),
                                    str(out / "final.ckpt"))
        assert list(load_checkpoint(out / "final.ckpt")) == list(net.named_parameters())

    def test_bitwise_reproducible(self, tmp_path):
        config, _ = _make_dataset(tmp_path / "data")
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["train", "--config", str(config),
                         "--out", str(a)]) == cli.EXIT_OK
        assert cli.main(["train", "--config", str(config),
                         "--out", str(b)]) == cli.EXIT_OK
        assert (a / "final.ckpt").read_bytes() == (b / "final.ckpt").read_bytes()
        assert (a / "loss_log.csv").read_text() == (b / "loss_log.csv").read_text()

    def test_seed_changes_run(self, tmp_path):
        config, _ = _make_dataset(tmp_path / "data")
        a, b = tmp_path / "a", tmp_path / "b"
        for seed, out in ((0, a), (1, b)):
            config.write_bytes(_config_with(f"train.seed = {seed}\n".encode()))
            assert cli.main(["train", "--config", str(config),
                             "--out", str(out)]) == cli.EXIT_OK
        assert (a / "final.ckpt").read_bytes() != (b / "final.ckpt").read_bytes()

    def test_seed_is_set_by_the_config_only(self, tmp_path):
        # the config line train.seed = N is the one way to set it
        config, _ = _make_dataset(tmp_path / "data")
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--config", str(config), "--out", str(tmp_path / "o"),
                      "--seed", "1"])
        assert exc.value.code == cli.EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    def test_echoed_config_reruns_from_a_relative_path(self, tmp_path, monkeypatch):
        # the echo holds an absolute manifest, so it names the same data from
        # the run directory as the original config does from the working one
        _make_dataset(tmp_path / "data")
        monkeypatch.chdir(tmp_path)
        assert cli.main(["train", "--config", "data/config.txt", "--out", "runs/a"]) == cli.EXIT_OK
        manifest = parse_config(Path("runs/a/config.txt").read_text()).data.manifest
        assert manifest == str(tmp_path / "data" / "manifest.txt")
        assert cli.main(["train", "--config", "runs/a/config.txt",
                         "--out", "runs/b"]) == cli.EXIT_OK
        for name in ("loss_log.csv", "final.ckpt", "config.txt"):
            assert (Path("runs/a") / name).read_bytes() == (Path("runs/b") / name).read_bytes()

    def test_unechoable_manifest_exits_2_before_writing(self, tmp_path, capsys):
        # the echo of a manifest under "a#b" would rerun on the data under "a"
        config, manifest = _make_dataset(tmp_path / "a#b")
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config),
                         "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: data.manifest value {str(manifest)!r} cannot be "
            "echoed: it holds '#' or a line break\n")
        assert not out.exists()

    def test_small_image_exits_3_before_writing(self, tmp_path, capsys):
        # the default patch is 32; the image and pair checks run before the
        # run directory exists, not at the first step
        root = tmp_path / "data"
        root.mkdir()
        D.save_ppm(_smooth_image(100, 16, 16), root / "img_0.ppm")
        (root / "manifest.txt").write_text("img_0.ppm\n")
        (root / "config.txt").write_text("data.manifest = manifest.txt\n")
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(root / "config.txt"),
                         "--out", str(out)]) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            "data error: image 0 (16x16) smaller than patch 32\n")
        assert not out.exists()

    def test_bad_config_exits_2(self, tmp_path):
        config, _ = _make_dataset(
            tmp_path / "data", config_text=BASE_CONFIG + "train.momentum = 0.9\n")
        assert cli.main(["train", "--config", str(config),
                         "--out", str(tmp_path / "run")]) == cli.EXIT_CONFIG

    def test_bad_data_setting_names_its_key(self, tmp_path, capsys):
        # data.seed, not train.seed: the message reads like the config line
        config, _ = _make_dataset(tmp_path / "data", config_text=BASE_CONFIG + "data.seed = -1\n")
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config),
                         "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: data.seed must lie in [0, 2^64), got -1\n")
        assert not out.exists()

    def test_missing_manifest_key_exits_2(self, tmp_path):
        config, _ = _make_dataset(
            tmp_path / "data",
            config_text="train.total_steps = 1\ntrain.patch_size = 16\n")
        assert cli.main(["train", "--config", str(config),
                         "--out", str(tmp_path / "run")]) == cli.EXIT_CONFIG
        assert not (tmp_path / "run").exists()

    def test_missing_manifest_file_exits_3(self, tmp_path):
        config, _ = _make_dataset(tmp_path / "data")
        (tmp_path / "data" / "manifest.txt").unlink()
        assert cli.main(["train", "--config", str(config),
                         "--out", str(tmp_path / "run")]) == cli.EXIT_DATA
        assert not (tmp_path / "run").exists()

    def test_manifest_of_comments_exits_3(self, tmp_path, capsys):
        config, manifest = _make_dataset(tmp_path / "data")
        manifest.write_text("# img_0.ppm\n\n  # img_1.ppm\n")
        assert cli.main(["train", "--config", str(config),
                         "--out", str(tmp_path / "run")]) == cli.EXIT_DATA
        assert capsys.readouterr().err == f"data error: manifest {manifest} lists no images\n"
        assert not (tmp_path / "run").exists()

    def test_corrupt_image_exits_3(self, tmp_path):
        config, _ = _make_dataset(tmp_path / "data")
        (tmp_path / "data" / "img_1.ppm").write_bytes(b"P6\n9 9\n255\nxy")
        assert cli.main(["train", "--config", str(config),
                         "--out", str(tmp_path / "run")]) == cli.EXIT_DATA

    def test_non_finite_loss_keeps_completed_rows(self, tmp_path, capsys):
        # the log is streamed: a run stopped at step 1 keeps step 0's row
        config, _ = _make_dataset(
            tmp_path / "data", config_text=BASE_CONFIG + "train.lr_init = 1e30\n")
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config),
                         "--out", str(out)]) == cli.EXIT_NUMERIC
        assert re.fullmatch(r"numerical failure: .+ at step 1\n", capsys.readouterr().err)
        log = (out / "loss_log.csv").read_text().splitlines()
        assert log[0] == "step,lr,loss"
        assert len(log) == 2 and log[1].startswith("0,1.0000000000e+30,")

    def test_nan_loss_without_a_flag_stops_at_the_loss_check(
            self, tmp_path, capsys, monkeypatch):
        # a NaN that sets no floating-point flag passes errstate
        def nan_loss(pred, target, mode):
            return T._record([pred, target], np.asarray(np.nan, pred.data.dtype),
                             lambda g: (None, None))
        monkeypatch.setattr(O, "charbonnier_loss", nan_loss)
        config, _ = _make_dataset(tmp_path / "data")
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config),
                         "--out", str(out)]) == cli.EXIT_NUMERIC
        assert capsys.readouterr().err == "numerical failure: non-finite loss at step 0\n"
        assert (out / "loss_log.csv").read_text() == "step,lr,loss\n"

    def test_each_step_ends_in_one_adam_step_of_two_positional_arguments(
            self, tmp_path, monkeypatch):
        # the benchmark's probe times a step from one Adam.step(adam, grads, lr)
        # return to the next and a forward from MIRNet.__call__
        events = []
        call, step = B.MIRNet.__call__, O.Adam.step

        def traced_call(net, image):
            events.append("forward")
            return call(net, image)

        def traced_step(*args, **kwargs):
            events.append(("step", len(args), sorted(kwargs), inspect.isgenerator(args[1])))
            return step(*args, **kwargs)
        monkeypatch.setattr(B.MIRNet, "__call__", traced_call)
        monkeypatch.setattr(O.Adam, "step", traced_step)
        config, _ = _make_dataset(tmp_path / "data")
        net, _ = pipeline.run_training(pipeline.load_config(str(config)), tmp_path / "run")
        assert events == ["forward", ("step", 3, [], True)] * 4
        # the stream hands each gradient to Adam and keeps none on a parameter
        assert all(p.grad is None for p in net.named_parameters().values())


def _identity_checkpoint(tmp_path, config):
    """Checkpoint whose network is the exact identity (zeroed tail conv)."""
    cfg = parse_config(config.read_text())
    net = B.MIRNet(cfg.network, dtype=np.float32, seed=cfg.train.seed)
    net.tail.weight.data[:] = 0
    net.tail.bias.data[:] = 0
    path = tmp_path / "identity.ckpt"
    save_checkpoint(path, {name: p.data for name, p in net.named_parameters().items()})
    return path


def _nan_checkpoint(tmp_path, ckpt):
    """A copy of the checkpoint `ckpt` with one NaN weight."""
    params = load_checkpoint(ckpt)
    params["head.weight"].flat[0] = np.nan
    save_checkpoint(tmp_path / "nan.ckpt", params)
    return tmp_path / "nan.ckpt"


class TestEvalCommand:
    def test_report_layout(self, tmp_path, capsys):
        config, _ = _make_dataset(tmp_path / "data")
        ckpt = _identity_checkpoint(tmp_path, config)
        assert cli.main(["eval", "--config", str(config),
                         "--checkpoint", str(ckpt)]) == cli.EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "# channel_mode=rgb"
        assert lines[1] == "name\tpsnr_db\tssim"
        assert len(lines) == 2 + 3 + 2
        assert lines[-2].startswith("aggregate\t")
        assert lines[-1].startswith("input_baseline\t")
        for row in lines[2:]:
            _, p, s = row.split("\t")
            assert float(p) > 0 and 0 <= float(s) <= 1

    def test_identity_network_matches_baseline(self, tmp_path, capsys):
        # restored == degraded input, so aggregate equals the baseline row
        config, _ = _make_dataset(tmp_path / "data")
        ckpt = _identity_checkpoint(tmp_path, config)
        cli.main(["eval", "--config", str(config), "--checkpoint", str(ckpt)])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-2].split("\t")[1:] == lines[-1].split("\t")[1:]

    def test_clean_pairs_report_sentinels(self, tmp_path, capsys):
        # sigma 0: input == target, identity restoration is perfect
        config, _ = _make_dataset(
            tmp_path / "data",
            config_text=BASE_CONFIG.replace("noise_sigma = 25", "noise_sigma = 0"))
        ckpt = _identity_checkpoint(tmp_path, config)
        assert cli.main(["eval", "--config", str(config),
                         "--checkpoint", str(ckpt)]) == cli.EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        for row in lines[2:]:
            assert row.split("\t")[1] == "inf"
            assert float(row.split("\t")[2]) == 1.0

    def test_checkpoint_mismatch_exits_2(self, tmp_path, capsys):
        config, _ = _make_dataset(tmp_path / "data")
        ckpt = _identity_checkpoint(tmp_path, config)
        bigger = tmp_path / "data" / "big.txt"
        bigger.write_text(BASE_CONFIG + "network.base_channels = 16\n")
        assert cli.main(["eval", "--config", str(bigger),
                         "--checkpoint", str(ckpt)]) == cli.EXIT_CONFIG
        assert "head.weight" in capsys.readouterr().err

    def test_missing_parameter_exits_2(self, tmp_path, capsys):
        config, _ = _make_dataset(tmp_path / "data")
        params = load_checkpoint(_identity_checkpoint(tmp_path, config))
        del params["tail.bias"]
        save_checkpoint(tmp_path / "short.ckpt", params)
        assert cli.main(["eval", "--config", str(config),
                         "--checkpoint", str(tmp_path / "short.ckpt")]) == cli.EXIT_CONFIG
        assert capsys.readouterr() == (
            "", "checkpoint error: checkpoint missing parameter 'tail.bias'\n")

    def test_y_channel_mode_in_header(self, tmp_path, capsys):
        config, _ = _make_dataset(
            tmp_path / "data",
            config_text=BASE_CONFIG + "eval.channel_mode = y_channel\n")
        ckpt = _identity_checkpoint(tmp_path, config)
        cli.main(["eval", "--config", str(config), "--checkpoint", str(ckpt)])
        assert capsys.readouterr().out.startswith("# channel_mode=y_channel")

    def test_loaded_parameters_update_in_place(self, tmp_path):
        # load_network hands the loaded arrays to the parameters: Adam must be
        # able to update them without reallocating
        config, _ = _make_dataset(tmp_path / "data")
        ckpt = _identity_checkpoint(tmp_path, config)
        params = pipeline.load_network(
            pipeline.load_config(str(config)), str(ckpt)).named_parameters()
        before = {name: (p.data, p.data.copy()) for name, p in params.items()}
        for p in params.values():
            assert p.data.dtype == np.float32
            assert p.data.flags.writeable
            assert p.data.flags.c_contiguous and p.data.flags.aligned
        adam = O.Adam()
        adam.init_state(params)
        adam.step([(p, np.ones_like(p.data)) for p in params.values()], 1e-3)
        for name, p in params.items():
            array, old = before[name]
            assert p.data is array
            assert not np.array_equal(array, old), name

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        config, _ = _make_dataset(tmp_path / "data")
        ckpt = _identity_checkpoint(tmp_path, config)
        cfg = pipeline.load_config(str(config))

        def no_draw(*args, **kwargs):
            raise AssertionError("load_network drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        params = pipeline.load_network(cfg, str(ckpt)).named_parameters()
        stored = load_checkpoint(ckpt)
        assert all(np.array_equal(p.data, stored[name]) for name, p in params.items())


class TestInferCommand:
    def test_identity_round_trip_with_padding(self, tmp_path, monkeypatch):
        # 31x29 is not divisible by the 2-stream divisor 2, so the network
        # rejects it unpadded; reflect-pad + crop must return the original
        # pixels bit-exactly for an identity net.
        config, _ = _make_dataset(tmp_path / "data")
        ckpt = _identity_checkpoint(tmp_path, config)
        src = D.ImageBuffer(
            RNG(5).integers(0, 256, (31, 29, 3), dtype=np.uint8))
        net = pipeline.load_network(pipeline.load_config(str(config)), str(ckpt))
        with pytest.raises(T.ShapeError, match="31x29 must be divisible by 2"):
            net(T.Tensor(D.to_array(src)[None]))
        reflected, pad = [], np.pad

        def spy(a, *args, **kwargs):
            if kwargs.get("mode") == "reflect":
                reflected.append(a.shape)
            return pad(a, *args, **kwargs)
        monkeypatch.setattr(np, "pad", spy)
        D.save_ppm(src, tmp_path / "in.ppm")
        rc = cli.main(["infer", "--config", str(config), "--checkpoint", str(ckpt),
                       str(tmp_path / "in.ppm"), str(tmp_path / "out.ppm")])
        assert rc == cli.EXIT_OK
        assert reflected == [(3, 31, 29)]
        out = D.load_ppm(tmp_path / "out.ppm")
        assert np.array_equal(out.pixels, src.pixels)

    def test_missing_checkpoint_exits_2(self, tmp_path):
        config, _ = _make_dataset(tmp_path / "data")
        src = tmp_path / "in.ppm"
        D.save_ppm(_smooth_image(1), src)
        rc = cli.main(["infer", "--config", str(config),
                       "--checkpoint", str(tmp_path / "nope.ckpt"),
                       str(src), str(tmp_path / "out.ppm")])
        assert rc == cli.EXIT_CONFIG

    def test_bad_input_image_exits_3(self, tmp_path):
        config, _ = _make_dataset(tmp_path / "data")
        ckpt = _identity_checkpoint(tmp_path, config)
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P6\n4 4\n255\nxx")
        rc = cli.main(["infer", "--config", str(config), "--checkpoint", str(ckpt),
                       str(bad), str(tmp_path / "out.ppm")])
        assert rc == cli.EXIT_DATA

    def test_truncated_checkpoint_exits_2_without_traceback(self, tmp_path):
        config, _ = _make_dataset(tmp_path / "data")
        raw = _identity_checkpoint(tmp_path, config).read_bytes()
        src = tmp_path / "in.ppm"
        D.save_ppm(_smooth_image(1), src)
        env = dict(os.environ,
                   PYTHONPATH=str(Path(mirnet_forge.__file__).parents[1]))
        cut = tmp_path / "cut.ckpt"
        for size in (6, 9, 12, 20, len(raw) - 3):
            cut.write_bytes(raw[:size])
            proc = subprocess.run(
                [sys.executable, "-m", "mirnet_forge.cli", "infer",
                 "--config", str(config), "--checkpoint", str(cut),
                 str(src), str(tmp_path / "out.ppm")],
                capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == cli.EXIT_CONFIG, (size, proc.stderr)
            assert "Traceback" not in proc.stderr
            assert "checkpoint error: truncated" in proc.stderr


class TestGradcheckCommand:
    def test_clean_suite_passes(self, capsys):
        assert cli.main(["gradcheck"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "network\t" in out and "FAIL" not in out

    def test_corrupted_backward_detected_and_named(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_gradcheck_suite",
                            lambda: run_gradcheck_suite(corrupt="dau"))
        assert cli.main(["gradcheck"]) == cli.EXIT_VERIFY
        captured = capsys.readouterr()
        assert captured.err == "failing blocks: dau\n"
        # the control corrupts the dau case's own input, not the DAUs nested
        # in the mrb, rrg and network cases
        failing = [row.split("\t")[0] for row in captured.out.splitlines()
                   if row.endswith("\tFAIL")]
        assert failing == ["dau"]


class TestAblateCommand:
    def test_aggregation_counts(self, tmp_path, capsys):
        out = tmp_path / "ablate"
        assert cli.main(["ablate", "aggregation", "--out", str(out)]) == cli.EXIT_OK
        text = (out / "aggregation.txt").read_text()
        assert "sum\t0" in text
        assert "concat\t12288" in text
        assert "skff\t2049" in text
        assert f"concat_to_skff_ratio\t{12288 / 2049:.3f}" in text

    def test_aggregation_config_exits_2_before_writing(self, tmp_path, capsys):
        # the report does not depend on a config, so one given is refused
        # rather than ignored
        config, _ = _make_dataset(tmp_path / "data")
        out = tmp_path / "ablate"
        for path in (config, "x"):
            assert cli.main(["ablate", "aggregation", "--config", str(path),
                             "--out", str(out)]) == cli.EXIT_CONFIG
            assert capsys.readouterr() == (
                "", "config error: ablate aggregation takes no --config and no "
                    "--train-steps above 0\n")
            assert not out.exists()

    def test_layout_grid(self, tmp_path, capsys):
        config, _ = _make_dataset(tmp_path / "data")
        out = tmp_path / "ablate"
        assert cli.main(["ablate", "layout", "--config", str(config),
                         "--out", str(out)]) == cli.EXIT_OK
        rows = (out / "layout.txt").read_text().strip().splitlines()
        assert rows[0] == "rows\tcols\tparameters\tpsnr_db"
        assert len(rows) == 10
        counts = {}
        for row in rows[1:]:
            r, c, total, cell = row.split("\t")
            counts[(int(r), int(c))] = int(total)
            assert cell == "-"
        # capacity grows along both axes of the grid
        assert counts[(2, 1)] > counts[(1, 1)]
        assert counts[(1, 2)] > counts[(1, 1)]
        assert counts[(3, 3)] == max(counts.values())

    def test_negative_train_steps_exits_2_before_writing(self, tmp_path, capsys):
        # also a grid that would train without a manifest
        config, _ = _make_dataset(tmp_path / "data")
        no_manifest = tmp_path / "data" / "no_manifest.txt"
        no_manifest.write_bytes(_config_with(b"data.manifest =\n"))
        out = tmp_path / "ablate"
        for path, steps, err in (
                (config, "-2", "--train-steps must be >= 0, got -2"),
                (no_manifest, "1", "data.manifest is required")):
            assert cli.main(["ablate", "layout", "--config", str(path),
                             "--out", str(out), "--train-steps", steps]) == cli.EXIT_CONFIG
            assert capsys.readouterr().err == f"config error: {err}\n"
            assert not out.exists()

    def test_layout_grid_trains_every_cell(self, tmp_path, capsys):
        config, _ = _make_dataset(tmp_path / "data")
        out = tmp_path / "ablate"
        assert cli.main(["ablate", "layout", "--config", str(config),
                         "--out", str(out), "--train-steps", "1"]) == cli.EXIT_OK
        rows = (out / "layout.txt").read_text().strip().splitlines()
        assert capsys.readouterr().out.strip().splitlines() == rows
        assert len(rows) == 10
        cells = {}
        for row in rows[1:]:
            r, c, _, cell = row.split("\t")
            assert np.isfinite(float(cell)), row
            cells[f"r{r}c{c}"] = cell
        assert sorted(p.parent.name for p in out.glob("*/final.ckpt")) == sorted(cells)
        # the r3c2 cell's echoed config scores its checkpoint to the same value
        cfg = pipeline.load_config(str(out / "r3c2" / "config.txt"))
        assert (cfg.network.n_streams, cfg.network.n_columns) == (3, 2)
        report = pipeline.run_eval(cfg, str(out / "r3c2" / "final.ckpt"))
        assert cells["r3c2"] == f"{report.aggregate[0]:.6f}"

    def test_aggregation_needs_no_config(self, tmp_path, capsys, monkeypatch):
        def no_config(path):
            raise AssertionError("ablate aggregation read a config")
        monkeypatch.setattr(pipeline, "load_config", no_config)
        out = tmp_path / "ablate"
        assert cli.main(["ablate", "aggregation", "--out", str(out)]) == cli.EXIT_OK
        assert capsys.readouterr().out.encode() == (out / "aggregation.txt").read_bytes()

    def test_aggregation_train_steps_exits_2_before_writing(self, tmp_path, capsys):
        # the report is parameter counts only; a training request is refused
        # rather than answered with untrained counts
        out = tmp_path / "ablate"
        assert cli.main(["ablate", "aggregation", "--out", str(out),
                         "--train-steps", "3"]) == cli.EXIT_CONFIG
        assert capsys.readouterr() == (
            "", "config error: ablate aggregation takes no --config and no "
                "--train-steps above 0\n")
        assert not out.exists()
        assert cli.main(["ablate", "aggregation", "--out", str(out),
                         "--train-steps", "0"]) == cli.EXIT_OK

    def test_layout_without_config_exits_2(self, tmp_path, capsys):
        out = tmp_path / "ablate"
        assert cli.main(["ablate", "layout", "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: ablate layout requires --config\n"
        assert not out.exists()

    def test_unknown_ablation_exits_2(self, tmp_path):
        config, _ = _make_dataset(tmp_path / "data")
        # argparse's choices reject it: SystemExit with the usage error code
        with pytest.raises(SystemExit) as exc:
            cli.main(["ablate", "dropout", "--config", str(config),
                      "--out", str(tmp_path / "x")])
        assert exc.value.code == cli.EXIT_CONFIG


# (config lines that extend or override BASE_CONFIG, command and its
# arguments, exit code, stderr label); "{root}" is the dataset directory,
# "{ckpt}" an identity checkpoint of BASE_CONFIG's network and "{nan_ckpt}"
# one with a NaN weight.
BAD_INPUTS = {
    "lr_min_zero": (b"train.lr_min = 0\n", ["train", "--out", "{root}/run"],
                    cli.EXIT_CONFIG, "config error"),
    "batch_zero": (b"train.batch = 0\n", ["train", "--out", "{root}/run"],
                   cli.EXIT_CONFIG, "config error"),
    "checkpoint_every_negative": (
        b"train.checkpoint_every = -1\n", ["train", "--out", "{root}/run"],
        cli.EXIT_CONFIG, "config error"),
    "seed_negative": (b"train.seed = -1\n", ["train", "--out", "{root}/run"],
                      cli.EXIT_CONFIG, "config error"),
    # a seed is one unsigned 64-bit Philox key word
    "train_seed_2_64": (b"train.seed = 18446744073709551616\n",
                        ["train", "--out", "{root}/run"], cli.EXIT_CONFIG, "config error"),
    "data_seed_negative": (b"data.seed = -1\n", ["train", "--out", "{root}/run"],
                           cli.EXIT_CONFIG, "config error"),
    "data_seed_2_64": (b"data.seed = 18446744073709551616\n",
                       ["train", "--out", "{root}/run"], cli.EXIT_CONFIG, "config error"),
    "config_not_utf8": (b"# caf\xe9\n", ["train", "--out", "{root}/run"],
                        cli.EXIT_CONFIG, "config error"),
    "manifest_not_utf8": (b"data.manifest = latin1.txt\n",
                          ["train", "--out", "{root}/run"],
                          cli.EXIT_DATA, "data error"),
    "eval_missing_checkpoint": (b"", ["eval", "--checkpoint", "{root}/nope.ckpt"],
                                cli.EXIT_CONFIG, "checkpoint error"),
    "eval_shape_mismatch": (b"network.base_channels = 16\n",
                            ["eval", "--checkpoint", "{ckpt}"],
                            cli.EXIT_CONFIG, "checkpoint error"),
    # a 1-stream network's parameters are a subset of the 2-stream checkpoint's
    "eval_extra_entries": (b"network.n_streams = 1\n",
                           ["eval", "--checkpoint", "{ckpt}"],
                           cli.EXIT_CONFIG, "checkpoint error"),
    "noise_sigma_nan": (b"data.noise_sigma = nan\n", ["train", "--out", "{root}/run"],
                        cli.EXIT_CONFIG, "config error"),
    "gamma_nan": (b"data.task = enhance\ndata.gamma = nan\n",
                  ["train", "--out", "{root}/run"], cli.EXIT_CONFIG, "config error"),
    "lr_init_inf": (b"train.lr_init = inf\n", ["train", "--out", "{root}/run"],
                    cli.EXIT_CONFIG, "config error"),
    # 2^64 streams: the patch-divisibility rule must not build 2^(2^64 - 1)
    "n_streams_huge": (b"network.n_streams = 18446744073709551616\n",
                       ["train", "--out", "{root}/run"], cli.EXIT_CONFIG, "config error"),
    # patch 6 suits 2 streams, not the grid's 3-stream cells
    "ablate_layout_cell_patch": (
        b"train.patch_size = 6\n",
        ["ablate", "layout", "--out", "{root}/ablate", "--train-steps", "1"],
        cli.EXIT_CONFIG, "config error"),
    "ablate_layout_no_manifest": (
        b"data.manifest =\n",
        ["ablate", "layout", "--out", "{root}/ablate", "--train-steps", "1"],
        cli.EXIT_CONFIG, "config error"),
    "eval_nan_checkpoint": (b"", ["eval", "--checkpoint", "{nan_ckpt}"],
                            cli.EXIT_NUMERIC, "numerical failure"),
    "infer_nan_checkpoint": (
        b"", ["infer", "--checkpoint", "{nan_ckpt}",
              "{root}/img_0.ppm", "{root}/out.ppm"],
        cli.EXIT_NUMERIC, "numerical failure"),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_exit_code(tmp_path, capsys, case):
    extra, args, code, label = BAD_INPUTS[case]
    root = tmp_path / "data"
    config, _ = _make_dataset(root)
    ckpt = _identity_checkpoint(tmp_path, config)
    nan_ckpt = _nan_checkpoint(tmp_path, ckpt)
    config.write_bytes(_config_with(extra))
    (root / "latin1.txt").write_bytes(b"img_\xe9.ppm\n")
    args = [a.format(root=root, ckpt=ckpt, nan_ckpt=nan_ckpt) for a in args]
    assert cli.main([args[0], "--config", str(config), *args[1:]]) == code
    err = capsys.readouterr().err
    assert err.startswith(label + ": ") and err.endswith("\n") and err.count("\n") == 1
    assert "repeated key" not in err


def test_out_of_memory_exits_3_before_writing(tmp_path, capsys):
    # 10^8 channels ask numpy for weights no host holds (a 3x3 conv of that
    # width is 3.6e17 bytes); the allocation fails without touching memory
    root = tmp_path / "data"
    config, _ = _make_dataset(root)
    ckpt = _identity_checkpoint(tmp_path, config)
    config.write_bytes(_config_with(b"network.base_channels = 100000000\n"))
    run, ablate = tmp_path / "run", tmp_path / "ablate"
    for args in (["train", "--out", str(run)],
                 ["eval", "--checkpoint", str(ckpt)],
                 ["ablate", "layout", "--out", str(ablate)]):
        assert cli.main([args[0], "--config", str(config), *args[1:]]) == cli.EXIT_DATA
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("out of memory: ") and err.count("\n") == 1
    assert not run.exists() and not ablate.exists()


def test_numerical_failure_is_one_stderr_line_in_a_subprocess(tmp_path):
    # pytest turns warnings into errors; only a separate process shows what a
    # user sees on stderr
    root = tmp_path / "data"
    config, _ = _make_dataset(root)
    nan_ckpt = _nan_checkpoint(tmp_path, _identity_checkpoint(tmp_path, config))
    diverging = root / "diverging.txt"
    diverging.write_text(BASE_CONFIG + "train.lr_init = 1e30\n")
    restored = tmp_path / "restored.ppm"
    env = dict(os.environ, PYTHONPATH=str(Path(mirnet_forge.__file__).parents[1]))
    nan_line = "numerical failure: restored image has non-finite values\n"
    for args, line in (
            (["train", "--config", str(diverging), "--out", str(tmp_path / "run")],
             r"numerical failure: .+ at step 1\n"),
            (["eval", "--config", str(config), "--checkpoint", str(nan_ckpt)],
             re.escape(nan_line)),
            (["infer", "--config", str(config), "--checkpoint", str(nan_ckpt),
              str(root / "img_0.ppm"), str(restored)], re.escape(nan_line))):
        proc = subprocess.run([sys.executable, "-m", "mirnet_forge.cli", *args],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == cli.EXIT_NUMERIC, (args[0], proc.stderr)
        assert re.fullmatch(line, proc.stderr), (args[0], proc.stderr)
        assert proc.stdout == ""
    assert not restored.exists()


class TestMainEntry:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_train_and_eval_wiring(self, tmp_path, capsys):
        config, manifest = _make_dataset(tmp_path / "data")
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config),
                         "--out", str(out)]) == cli.EXIT_OK
        assert cli.main(["eval", "--config", str(config),
                         "--checkpoint", str(out / "final.ckpt"),
                         "--manifest", str(manifest)]) == cli.EXIT_OK
        assert "aggregate\t" in capsys.readouterr().out
