"""Key=value configuration and checkpoint container tests."""

import dataclasses
import os
import struct
import tracemalloc
import types

import numpy as np
import pytest

from mirnet_forge import checkpoint
from mirnet_forge.blocks import NetworkConfig
from mirnet_forge.checkpoint import (
    CheckpointError, load_checkpoint, save_checkpoint)
from mirnet_forge.config import (
    ConfigError, DataConfig, EvalConfig, RunConfig, TrainConfig, parse_config,
    render_config)
from mirnet_forge.data import DegradationSpec

RNG = np.random.default_rng

DEFAULT_TEXT = """\
network.n_rrg = 1
network.mrb_per_rrg = 1
network.n_streams = 2
network.n_columns = 1
network.base_channels = 8
train.total_steps = 2000
train.batch = 4
train.patch_size = 32
train.lr_init = 0.0002
train.lr_min = 1e-06
train.seed = 0
train.loss_mode = per_pixel_mean
train.checkpoint_every = 500
data.manifest = \n\
data.task = denoise
data.noise_sigma = 25.0
data.scale_factor = 2
data.exposure_gain = 0.5
data.gamma = 2.2
data.seed = 0
eval.channel_mode = rgb
"""


class TestConfigParsing:
    def test_defaults(self):
        cfg = parse_config("")
        assert cfg == RunConfig()
        assert cfg.network.base_channels == 8
        assert cfg.train.lr_init == 2e-4
        assert cfg.data.spec.task == "denoise"

    def test_assignment_and_comments(self):
        cfg = parse_config(
            "# run settings\n"
            "train.total_steps = 50   # short run\n"
            "\n"
            "network.base_channels = 16\n"
            "data.task = enhance\n")
        assert cfg.train.total_steps == 50
        assert cfg.network.base_channels == 16
        assert cfg.data.spec.task == "enhance"

    def test_render_round_trip(self):
        cfg = parse_config(
            "train.lr_init = 0.0003\n"
            "train.seed = 7\n"
            "network.n_streams = 3\n"
            "train.patch_size = 16\n"
            "eval.channel_mode = y_channel\n")
        again = parse_config(render_config(cfg))
        assert again == cfg
        assert render_config(again) == render_config(cfg)

    @pytest.mark.parametrize("manifest", ["a#b/m.txt", "a\nb", "a\rb", "a\u2028b"],
                             ids=["hash", "newline", "return", "line_separator"])
    def test_render_rejects_what_parse_would_misread(self, manifest):
        # parse_config reads '#' as a comment and splits lines on any break
        cfg = dataclasses.replace(RunConfig(), data=DataConfig(manifest=manifest))
        with pytest.raises(ConfigError) as info:
            render_config(cfg)
        assert str(info.value) == (f"data.manifest value {manifest!r} cannot be "
                                   "echoed: it holds '#' or a line break")

    def test_default_text_is_pinned(self):
        # key names and order, repr floats and the empty manifest's trailing space
        assert render_config(RunConfig()) == DEFAULT_TEXT
        assert len(DEFAULT_TEXT.splitlines()) == 21

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2.*network.depth"):
            parse_config("train.seed = 1\nnetwork.depth = 9\n")

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ConfigError) as info:
            parse_config("train.batch = 4\ntrain.batch = 2\n")
        assert str(info.value) == "line 2: repeated key 'train.batch' (first on line 1)"
        # comments and blank lines count as lines; the same value is no excuse
        with pytest.raises(ConfigError, match=r"^line 4: .* \(first on line 2\)$"):
            parse_config("# run\ndata.noise_sigma = 25\n\ndata.noise_sigma = 25 # again\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("train.total_steps = soon\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("train.total_steps 5\n")

    def test_patch_divisibility_validated(self):
        with pytest.raises(ConfigError, match="divisible"):
            parse_config("network.n_streams = 3\ntrain.patch_size = 18\n")

    def test_semantic_validation(self):
        for text in ("train.loss_mode = l2\n",
                     "eval.channel_mode = lab\n",
                     "data.task = sharpen\n",
                     "network.n_streams = 0\n",
                     "train.total_steps = 0\n",
                     # gamma is unused by denoising but must still be finite
                     "data.task = denoise\ndata.gamma = nan\n",
                     "data.exposure_gain = -inf\n",
                     "train.lr_min = 1e309\n"):
            with pytest.raises(ConfigError):
                parse_config(text)

    @pytest.mark.parametrize("text,message", [
        ("train.lr_init = nan\n", "train.lr_init and train.lr_min must be finite"),
        ("train.lr_min = 0\n", "require train.lr_init > train.lr_min > 0"),
        ("train.total_steps = 0\n", "train.total_steps must be >= 1"),
        ("train.patch_size = 0\n", "train.patch_size and train.batch must be >= 1"),
        ("train.batch = 0\n", "train.patch_size and train.batch must be >= 1"),
        ("train.seed = 18446744073709551616\n",
         "train.seed must lie in [0, 2^64), got 18446744073709551616"),
    ], ids=["lr_init_nan", "lr_min_zero", "total_steps_zero", "patch_size_zero",
            "batch_zero", "seed_2_64"])
    def test_train_rule_messages_name_their_keys(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == message


@pytest.mark.parametrize("settings", [
    NetworkConfig(), DegradationSpec(), TrainConfig(), DataConfig(),
    EvalConfig(), RunConfig()],
    ids=lambda settings: type(settings).__name__)
def test_settings_are_frozen(settings):
    name = dataclasses.fields(settings)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(settings, name, getattr(settings, name))


class TestCheckpoint:
    def _arrays(self):
        rng = RNG(0)
        return {
            "head.weight": rng.normal(size=(4, 3, 3, 3)).astype(np.float32),
            "head.bias": rng.normal(size=4).astype(np.float32),
            "optim.step": np.float32(17.0),
        }

    def test_round_trip(self, tmp_path):
        arrays = self._arrays()
        p = tmp_path / "a.ckpt"
        save_checkpoint(p, arrays)
        back = load_checkpoint(p)
        assert list(back) == list(arrays)
        for name in arrays:
            stored = np.asarray(arrays[name], dtype=np.float32)
            assert back[name].shape == stored.shape
            assert np.array_equal(back[name], stored)
            assert back[name].dtype == np.float32
            flags = back[name].flags
            assert flags.writeable and flags.aligned and flags.c_contiguous, name

    def test_save_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, self._arrays())
        save_checkpoint(b, self._arrays())
        assert a.read_bytes() == b.read_bytes()

    def test_failed_write_leaves_previous_file(self, tmp_path):
        p = tmp_path / "a.ckpt"
        save_checkpoint(p, self._arrays())
        before = p.read_bytes()
        # the second entry cannot be converted to <f4: the write stops after
        # the first entry's bytes
        bad = {"head.weight": np.zeros((2, 2), np.float32),
               "label": np.array(["not a number"])}
        with pytest.raises(ValueError):
            save_checkpoint(p, bad)
        assert p.read_bytes() == before
        assert sorted(f.name for f in tmp_path.iterdir()) == ["a.ckpt"]

    def test_known_byte_layout(self, tmp_path):
        p = tmp_path / "w.ckpt"
        save_checkpoint(p, {"w": np.array([1.5, -2.0], dtype=np.float32)})
        expected = (b"MIRT" + struct.pack("<I", 1)
                    + struct.pack("<H", 1) + b"w"
                    + struct.pack("<B", 1) + struct.pack("<I", 2)
                    + np.array([1.5, -2.0], dtype="<f4").tobytes())
        assert p.read_bytes() == expected

    def test_any_layout_and_dtype_saves_the_same_bytes(self, tmp_path):
        # values are written from the array itself: a transposed, float64 or
        # big-endian array must write what its contiguous float32 copy writes
        w = RNG(1).normal(size=(3, 5)).astype(np.float32)
        paths = []
        for i, arr in enumerate([np.ascontiguousarray(w.T), w.T, w.T.astype(np.float64),
                                 w.T.astype(">f4")]):
            paths.append(tmp_path / f"{i}.ckpt")
            save_checkpoint(paths[-1], {"w": arr})
        assert len({p.read_bytes() for p in paths}) == 1
        assert np.array_equal(load_checkpoint(paths[1])["w"], w.T)

    def test_scalar_entry_is_rank_zero(self, tmp_path):
        p = tmp_path / "s.ckpt"
        save_checkpoint(p, {"optim.step": np.float32(3.0)})
        raw = p.read_bytes()
        # after magic+version+name: rank byte is 0, then exactly 4 data bytes
        assert raw[8 + 2 + len(b"optim.step")] == 0
        assert len(raw) == 8 + 2 + len(b"optim.step") + 1 + 4
        back = load_checkpoint(p)
        assert back["optim.step"].shape == ()
        assert float(back["optim.step"]) == 3.0

    def test_load_holds_the_file_once(self, tmp_path):
        # each entry's values are read into its own slice of one buffer, and
        # nothing else holds the file's bytes
        p = tmp_path / "big.ckpt"
        save_checkpoint(p, {f"w{i}": RNG(i).normal(size=(64, 64, 3, 3)).astype(np.float32)
                            for i in range(16)})
        size = p.stat().st_size
        tracemalloc.start()
        try:
            arrays = load_checkpoint(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(arrays) == 16
        assert peak <= 1.25 * size, (peak, size)

    def test_entries_are_views_of_one_buffer(self, tmp_path):
        p = tmp_path / "a.ckpt"
        save_checkpoint(p, self._arrays())
        back = load_checkpoint(p)

        def root(a):
            while a.base is not None:
                a = a.base
            return a
        assert len({id(root(a)) for a in back.values()}) == 1
        names = list(back)
        for i, name in enumerate(names):
            for other in names[i + 1:]:
                assert not np.shares_memory(back[name], back[other]), (name, other)

    def test_writing_one_entry_changes_no_other(self, tmp_path):
        p = tmp_path / "a.ckpt"
        save_checkpoint(p, self._arrays())
        back = load_checkpoint(p)
        back["head.bias"][...] = np.nan
        for name, stored in self._arrays().items():
            if name != "head.bias":
                assert np.array_equal(back[name], stored), name

    @pytest.mark.parametrize("header,match", [
        (b"XXXX" + struct.pack("<I", 1), "magic"),
        (b"MIRT" + struct.pack("<I", 99), "version")], ids=["magic", "version"])
    def test_bad_header_rejected_before_allocating(self, tmp_path, header, match):
        # a 64 MB file (sparse: only its header is written) whose header is
        # wrong is rejected before a buffer for its values exists
        p = tmp_path / "bad.ckpt"
        with open(p, "wb") as fh:
            fh.write(header)
            fh.truncate(64 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match=match):
                load_checkpoint(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"XXXX" + bytes(8))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(p)

    def test_bad_version_rejected(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"MIRT" + struct.pack("<I", 99))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(p)

    def test_every_truncation_raises_checkpoint_error(self, tmp_path):
        full = tmp_path / "full.ckpt"
        save_checkpoint(full, self._arrays())
        raw = full.read_bytes()
        # a cut exactly between entries leaves a shorter valid checkpoint
        names = list(self._arrays())
        boundaries = {8: 0, 8 + 2 + 11 + 1 + 16 + 4 * 108: 1,
                      len(raw) - (2 + 10 + 1 + 4): 2}
        p = tmp_path / "cut.ckpt"
        for cut in range(len(raw)):
            p.write_bytes(raw[:cut])
            if cut in boundaries:
                assert list(load_checkpoint(p)) == names[:boundaries[cut]]
                continue
            with pytest.raises(CheckpointError):
                load_checkpoint(p)

    @pytest.mark.parametrize("cut,offset",
                             [(6, 4), (9, 8), (12, 10), (20, 10), (-3, 515)])
    def test_truncation_names_byte_offset(self, tmp_path, cut, offset):
        full = tmp_path / "full.ckpt"
        save_checkpoint(full, self._arrays())
        p = tmp_path / "cut.ckpt"
        p.write_bytes(full.read_bytes()[:cut])
        with pytest.raises(CheckpointError, match=f"truncated .* at byte {offset}:"):
            load_checkpoint(p)

    def test_short_read_rejected(self, tmp_path, monkeypatch):
        # the file shrinks after its size was taken, as when it is overwritten
        # in place: the loader must not return a partly filled array
        full = tmp_path / "full.ckpt"
        save_checkpoint(full, self._arrays())
        raw = full.read_bytes()
        fstat = os.fstat
        monkeypatch.setattr(checkpoint.os, "fstat", lambda fd: types.SimpleNamespace(
            st_size=max(fstat(fd).st_size, len(raw))))
        p = tmp_path / "cut.ckpt"
        # header 8, name length 2, "head.weight" 11, rank 1, extents 16
        p.write_bytes(raw[:38 + 4 * 50])
        with pytest.raises(CheckpointError,
                           match="short read of values of 'head.weight' at byte 38: "
                                 "got 200 of 432 bytes"):
            load_checkpoint(p)
        for cut in range(4, len(raw)):
            p.write_bytes(raw[:cut])
            with pytest.raises(CheckpointError, match="short read"):
                load_checkpoint(p)

    def test_huge_extents_rejected_before_reading(self, tmp_path):
        p = tmp_path / "huge.ckpt"
        p.write_bytes(b"MIRT" + struct.pack("<I", 1) + struct.pack("<H", 1) + b"w"
                      + struct.pack("<B", 3) + struct.pack("<3I", *[2 ** 32 - 1] * 3))
        with pytest.raises(CheckpointError, match="values of 'w'"):
            load_checkpoint(p)

    def test_repeated_entry_rejected(self, tmp_path):
        entry = (struct.pack("<H", 1) + b"w" + struct.pack("<B", 1)
                 + struct.pack("<I", 1) + np.float32(1.0).tobytes())
        p = tmp_path / "twice.ckpt"
        p.write_bytes(b"MIRT" + struct.pack("<I", 1) + entry + entry)
        # the second name starts after the header (8) and the first entry (12)
        with pytest.raises(CheckpointError, match="repeated entry 'w' at byte 22"):
            load_checkpoint(p)

    def test_non_utf8_name_rejected(self, tmp_path):
        p = tmp_path / "name.ckpt"
        p.write_bytes(b"MIRT" + struct.pack("<I", 1) + struct.pack("<H", 1) + b"\xff"
                      + struct.pack("<B", 0) + bytes(4))
        with pytest.raises(CheckpointError, match="byte 10"):
            load_checkpoint(p)
