"""Image I/O, degradation, and patch-sampling tests."""

import numpy as np
import pytest

from mirnet_forge.config import TrainConfig
from mirnet_forge.data import (
    DegradationSpec, ImageBuffer, ParseError, _rng, add_gaussian_noise,
    apply_flips, bicubic_resize, degrade, load_ppm, round_half_up, sample_batch,
    save_ppm, split_seed, to_array, to_image)
from mirnet_forge.tensor import ContractError

RNG = np.random.default_rng


def _random_image(seed, h=8, w=6):
    return ImageBuffer(RNG(seed).integers(0, 256, (h, w, 3), dtype=np.uint8))


def _int_error(digits):
    try:
        int(digits)
    except ValueError as exc:
        return str(exc)


# name -> (file bytes, the exact ParseError message); a comment runs to the
# next \n, any bytes.isspace() byte separates fields, and exactly one
# whitespace byte follows maxval
HEADER_ERRORS = {
    "empty": (b"", "unexpected end of header at byte 0"),
    "magic_only": (b"P6", "unexpected end of header at byte 2"),
    "comment_at_eof": (b"P6 2 # no newline", "unexpected end of header at byte 17"),
    "comment_glued_to_field": (b"P6\n2 1\n255#c\n" + bytes(6),
                               "bad maxval field at byte 7"),
    "cr_vt_ff_separators": (b"P6\r2\x0b1\x0cx\n", "bad maxval field at byte 7"),
    "ff_after_maxval": (b"P6\r\x0b\x0c2 1 255\x0c",
                        "truncated pixel payload at byte 13: need 6 bytes, found 0"),
    "maxval_at_eof": (b"P6 2 1 255", "unexpected end of header at byte 10"),
    "comment_before_magic": (b"#c\nP6 2 1 255 #c\n",
                             "truncated pixel payload at byte 17: need 6 bytes, found 3"),
    "5000_digit_width": (b"P6\n" + b"9" * 5000 + b" 1\n255\n",
                         "bad width field at byte 3: " + _int_error(b"9" * 5000)),
    "zero_width": (b"P6\n0 4\n255\n", "non-positive image extent at byte 3"),
}


class TestPPM:
    def test_round_trip_bit_exact(self, tmp_path):
        img = _random_image(0, 11, 7)
        p = tmp_path / "img.ppm"
        save_ppm(img, p)
        back = load_ppm(p)
        assert np.array_equal(back.pixels, img.pixels)

    def test_header_layout(self, tmp_path):
        img = _random_image(1, 2, 3)
        p = tmp_path / "img.ppm"
        save_ppm(img, p)
        raw = p.read_bytes()
        assert raw.startswith(b"P6\n3 2\n255\n")
        assert raw[len(b"P6\n3 2\n255\n"):] == img.pixels.tobytes()

    def test_known_bytes(self, tmp_path):
        # 1x2 image: red pixel then blue pixel, interleaved row-major RGB
        p = tmp_path / "tiny.ppm"
        p.write_bytes(b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 0, 255]))
        img = load_ppm(p)
        assert img.width == 2 and img.height == 1
        assert tuple(img.pixels[0, 0]) == (255, 0, 0)
        assert tuple(img.pixels[0, 1]) == (0, 0, 255)

    def test_comments_and_whitespace(self, tmp_path):
        payload = bytes(range(2 * 1 * 3))
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6 # magic\n# a comment line\n 2\t1 # extents\n255\n"
                      + payload)
        img = load_ppm(p)
        assert img.pixels.tobytes() == payload

    def test_rejects_wrong_magic(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P5\n2 1\n255\n" + bytes(2))
        with pytest.raises(ParseError, match="byte"):
            load_ppm(p)

    def test_rejects_wide_maxval(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P6\n2 1\n65535\n" + bytes(12))
        with pytest.raises(ParseError, match="maxval"):
            load_ppm(p)

    def test_rejects_truncated_payload(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
        with pytest.raises(ParseError, match="truncated"):
            load_ppm(p)

    def test_rejects_non_numeric_field(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P6\nx 1\n255\n")
        with pytest.raises(ParseError, match="width"):
            load_ppm(p)

    @pytest.mark.parametrize("raw, message", HEADER_ERRORS.values(),
                             ids=HEADER_ERRORS.keys())
    def test_header_error_messages(self, tmp_path, raw, message):
        p = tmp_path / "bad.ppm"
        p.write_bytes(raw)
        with pytest.raises(ParseError) as info:
            load_ppm(p)
        assert str(info.value) == message

    def test_buffer_shape_contract(self):
        with pytest.raises(ContractError):
            ImageBuffer(np.zeros((4, 4), dtype=np.uint8))

    @pytest.mark.parametrize("value", [300, -1, 1.5, np.nan, np.inf],
                             ids=["300", "-1", "1.5", "nan", "inf"])
    def test_buffer_rejects_values_uint8_cannot_hold(self, value):
        dtype = np.float64 if isinstance(value, float) else np.int64
        px = np.full((2, 3, 3), 7, dtype=dtype)
        px[1, 2, 0] = value
        with pytest.raises(ContractError) as info:
            ImageBuffer(px)
        assert str(info.value) == f"pixels must be uint8, got {np.dtype(dtype)}"

    @pytest.mark.parametrize("dtype", [np.int64, np.float64, np.float32, np.uint16])
    def test_buffer_rejects_pixels_that_are_not_uint8(self, dtype):
        # even integral values in 0-255 are refused rather than converted
        img = _random_image(3)
        with pytest.raises(ContractError) as info:
            ImageBuffer(img.pixels.astype(dtype))
        assert str(info.value) == f"pixels must be uint8, got {np.dtype(dtype)}"


class TestConversion:
    def test_round_trip_identity_on_8bit(self):
        img = _random_image(2)
        back = to_image(to_array(img))
        assert np.array_equal(back.pixels, img.pixels)

    def test_array_layout_and_range(self):
        img = _random_image(3)
        a = to_array(img)
        assert a.shape == (3, 8, 6) and a.dtype == np.float32
        assert a.min() >= 0.0 and a.max() <= 1.0
        assert a[1, 2, 4] == np.float32(img.pixels[2, 4, 1] / 255.0)

    def test_round_half_up(self):
        x = np.array([-0.5, 0.49, 0.5, 1.5, 2.4])
        assert np.array_equal(round_half_up(x), [0, 0, 1, 2, 2])

    def test_quantize_ties_and_clipping(self):
        a = np.zeros((3, 1, 1))
        a[0] = 127.5 / 255.0
        a[1] = 2.0
        a[2] = -1.0
        px = to_image(a).pixels
        assert (px[0, 0, 0], px[0, 0, 1], px[0, 0, 2]) == (128, 255, 0)

    def test_bad_shape_rejected(self):
        with pytest.raises(ContractError):
            to_image(np.zeros((1, 4, 4)))


class TestSeeds:
    def test_split_seed_deterministic(self):
        assert split_seed(42, 7) == split_seed(42, 7)

    def test_split_seed_varies_with_index(self):
        vals = {split_seed(42, i) for i in range(16)}
        assert len(vals) == 16
        assert all(0 <= v < 2**63 for v in vals)

    def test_seeds_at_and_above_2_63_draw_their_own_streams(self):
        # a list key turns these seeds into float64, which maps each pair to
        # one stream
        def draw(seed):
            return _rng(seed).integers(0, 1000, 8).tolist()

        assert draw(2**63) != draw(2**63 + 1)
        assert draw(2**64 - 1) != draw(0)

    @pytest.mark.parametrize("seed, stream", [(0, 0), (1, 5), (2**63 - 1, 2), (42, 2**40)])
    def test_seeds_below_2_63_keep_their_streams(self, seed, stream):
        # the key the seeds below 2^63 always had: a list of two Python ints
        listed = np.random.Generator(np.random.Philox(key=[seed, stream]))
        assert _rng(seed, stream).integers(0, 2**63, 4).tolist() == \
            listed.integers(0, 2**63, 4).tolist()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_spec_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ContractError) as info:
            DegradationSpec(seed=seed)
        assert str(info.value) == f"data.seed must lie in [0, 2^64), got {seed}"


class TestNoise:
    def test_zero_sigma_copies(self):
        img = _random_image(4)
        out = add_gaussian_noise(img, 0.0, seed=0)
        assert np.array_equal(out.pixels, img.pixels)
        assert out.pixels is not img.pixels

    def test_deterministic_per_seed(self):
        img = _random_image(5, 16, 16)
        a = add_gaussian_noise(img, 25.0, seed=9)
        b = add_gaussian_noise(img, 25.0, seed=9)
        c = add_gaussian_noise(img, 25.0, seed=10)
        assert np.array_equal(a.pixels, b.pixels)
        assert not np.array_equal(a.pixels, c.pixels)

    def test_statistics(self):
        img = ImageBuffer(np.full((64, 64, 3), 128, dtype=np.uint8))
        out = add_gaussian_noise(img, 25.0, seed=1)
        delta = out.pixels.astype(np.float64) - 128.0
        assert abs(delta.mean()) < 1.0
        assert abs(delta.std() - 25.0) < 1.5

    def test_negative_sigma_rejected(self):
        with pytest.raises(ContractError):
            add_gaussian_noise(_random_image(6), -1.0, seed=0)


class TestBicubic:
    def test_same_size_is_identity(self):
        img = _random_image(7, 9, 5)
        out = bicubic_resize(img, 5, 9)
        assert np.array_equal(out.pixels, img.pixels)

    def test_constant_preserved(self):
        img = ImageBuffer(np.full((12, 10, 3), 77, dtype=np.uint8))
        for w, h in [(5, 6), (20, 24), (10, 12)]:
            assert np.all(bicubic_resize(img, w, h).pixels == 77)

    def test_linear_ramp_reproduced_on_interior(self):
        # Keys a = -0.5 reproduces degree-1 polynomials exactly away from the
        # clamped border.
        w = 32
        ramp = np.tile((np.arange(w) * 6 + 10).astype(np.uint8)[None, :, None],
                       (8, 1, 3))
        out = bicubic_resize(ImageBuffer(ramp), w // 2, 8)
        src = (np.arange(w // 2) + 0.5) * 2 - 0.5
        expected = np.floor(src * 6 + 10 + 0.5)
        assert np.array_equal(out.pixels[2, 2:-2, 0], expected[2:-2])

    def test_bad_extents_rejected(self):
        with pytest.raises(ContractError):
            bicubic_resize(_random_image(8), 0, 4)


class TestDegrade:
    def test_denoise_pair(self):
        img = _random_image(9, 16, 16)
        inp, tgt = degrade(img, DegradationSpec(task="denoise", seed=3))
        assert np.array_equal(tgt.pixels, img.pixels)
        assert inp.pixels.shape == img.pixels.shape
        assert not np.array_equal(inp.pixels, img.pixels)

    def test_super_resolve_pair(self):
        img = _random_image(10, 16, 12)
        inp, tgt = degrade(img, DegradationSpec(task="super_resolve"))
        assert inp.pixels.shape == img.pixels.shape
        assert np.array_equal(tgt.pixels, img.pixels)
        assert not np.array_equal(inp.pixels, img.pixels)
        # no stochastic step: bit-identical on repetition
        inp2, _ = degrade(img, DegradationSpec(task="super_resolve"))
        assert np.array_equal(inp.pixels, inp2.pixels)

    def test_super_resolve_divisibility(self):
        img = _random_image(11, 15, 16)
        with pytest.raises(ContractError):
            degrade(img, DegradationSpec(task="super_resolve", scale_factor=2))

    def test_enhance_formula(self):
        img = _random_image(12)
        spec = DegradationSpec(task="enhance", exposure_gain=0.5, gamma=2.2)
        inp, tgt = degrade(img, spec)
        p = img.pixels.astype(np.float64) / 255.0
        expected = np.clip(np.floor(255.0 * 0.5 * p ** 2.2 + 0.5), 0, 255)
        assert np.array_equal(inp.pixels, expected.astype(np.uint8))
        assert np.all(inp.pixels <= img.pixels)
        assert np.array_equal(tgt.pixels, img.pixels)

    def test_invalid_specs_rejected(self):
        for kwargs, message in (
                (dict(task="sharpen"), "unknown data.task 'sharpen'"),
                (dict(noise_sigma=-1.0), "data.noise_sigma must be >= 0"),
                (dict(task="super_resolve", scale_factor=5),
                 "data.scale_factor must be 2, 3 or 4"),
                (dict(task="enhance", exposure_gain=0.0),
                 "data.exposure_gain must lie in (0, 1]"),
                (dict(task="enhance", gamma=0.5), "data.gamma must be >= 1")):
            with pytest.raises(ContractError) as info:
                DegradationSpec(**kwargs)
            assert str(info.value) == message

    @pytest.mark.parametrize("task", ["denoise", "super_resolve", "enhance"])
    @pytest.mark.parametrize("field", ["noise_sigma", "exposure_gain", "gamma"])
    def test_nan_rejected_for_every_task(self, task, field):
        # every comparison with NaN is false: range checks alone pass it
        with pytest.raises(ContractError, match=f"{field} must be finite"):
            DegradationSpec(task=task, **{field: float("nan")})


class TestSampling:
    def _pairs(self, n=3, h=16, w=16):
        out = []
        for i in range(n):
            img = _random_image(20 + i, h, w)
            out.append((img, ImageBuffer(img.pixels.copy())))
        return out

    def test_batch_shape_and_range(self):
        x, y = sample_batch(self._pairs(), TrainConfig(patch_size=8, batch=4, seed=0))
        assert x.shape == (4, 3, 8, 8) and y.shape == (4, 3, 8, 8)
        assert x.dtype == np.float32 and y.dtype == np.float32
        assert x.min() >= 0.0 and x.max() <= 1.0

    @pytest.mark.parametrize("pairs, message", [
        ([(ImageBuffer(np.zeros((16, 7, 3), np.uint8)),) * 2],
         "image 0 (7x16) smaller than patch 8"),
        ([(ImageBuffer(np.zeros((16, 16, 3), np.uint8)),
           ImageBuffer(np.zeros((16, 12, 3), np.uint8)))],
         "pair 0 has mismatched extents"),
    ], ids=["small_image", "mismatched_pair"])
    def test_bad_pairs_rejected(self, pairs, message):
        # library callers reach sample_batch without run_training's early check
        with pytest.raises(ContractError) as info:
            sample_batch(pairs, TrainConfig(patch_size=8, batch=1))
        assert str(info.value) == message

    def test_input_target_alignment(self):
        # identical pair images must give identical patches, flips included
        x, y = sample_batch(self._pairs(), TrainConfig(patch_size=8, batch=8, seed=5))
        assert np.array_equal(x, y)

    def test_deterministic_per_batch_index(self):
        pairs = self._pairs()
        train = TrainConfig(patch_size=8, batch=4, seed=1)
        x1, _ = sample_batch(pairs, train, batch_index=3)
        x2, _ = sample_batch(pairs, train, batch_index=3)
        x3, _ = sample_batch(pairs, train, batch_index=4)
        assert np.array_equal(x1, x2)
        assert not np.array_equal(x1, x3)

    def test_patches_come_from_source_images(self):
        pairs = []
        for i in range(4):
            img = ImageBuffer(np.full((16, 16, 3), i * 50, dtype=np.uint8))
            pairs.append((img, img))
        x, _ = sample_batch(pairs, TrainConfig(patch_size=8, batch=16, seed=2))
        for patch in x:
            vals = np.unique(patch)
            assert vals.size == 1
            allowed = {np.float32(i * 50 / 255.0) for i in range(4)}
            assert vals[0] in allowed

    def test_crop_positions_cover_extremes(self):
        # 32x32 image, 8x8 patches, random flips: each border has its own
        # value and is only reachable from offset 0 or the maximum offset; a
        # flip moves it to the other end of the patch.
        px = np.zeros((32, 32, 3), dtype=np.uint8)
        px[0, :, 0], px[-1, :, 0] = 60, 120     # rows in channel 0
        px[:, 0, 1], px[:, -1, 1] = 60, 120     # columns in channel 1
        img = ImageBuffer(px)
        borders = {"top": (0, 60), "bottom": (0, 120),
                   "left": (1, 60), "right": (1, 120)}
        train = TrainConfig(patch_size=8, batch=256, seed=6)
        seen = set()
        for bi in range(8):
            x, _ = sample_batch([(img, img)], train, bi)
            for patch in np.rint(x * 255):
                for name, (channel, value) in borders.items():
                    # columns of channel 1 become rows
                    plane = patch[0] if channel == 0 else patch[1].T
                    if np.all(plane[0] == value) or np.all(plane[-1] == value):
                        seen.add(name)
        assert seen == {"top", "bottom", "left", "right"}

    def test_small_image_rejected(self):
        img = _random_image(30, 4, 4)
        with pytest.raises(ContractError):
            sample_batch([(img, img)], TrainConfig(patch_size=8, batch=1))

    def test_mismatched_pair_rejected(self):
        a = _random_image(31, 16, 16)
        b = _random_image(32, 16, 12)
        with pytest.raises(ContractError):
            sample_batch([(a, b)], TrainConfig(patch_size=8, batch=1))

    def test_apply_flips(self):
        patch = RNG(33).integers(0, 256, (4, 5, 3), dtype=np.uint8)
        assert np.array_equal(apply_flips(patch, True, False),
                              patch[:, ::-1])
        assert np.array_equal(
            apply_flips(apply_flips(patch, True, True), True, True), patch)
