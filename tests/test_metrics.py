"""PSNR and SSIM tests against closed forms and brute-force loop oracles."""

import math

import numpy as np
import pytest

from mirnet_forge.data import ImageBuffer, add_gaussian_noise
from mirnet_forge.metrics import (
    PSNR_INF, bt601_luma, psnr, ssim)
from mirnet_forge.tensor import ContractError

from oracles import psnr_loops, ssim_plane_loops

RNG = np.random.default_rng


def _random_image(seed, h=16, w=16, low=0, high=256):
    return ImageBuffer(
        RNG(seed).integers(low, high, (h, w, 3), dtype=np.uint8))


class TestPSNR:
    def test_constant_offset_16(self):
        # Every value off by 16 gray levels: MSE is exactly 256, so
        # PSNR = 10*log10(255^2/256) = 24.0486... dB.
        base = RNG(0).integers(0, 240, (12, 12, 3), dtype=np.uint8)
        a = ImageBuffer(base)
        b = ImageBuffer(base + 16)
        val = psnr(a, b)
        assert abs(val - 24.049) < 0.001
        assert np.isclose(val, 10.0 * math.log10(65025.0 / 256.0), rtol=1e-12)

    def test_identical_images_are_infinite(self):
        a = _random_image(1)
        assert psnr(a, ImageBuffer(a.pixels.copy())) == PSNR_INF
        assert math.isinf(psnr(a, a))

    @pytest.mark.parametrize("seed", range(20))
    def test_loop_oracle(self, seed):
        a = _random_image(seed, 10, 14)
        b = _random_image(seed + 100, 10, 14)
        assert abs(psnr(a, b) - psnr_loops(a.pixels, b.pixels)) < 1e-9

    def test_y_channel_mode(self):
        a = _random_image(2)
        b = _random_image(3)
        val = psnr(a, b, channel_mode="y_channel")
        ya, yb = bt601_luma(a.pixels), bt601_luma(b.pixels)
        mse = np.mean((ya - yb) ** 2)
        assert np.isclose(val, 10.0 * math.log10(255.0 ** 2 / mse), rtol=1e-12)

    def test_y_channel_equals_rgb_on_gray(self):
        g = RNG(4).integers(0, 256, (8, 8, 1), dtype=np.uint8)
        a = ImageBuffer(np.repeat(g, 3, axis=2))
        g2 = RNG(5).integers(0, 256, (8, 8, 1), dtype=np.uint8)
        b = ImageBuffer(np.repeat(g2, 3, axis=2))
        assert np.isclose(psnr(a, b),
                          psnr(a, b, channel_mode="y_channel"),
                          rtol=1e-9)

    def test_extent_mismatch_rejected(self):
        with pytest.raises(ContractError):
            psnr(_random_image(6, 8, 8), _random_image(7, 8, 10))

    def test_bad_config_rejected(self):
        for metric in (psnr, ssim):
            with pytest.raises(ContractError, match="unknown channel_mode 'lab'"):
                metric(_random_image(8), _random_image(9), channel_mode="lab")


class TestSSIM:
    def test_self_similarity_is_exactly_one(self):
        a = _random_image(10, 13, 17)
        assert ssim(a, ImageBuffer(a.pixels.copy())) == 1.0

    def test_constant_pair_closed_form(self):
        # Zero-variance windows: only the luminance term survives,
        # (2*100*50 + C1)/(100^2 + 50^2 + C1) with C1 = (0.01*255)^2.
        a = ImageBuffer(np.full((16, 16, 3), 100, dtype=np.uint8))
        b = ImageBuffer(np.full((16, 16, 3), 50, dtype=np.uint8))
        c1 = (0.01 * 255.0) ** 2
        expected = (2.0 * 100 * 50 + c1) / (100.0 ** 2 + 50.0 ** 2 + c1)
        val = ssim(a, b)
        assert abs(val - 0.8002) < 1e-3
        assert np.isclose(val, expected, rtol=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_loop_oracle_rgb(self, seed):
        a = _random_image(seed + 40, 14, 15)
        b = _random_image(seed + 60, 14, 15)
        expected = np.mean([
            ssim_plane_loops(a.pixels[..., c].astype(np.float64),
                             b.pixels[..., c].astype(np.float64))
            for c in range(3)])
        assert abs(ssim(a, b) - expected) < 1e-6

    def test_loop_oracle_y_channel(self):
        a = _random_image(80, 14, 14)
        b = _random_image(81, 14, 14)
        expected = ssim_plane_loops(bt601_luma(a.pixels), bt601_luma(b.pixels))
        val = ssim(a, b, channel_mode="y_channel")
        assert abs(val - expected) < 1e-6

    def test_symmetry(self):
        a = _random_image(11)
        b = _random_image(12)
        assert np.isclose(ssim(a, b), ssim(b, a), rtol=1e-12)

    def test_noise_lowers_score(self):
        a = _random_image(13, 24, 24, low=60, high=196)
        noisy = add_gaussian_noise(a, 25.0, seed=0)
        s = ssim(a, noisy)
        assert s < 0.999
        assert -1.0 <= s <= 1.0

    def test_window_larger_than_image_rejected(self):
        with pytest.raises(ContractError):
            ssim(_random_image(14, 8, 8), _random_image(15, 8, 8))

    def test_extent_mismatch_rejected(self):
        with pytest.raises(ContractError):
            ssim(_random_image(16, 16, 16), _random_image(17, 16, 12))
