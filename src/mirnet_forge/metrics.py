"""PSNR and SSIM image-quality metrics.

PSNR on RGB averages the MSE across channels before the log; Y-channel mode
converts with full-range BT.601 (Y = 0.299 R + 0.587 G + 0.114 B) first, the
convention used for super-resolution scoring.  SSIM is the original
Gaussian-window formulation over valid (non-padded) window positions, with no
downsampling prestep.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import ImageBuffer
from .tensor import ContractError

#: Distinguished sentinel for the PSNR of identical images.
PSNR_INF = math.inf

CHANNEL_MODES = ("rgb", "y_channel")
#: 8-bit pixel values span [0, 255].
DATA_RANGE = 255.0
#: SSIM's Gaussian window: extent and standard deviation.
WINDOW, SIGMA = 11, 1.5
#: SSIM's stabilising constants are (K1 L)^2 and (K2 L)^2, L the data range.
K1, K2 = 0.01, 0.03
C1, C2 = (K1 * DATA_RANGE) ** 2, (K2 * DATA_RANGE) ** 2


def check_channel_mode(mode: str):
    if mode not in CHANNEL_MODES:
        raise ContractError(f"unknown channel_mode {mode!r}")


def bt601_luma(pixels: np.ndarray) -> np.ndarray:
    p = pixels.astype(np.float64)
    return 0.299 * p[..., 0] + 0.587 * p[..., 1] + 0.114 * p[..., 2]


def _planes(a: ImageBuffer, b: ImageBuffer, mode: str) -> list[np.ndarray]:
    """Both images as float64 (H, W, planes) arrays, after checking the mode
    and that their extents match."""
    check_channel_mode(mode)
    if (a.width, a.height) != (b.width, b.height):
        raise ContractError(
            f"extent mismatch: {a.width}x{a.height} vs {b.width}x{b.height}")
    if mode == "y_channel":
        return [bt601_luma(image.pixels)[..., None] for image in (a, b)]
    return [image.pixels.astype(np.float64) for image in (a, b)]


def psnr(a: ImageBuffer, b: ImageBuffer, channel_mode: str = "rgb") -> float:
    pa, pb = _planes(a, b, channel_mode)
    mse = float(np.mean((pa - pb) ** 2))
    if mse == 0.0:
        return PSNR_INF
    return 10.0 * math.log10(DATA_RANGE ** 2 / mse)


def _gaussian_window() -> np.ndarray:
    r = np.arange(WINDOW) - (WINDOW - 1) / 2.0
    g = np.exp(-(r ** 2) / (2.0 * SIGMA ** 2))
    w = np.outer(g, g)
    return w / w.sum()


_GAUSSIAN = _gaussian_window()


def _ssim_plane(x: np.ndarray, y: np.ndarray) -> float:
    def filt(img):
        v = sliding_window_view(img, (WINDOW, WINDOW))
        return np.tensordot(v, _GAUSSIAN, axes=([2, 3], [0, 1]))

    mu_x = filt(x)
    mu_y = filt(y)
    var_x = filt(x * x) - mu_x ** 2
    var_y = filt(y * y) - mu_y ** 2
    cov = filt(x * y) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + C1) * (2.0 * cov + C2)
    den = (mu_x ** 2 + mu_y ** 2 + C1) * (var_x + var_y + C2)
    return float(np.mean(num / den))


def ssim(a: ImageBuffer, b: ImageBuffer, channel_mode: str = "rgb") -> float:
    pa, pb = _planes(a, b, channel_mode)
    if a.width < WINDOW or a.height < WINDOW:
        raise ContractError(
            f"image {a.width}x{a.height} smaller than the {WINDOW}x{WINDOW} window")
    scores = [_ssim_plane(pa[..., c], pb[..., c]) for c in range(pa.shape[-1])]
    return float(np.mean(scores))
