"""Image I/O, synthetic degradations, patch sampling, and augmentation.

PPM (P6) is the canonical bit-exact image format.  All stochastic steps use
the Philox counter-based generator keyed as Philox(key=[seed, stream]) so a
(seed, stream) pair fully determines the output; a seed is one unsigned 64-bit
key word, in [0, 2^64).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .tensor import ContractError

if TYPE_CHECKING:  # config imports this module
    from .config import TrainConfig


class ParseError(ValueError):
    """Malformed image file; the message names the failing byte offset."""


@dataclass
class ImageBuffer:
    """8-bit interleaved RGB image: a uint8 array, row-major (height, width, 3)."""
    pixels: np.ndarray

    def __post_init__(self):
        p = self.pixels = np.asarray(self.pixels)
        if p.ndim != 3 or p.shape[2] != 3:
            raise ContractError(f"expected (H, W, 3) pixels, got {p.shape}")
        if p.dtype != np.uint8:
            raise ContractError(f"pixels must be uint8, got {p.dtype}")

    @property
    def height(self):
        return self.pixels.shape[0]

    @property
    def width(self):
        return self.pixels.shape[1]


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def split_seed(seed: int, index: int) -> int:
    """Derive an independent 63-bit stream seed for item `index`."""
    return int(_rng(seed, index).integers(0, 2**63))


def round_half_up(x: np.ndarray) -> np.ndarray:
    return np.floor(x + 0.5)


def _quantize(x: np.ndarray) -> np.ndarray:
    return np.clip(round_half_up(x), 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# PPM I/O


# A header field: whitespace and "#" comments (up to a newline), then a run
# of non-whitespace bytes.  In a bytes pattern \s is exactly bytes.isspace().
_HEADER_FIELD = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


def load_ppm(path) -> ImageBuffer:
    with open(path, "rb") as fh:
        raw = fh.read()
    pos = 0

    def token():
        nonlocal pos
        field = _HEADER_FIELD.match(raw, pos)
        start, pos = field.span(1)
        if start == pos:
            raise ParseError(f"unexpected end of header at byte {start}")
        return field[1], start

    magic, off = token()
    if magic != b"P6":
        raise ParseError(f"not a binary PPM (P6) file at byte {off}")
    fields = []
    for name in ("width", "height", "maxval"):
        tok, off = token()
        if not tok.isdigit():
            raise ParseError(f"bad {name} field at byte {off}")
        try:
            fields.append((int(tok), off))
        except ValueError as exc:  # more digits than int() converts
            raise ParseError(f"bad {name} field at byte {off}: {exc}") from exc
    (width, _), (height, _), (maxval, moff) = fields
    if maxval != 255:
        raise ParseError(f"unsupported maxval {maxval} at byte {moff}")
    if width < 1 or height < 1:
        raise ParseError(f"non-positive image extent at byte {fields[0][1]}")
    if pos == len(raw):
        raise ParseError(f"unexpected end of header at byte {pos}")
    pos += 1  # exactly one whitespace byte separates header from payload
    need = 3 * width * height
    payload = raw[pos:pos + need]
    if len(payload) < need:
        raise ParseError(
            f"truncated pixel payload at byte {pos + len(payload)}: "
            f"need {need} bytes, found {len(payload)}")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return ImageBuffer(pixels.copy())


def save_ppm(image: ImageBuffer, path):
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(image.pixels.tobytes())


# ---------------------------------------------------------------------------
# tensor conversion


def to_array(image: ImageBuffer) -> np.ndarray:
    """CHW float32 in [0, 1]."""
    return (image.pixels.astype(np.float32) / 255.0).transpose(2, 0, 1)


def to_image(array: np.ndarray) -> ImageBuffer:
    """Inverse of to_array with round-half-up; identity on 8-bit data."""
    if array.ndim != 3 or array.shape[0] != 3:
        raise ContractError(f"expected (3, H, W) array, got {array.shape}")
    return ImageBuffer(_quantize(array.astype(np.float64) * 255.0).transpose(1, 2, 0))


# ---------------------------------------------------------------------------
# degradations


@dataclass(frozen=True)
class DegradationSpec:
    """Synthetic input/target pair generator settings.

    Only the fields of the chosen task are consumed.  `seed` fully determines
    any stochastic output.
    """
    task: str = "denoise"
    noise_sigma: float = 25.0
    scale_factor: int = 2
    exposure_gain: float = 0.5
    gamma: float = 2.2
    seed: int = 0

    def __post_init__(self):
        # messages name the config keys, data.<field>
        if self.task not in ("denoise", "super_resolve", "enhance"):
            raise ContractError(f"unknown data.task {self.task!r}")
        for name in ("noise_sigma", "exposure_gain", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ContractError(f"data.{name} must be finite, got {getattr(self, name)}")
        if not 0 <= self.seed < 2**64:
            raise ContractError(f"data.seed must lie in [0, 2^64), got {self.seed}")
        if self.task == "denoise" and self.noise_sigma < 0:
            raise ContractError("data.noise_sigma must be >= 0")
        if self.task == "super_resolve" and self.scale_factor not in (2, 3, 4):
            raise ContractError("data.scale_factor must be 2, 3 or 4")
        if self.task == "enhance":
            if not (0.0 < self.exposure_gain <= 1.0):
                raise ContractError("data.exposure_gain must lie in (0, 1]")
            if self.gamma < 1.0:
                raise ContractError("data.gamma must be >= 1")


def add_gaussian_noise(image: ImageBuffer, sigma: float, seed: int) -> ImageBuffer:
    """Additive Gaussian noise in 8-bit units, rounded and clamped."""
    if sigma < 0:
        raise ContractError("sigma must be >= 0")
    noise = _rng(seed).normal(0.0, sigma, image.pixels.shape)
    return ImageBuffer(_quantize(image.pixels.astype(np.float64) + noise))


def _keys_cubic(t: np.ndarray) -> np.ndarray:
    # Keys (1981) cubic kernel with a = -0.5; reproduces linear ramps exactly.
    a = -0.5
    t = np.abs(t)
    out = np.zeros_like(t)
    near = t <= 1.0
    far = (t > 1.0) & (t < 2.0)
    out[near] = (a + 2.0) * t[near] ** 3 - (a + 3.0) * t[near] ** 2 + 1.0
    out[far] = a * t[far] ** 3 - 5.0 * a * t[far] ** 2 + 8.0 * a * t[far] - 4.0 * a
    return out


def _resample_matrix(in_len: int, out_len: int) -> np.ndarray:
    src = (np.arange(out_len) + 0.5) * in_len / out_len - 0.5
    base = np.floor(src).astype(np.int64)
    mat = np.zeros((out_len, in_len))
    rows = np.arange(out_len)
    for tap in range(-1, 3):
        idx = np.clip(base + tap, 0, in_len - 1)
        # one entry per row, so no index repeats within a tap
        mat[rows, idx] += _keys_cubic(src - (base + tap))
    return mat


def bicubic_resize(image: ImageBuffer, out_width: int, out_height: int) -> ImageBuffer:
    """Keys bicubic resampling (a = -0.5) with edge-clamped sampling."""
    if out_width < 1 or out_height < 1:
        raise ContractError("output extents must be >= 1")
    data = image.pixels.astype(np.float64)
    rows = _resample_matrix(image.height, out_height)
    cols = _resample_matrix(image.width, out_width)
    out = np.einsum("oi,ijc->ojc", rows, data)
    out = np.einsum("oj,ijc->ioc", cols, out)
    return ImageBuffer(_quantize(out))


def degrade(image: ImageBuffer, spec: DegradationSpec) -> tuple[ImageBuffer, ImageBuffer]:
    """Produce an (input, target) pair; extents are always preserved."""
    target = ImageBuffer(image.pixels.copy())
    if spec.task == "denoise":
        return add_gaussian_noise(image, spec.noise_sigma, spec.seed), target
    if spec.task == "super_resolve":
        s = spec.scale_factor
        if image.width % s or image.height % s:
            raise ContractError(
                f"extents {image.width}x{image.height} not divisible by scale {s}")
        low = bicubic_resize(image, image.width // s, image.height // s)
        return bicubic_resize(low, image.width, image.height), target
    # enhance: simulated under-exposure; the network learns the inverse map
    p = image.pixels.astype(np.float64) / 255.0
    dark = 255.0 * spec.exposure_gain * np.power(p, spec.gamma)
    return ImageBuffer(_quantize(dark)), target


# ---------------------------------------------------------------------------
# patch sampling


def check_pairs(pairs: list[tuple[ImageBuffer, ImageBuffer]], patch_size: int):
    """Raise ContractError unless each pair's images share their extents and
    hold a patch_size patch."""
    for i, (inp, tgt) in enumerate(pairs):
        if inp.width < patch_size or inp.height < patch_size:
            raise ContractError(
                f"image {i} ({inp.width}x{inp.height}) smaller than patch {patch_size}")
        if (inp.width, inp.height) != (tgt.width, tgt.height):
            raise ContractError(f"pair {i} has mismatched extents")


def sample_batch(pairs: list[tuple[ImageBuffer, ImageBuffer]],
                 train: TrainConfig,
                 batch_index: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Draw a batch of aligned input/target patches as float32 NCHW in [0, 1].

    Crop positions and horizontal and vertical flips are uniform per
    (train.seed, batch_index); the same crop and flips are applied to input
    and target.
    """
    ps = train.patch_size
    if not pairs:
        raise ContractError("sample_batch needs at least one pair")
    if not 0 <= batch_index < 2**64:
        raise ContractError(f"batch_index must lie in [0, 2^64), got {batch_index}")
    check_pairs(pairs, ps)
    rng = _rng(train.seed, batch_index)
    xs, ys = [], []
    for _ in range(train.batch):
        idx = int(rng.integers(0, len(pairs)))
        inp, tgt = pairs[idx]
        oy = int(rng.integers(0, inp.height - ps + 1))
        ox = int(rng.integers(0, inp.width - ps + 1))
        fh = bool(rng.integers(0, 2))
        fv = bool(rng.integers(0, 2))
        for patches, image in ((xs, inp), (ys, tgt)):
            crop = apply_flips(image.pixels[oy:oy + ps, ox:ox + ps], fh, fv)
            patches.append(to_array(ImageBuffer(crop)))
    return np.stack(xs), np.stack(ys)


def apply_flips(patch: np.ndarray, horizontal: bool, vertical: bool) -> np.ndarray:
    if horizontal:
        patch = patch[:, ::-1]
    if vertical:
        patch = patch[::-1, :]
    return np.ascontiguousarray(patch)
