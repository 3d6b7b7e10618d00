"""Workload definitions, seeded input generation and output checks.

A workload's inputs are procedural textures written as PPM files, a manifest,
a `key = value` config and, for evaluation, a checkpoint of the reference
network.  The program under test receives only these files.

The seed picks one of `VARIANTS` input sets (`seed % VARIANTS`).  Each set's
outputs on the seed code are stored in `reference.json`, so every run checks
the program's outputs against a recorded reference.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

VARIANTS = 16
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# The seed code reproduces each loss row bit for bit.  Reordering float32 sums
# (conv weight gradient as one tensordot, bilinear upsampling as stencils)
# moved rows by at most 2.4e-7 relative; a 5% error in PReLU's input gradient
# moved them by 6e-6 to 2.4e-5.
LOSS_RTOL = 2e-6
# Restored images are quantised to 8 bits: one flipped rounding moves PSNR by
# ~1e-5 dB, so the eval check admits about ten and cannot see smaller errors.
PSNR_ATOL_DB = 1e-4
SSIM_ATOL = 2e-5

REFERENCE_NETWORK = {
    "network.n_rrg": 3, "network.mrb_per_rrg": 2, "network.n_streams": 3,
    "network.n_columns": 2, "network.base_channels": 64,
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # "train" or "eval"
    network: dict = field(default_factory=dict)   # config overrides; {} = RunConfig default
    steps: int = 0                 # training steps per child process
    batch: int = 1
    patch: int = 32
    lr_init: float = 2e-4
    checkpoint_every: int = 0
    train_images: int = 12
    eval_extents: tuple = ()       # (height, width) of each held-out image

    @property
    def samples_per_op(self) -> int:
        return self.batch if self.kind == "train" else 1


WORKLOADS = {
    w.name: w for w in (
        # Tiny tensors: fixed per-op cost and tape bookkeeping dominate.  The
        # only workload that samples data and checkpoints every few steps.
        Workload("desk-train", "train", steps=40, batch=4, patch=32,
                 lr_init=1e-3, checkpoint_every=8),
        # Wide channels: conv2d and the resampling backward dominate; tape
        # memory and Adam over 59M parameters matter only here.
        Workload("ref-train", "train", network=REFERENCE_NETWORK, steps=2,
                 batch=1, patch=32),
        # Forward only, no tape; loads a checkpoint and scores PSNR/SSIM.  The
        # 62x66 image is not divisible by 4, so restore_image pads and crops.
        Workload("ref-eval", "eval", network=REFERENCE_NETWORK,
                 eval_extents=((64, 64), (62, 66))),
    )
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def make_texture(seed: int, height: int, width: int) -> np.ndarray:
    """Sum of random oriented sinusoids with a soft fold, as uint8 (H, W, 3)."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 7]))
    yy, xx = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    img = np.zeros((height, width, 3))
    for _ in range(12):
        fy, fx = rng.uniform(-14, 14, 2) * 2 * np.pi / 128
        amp = rng.uniform(0.3, 1.0)
        phase = rng.uniform(0, 2 * np.pi, 3)
        img += amp * np.sin(fy * yy + fx * xx)[..., None] * np.cos(phase) \
            + amp * np.cos(fy * yy + fx * xx)[..., None] * np.sin(phase)
    img = img + 0.7 * np.sin(3.0 * img)
    img = (img - img.min()) / (img.max() - img.min()) * 205.0 + 25.0
    return np.clip(np.floor(img + 0.5), 0, 255).astype(np.uint8)


def write_ppm(pixels: np.ndarray, path: Path):
    h, w, _ = pixels.shape
    path.write_bytes(f"P6\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes())


@dataclass
class Inputs:
    workload: Workload
    variant: int
    config: Path
    checkpoint: Path | None
    images: list[str]


def prepare(workload: Workload, seed: int, work: Path, src: Path) -> Inputs:
    """Write the workload's input files for `seed` into `work`."""
    variant = variant_of(seed)
    base = 1000 * (variant + 1)
    work.mkdir(parents=True, exist_ok=True)
    names = []
    if workload.kind == "train":
        extents = [(128, 128)] * workload.train_images
    else:
        extents = list(workload.eval_extents)
    for i, (h, w) in enumerate(extents):
        name = f"img_{i:02d}.ppm"
        write_ppm(make_texture(base + i, h, w), work / name)
        names.append(name)
    (work / "manifest.txt").write_text("\n".join(names) + "\n")

    lines = [f"{k} = {v}" for k, v in workload.network.items()]
    lines += [
        "data.manifest = manifest.txt",
        "data.task = denoise",
        "data.noise_sigma = 25",
        f"data.seed = {base + 11}",
        f"train.seed = {base + 13}",
    ]
    if workload.kind == "train":
        lines += [
            f"train.total_steps = {workload.steps}",
            f"train.batch = {workload.batch}",
            f"train.patch_size = {workload.patch}",
            f"train.lr_init = {workload.lr_init!r}",
            f"train.checkpoint_every = {workload.checkpoint_every}",
        ]
    config = work / "config.txt"
    config.write_text("\n".join(lines) + "\n")

    checkpoint = None
    if workload.kind == "eval":
        checkpoint = work / "reference.ckpt"
        _write_reference_checkpoint(config, base + 17, checkpoint, src)
    return Inputs(workload, variant, config, checkpoint, names)


def _write_reference_checkpoint(config: Path, seed: int, out: Path, src: Path):
    """Save the freshly initialised network of `config` with the program's own
    parameter names and checkpoint writer."""
    import sys
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from mirnet_forge import blocks
    from mirnet_forge.checkpoint import save_checkpoint
    from mirnet_forge.config import parse_config

    cfg = parse_config(config.read_text())
    net = blocks.MIRNet(cfg.network, dtype=np.float32, seed=seed)
    save_checkpoint(out, {k: p.data for k, p in net.named_parameters().items()})


# ---------------------------------------------------------------------------
# outputs and their checks


def read_losses(loss_log: Path) -> list[float]:
    """Loss column of the program's own loss_log.csv."""
    rows = loss_log.read_text().splitlines()[1:]
    return [float(row.split(",")[2]) for row in rows]


def parse_report(text: str) -> dict[str, tuple[float, float]]:
    """name -> (psnr_db, ssim) from the tab-separated eval report."""
    out = {}
    for line in text.splitlines():
        parts = line.split("\t")
        if len(parts) == 3 and not line.startswith(("#", "name\t")):
            out[parts[0]] = (float(parts[1]), float(parts[2]))
    return out


def check_train(losses: list[float], reference: list[float]) -> list[bool]:
    """Per-step verdicts: finite and within LOSS_RTOL of the reference row."""
    ok = []
    for i, ref in enumerate(reference):
        value = losses[i] if i < len(losses) else math.nan
        ok.append(math.isfinite(value)
                  and abs(value - ref) <= LOSS_RTOL * abs(ref))
    return ok


def check_eval(report: dict, reference: dict, images: list[str]) -> list[bool]:
    """Per-image verdicts; a wrong aggregate fails every image."""
    def close(name):
        got, ref = report.get(name), reference[name]
        return (got is not None
                and abs(got[0] - ref[0]) <= PSNR_ATOL_DB
                and abs(got[1] - ref[1]) <= SSIM_ATOL)
    aggregate_ok = close("aggregate") and close("input_baseline")
    return [aggregate_ok and close(name) for name in images]


def perturbed(output, kind: str):
    """A copy of a correct output moved well outside its tolerance, for the
    negative control."""
    if kind == "train":
        return output[:-1] + [output[-1] * (1.0 + 10 * LOSS_RTOL)]
    return {k: (p + 10 * PSNR_ATOL_DB, s) for k, (p, s) in output.items()}


def load_reference() -> dict:
    if not REFERENCE_PATH.is_file():
        return {}
    return json.loads(REFERENCE_PATH.read_text())
