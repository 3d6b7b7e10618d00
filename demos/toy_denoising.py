"""End-to-end walkthrough: train a desk-scale network to denoise textures.

Generates a small corpus of procedural texture images, corrupts them with
Gaussian noise (sigma 25), trains the default 2-stream network for a few
hundred steps, and reports PSNR/SSIM of the restored held-out images against
the noisy baseline.  Run with a step count as the only argument to train
longer (2000 steps reaches several dB of gain):

    python3 demos/toy_denoising.py 2000
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from mirnet_forge import cli, pipeline
from mirnet_forge import data as D


def make_texture(seed, size=128):
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    img = np.zeros((size, size, 3))
    for _ in range(14):
        fy, fx = rng.uniform(-16, 16, 2) * 2 * np.pi / size
        amp = rng.uniform(0.3, 1.0)
        for c in range(3):
            phase = rng.uniform(0, 2 * np.pi) + c * rng.uniform(0, 1)
            img[:, :, c] += amp * np.sin(fy * yy + fx * xx + phase)
    img = img + 0.7 * np.sin(3.0 * img)
    lo, hi = img.min(), img.max()
    img = (img - lo) / (hi - lo) * 205.0 + 25.0
    return D.ImageBuffer(np.clip(np.floor(img + 0.5), 0, 255).astype(np.uint8))


def main():
    steps = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    root = Path(tempfile.mkdtemp(prefix="toy_denoise_"))
    print(f"workspace: {root}")

    train, test = [], []
    for i in range(16):
        name = f"tex_{i:02d}.ppm"
        D.save_ppm(make_texture(1000 + i), root / name)
        (train if i < 12 else test).append(name)
    (root / "train.txt").write_text("\n".join(train) + "\n")
    (root / "test.txt").write_text("\n".join(test) + "\n")
    (root / "config.txt").write_text(
        f"train.total_steps = {steps}\n"
        "train.batch = 4\n"
        "train.patch_size = 32\n"
        "train.lr_init = 0.001\n"
        "train.seed = 1\n"
        "train.checkpoint_every = 0\n"
        "data.manifest = train.txt\n"
        "data.noise_sigma = 25\n")

    print(f"training the desk-scale network for {steps} steps...")
    assert cli.cmd_train(str(root / "config.txt"), str(root / "run")) == 0
    log = (root / "run" / "loss_log.csv").read_text().splitlines()
    first, last = log[1].split(","), log[-1].split(",")
    print(f"loss: {float(first[2]):.4f} (step {first[0]}) -> "
          f"{float(last[2]):.4f} (step {last[0]})")

    cfg = pipeline.load_config(str(root / "config.txt"))
    report = pipeline.run_eval(cfg, root / "run" / "final.ckpt",
                               str(root / "test.txt"))
    print("\nheld-out evaluation:")
    print(cli.format_report(report))
    gain = report.aggregate[0] - report.input_baseline[0]
    print(f"\nPSNR gain over the noisy input: {gain:+.2f} dB")


if __name__ == "__main__":
    main()
