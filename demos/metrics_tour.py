"""Tour of the two image-quality metrics and their sharp corners.

PSNR is a log-scaled mean squared error; SSIM compares local luminance,
contrast, and structure under a Gaussian window.  Both have closed-form
values on simple inputs, which this script reproduces.
"""

import numpy as np

from mirnet_forge.data import ImageBuffer, add_gaussian_noise
from mirnet_forge.metrics import psnr, ssim


def main():
    rng = np.random.default_rng(0)
    base = rng.integers(0, 240, (64, 64, 3), dtype=np.uint8)
    img = ImageBuffer(base)

    print("identical images:")
    print(f"  psnr = {psnr(img, ImageBuffer(base.copy()))}  (inf sentinel)")
    print(f"  ssim = {ssim(img, ImageBuffer(base.copy()))}")

    off = ImageBuffer(base + 16)
    print("\nevery value offset by 16 gray levels (MSE exactly 256):")
    print(f"  psnr = {psnr(img, off):.4f} dB   "
          f"(closed form 10*log10(255^2/256) = 24.0486)")

    flat_a = ImageBuffer(np.full((32, 32, 3), 100, dtype=np.uint8))
    flat_b = ImageBuffer(np.full((32, 32, 3), 50, dtype=np.uint8))
    print("\ntwo constant images, 100 vs 50 (zero-variance windows):")
    print(f"  ssim = {ssim(flat_a, flat_b):.4f}   (closed form 0.8002)")

    for sigma in (5, 15, 25, 50):
        noisy = add_gaussian_noise(img, sigma, seed=1)
        print(f"\nGaussian noise sigma={sigma:>2}: "
              f"psnr = {psnr(img, noisy):6.2f} dB, "
              f"ssim = {ssim(img, noisy):.4f}")

    noisy = add_gaussian_noise(img, 25, seed=1)
    print("\nsame pair scored on the BT.601 luma channel only:")
    print(f"  psnr = {psnr(img, noisy, 'y_channel'):.2f} dB, "
          f"ssim = {ssim(img, noisy, 'y_channel'):.4f}")


if __name__ == "__main__":
    main()
