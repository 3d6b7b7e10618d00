"""Demonstrate why downsampling goes through a blur first.

Stride-2 subsampling cannot represent a one-pixel input shift: the output
grid moves by half a sample, so the sampled values jump around.  A low-pass
filter before the subsampling bounds that jump (anti-aliasing), and for even
shifts the blurred operation is exactly shift-equivariant on interior
coordinates.
"""

import numpy as np

from mirnet_forge.blocks import blur_pool
from mirnet_forge.tensor import Tensor


def naive_subsample(x):
    return x.data[:, :, ::2, ::2]


def rms(x):
    return float(np.sqrt(np.mean(np.square(x))))


def main():
    # high-frequency stripes near the new Nyquist rate: exactly the content
    # that plain subsampling aliases
    yy = np.arange(33)[None, None, :, None] * np.ones((1, 1, 1, 32))
    big = np.sin(0.9 * np.pi * yy)
    a = Tensor(big[:, :, :32, :].copy())
    b = Tensor(big[:, :, 1:, :].copy())  # the same signal, shifted 1 px down

    signal = rms(a.data)
    print("one-pixel input shift (not representable on the coarse grid),")
    print("output jump as a fraction of the input signal level:")
    print(f"  naive stride-2: "
          f"{100 * rms(naive_subsample(b) - naive_subsample(a)) / signal:.1f}%")
    print(f"  blur-pool:      "
          f"{100 * rms(blur_pool(b).data - blur_pool(a).data) / signal:.1f}%")

    rng = np.random.default_rng(0)
    big = rng.normal(size=(1, 1, 18, 18))
    a = Tensor(big[:, :, :16, :16].copy())
    b = Tensor(big[:, :, 2:, 2:].copy())  # shifted 2 px
    ba, bb = blur_pool(a).data, blur_pool(b).data
    print("\ntwo-pixel input shift = one output pixel; on the interior the")
    print("blur-pool outputs are bit-identical:",
          np.array_equal(bb[:, :, 1:-1, 1:-1], ba[:, :, 2:, 2:]))

    const = Tensor(np.full((1, 1, 8, 8), 0.37))
    print("\nconstant plane stays constant through blur-pool:",
          np.allclose(blur_pool(const).data, 0.37, rtol=1e-14))


if __name__ == "__main__":
    main()
