"""Architecture blocks: SKFF fusion, dual attention, residual resizing,
multi-scale residual blocks, recursive residual groups, and the full network.

All blocks are plain containers of Tensors; forward methods compose the ops
in `tensor`, SKFF's select step being the one op `tensor.branch_softmax`.
Parameter names follow the block path, e.g.
"rrg0.mrb1.skff_final.upscale.weight", which is also the checkpoint naming.
Constructors take only shape arguments and allocate float32 parameters;
`init_weights` is the one place that draws weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor

#: The network restores 8-bit RGB images.
IMAGE_CHANNELS = 3


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture hyperparameters.

    Stream s runs at spatial scale 2^-s with channel width base_channels*2^s.
    Reference-scale values: 3 RRGs of 2 MRBs, 3 streams, 2 columns, 64 base
    channels; desk-scale defaults live in `config.RunConfig`.
    """
    n_rrg: int = 3
    mrb_per_rrg: int = 2
    n_streams: int = 3
    n_columns: int = 2
    base_channels: int = 64

    def __post_init__(self):
        if self.n_streams < 1 or self.n_columns < 1:
            raise T.ContractError("n_streams and n_columns must be >= 1")
        if min(self.n_rrg, self.mrb_per_rrg, self.base_channels) < 1:
            raise T.ContractError("n_rrg, mrb_per_rrg, base_channels must be >= 1")

    @property
    def divisor(self):
        return 1 << (self.n_streams - 1)


def bottleneck_width(channels: int) -> int:
    """Reduction width C/8, floored at 4 for tiny desk-scale widths."""
    return max(channels // 8, 4)


class Module:
    """Minimal parameter container; children are discovered by attribute walk."""

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name, attr in vars(self).items():
            if name.startswith("_"):
                continue
            self._collect(out, f"{prefix}{name}", attr)
        return out

    @staticmethod
    def _collect(out, name, attr):
        if isinstance(attr, Tensor):
            if attr.requires_grad:
                out[name] = attr
        elif isinstance(attr, Module):
            out.update(attr.named_parameters(f"{name}."))
        elif isinstance(attr, (list, tuple)):
            for i, item in enumerate(attr):
                Module._collect(out, f"{name}{i}", item)


def count_parameters(module: Module) -> tuple[dict[str, int], int]:
    """Learnable scalar count per parameter path, plus the total."""
    counts = {name: int(p.data.size) for name, p in module.named_parameters().items()}
    return counts, sum(counts.values())


def init_weights(module: Module, seed: int = 0, dtype=np.float32) -> Module:
    """Draw every conv weight from `default_rng(seed)`, in `named_parameters`
    order, and cast every parameter to `dtype`; returns `module`."""
    if seed is None:
        # default_rng(None) would draw from OS entropy
        raise T.ContractError("init_weights needs a seed")
    rng = np.random.default_rng(seed)
    for p in module.named_parameters().values():
        shape = p.data.shape
        if len(shape) == 4:
            # Kaiming-uniform fan-in with the standard leaky-slope correction
            # (gain^2 = 2/(1+5) = 1/3); keeps the deep unnormalized residual
            # stack bounded at initialization.
            bound = np.sqrt(1.0 / np.prod(shape[1:]))
            p.data = rng.uniform(-bound, bound, shape).astype(dtype)
        else:
            p.data = p.data.astype(dtype, copy=False)
    return module


class Conv2d(Module):
    """Convolution layer: float32 weights left unset until `init_weights`
    draws them or a checkpoint loads them, and zero biases."""

    def __init__(self, in_c, out_c, kernel, bias=True):
        self.weight = Tensor(np.empty((out_c, in_c, kernel, kernel), np.float32),
                             requires_grad=True)
        self.bias = (Tensor(np.zeros(out_c, np.float32), requires_grad=True)
                     if bias else None)

    def __call__(self, x):
        return T.conv2d(x, self.weight, self.bias)


class PReLU(Module):
    """Parametric ReLU with slopes starting at 0.25; n=1 gives one shared
    slope, otherwise per-channel."""

    def __init__(self, n):
        self.slope = Tensor(np.full(n, 0.25, np.float32), requires_grad=True)

    def __call__(self, x):
        return T.prelu(x, self.slope)


def _branch_sum(branches) -> Tensor:
    """Left-to-right sum of a list of tensors."""
    return reduce(T.add, branches)


def blur_pool(x: Tensor) -> Tensor:
    """Anti-aliased downsampling: 3x3 binomial blur then stride-2 subsampling.

    Edge-replicate padding keeps the blur a weighted average at the borders,
    so constant planes stay constant after downsampling.  The blur is the
    fixed depthwise [1, 2, 1] / 4 stencil applied separably, evaluated only
    at the kept positions.
    """
    return T.binomial_stride2(T.replicate_pad1(x))


class SKFF(Module):
    """Selective feature fusion of k equally-shaped streams.

    Fuse: sum the branches, pool globally, compress to a compact descriptor.
    Select: one upscale conv to the k per-branch descriptors stacked on
    channels, then one `branch_softmax` op: softmax across branches and
    convex recombination.  Convolutions are bias-free; the compact descriptor
    uses one shared PReLU slope (total parameter count C*r + k*r*C + 1).
    """

    def __init__(self, channels, n_branches):
        self._n_branches = n_branches
        if n_branches >= 2:
            r = bottleneck_width(channels)
            self.downscale = Conv2d(channels, r, 1, bias=False)
            self.act = PReLU(1)
            self.upscale = Conv2d(r, n_branches * channels, 1, bias=False)

    def __call__(self, branches: list[Tensor]) -> Tensor:
        if len(branches) != self._n_branches:
            raise T.ContractError(
                f"expected {self._n_branches} branches, got {len(branches)}")
        if any(b.data.shape != branches[0].data.shape for b in branches):
            raise ShapeError(f"branch shapes differ: {[b.data.shape for b in branches]}")
        if len(branches) == 1:
            return branches[0]
        z = self.act(self.downscale(T.global_avg_pool(_branch_sum(branches))))
        return T.branch_softmax(branches, self.upscale(z))


class ChannelAttention(Module):
    """Squeeze-and-excitation recalibration over channels."""

    def __init__(self, channels):
        mid = bottleneck_width(channels)
        self.conv1 = Conv2d(channels, mid, 1)
        self.act = PReLU(mid)
        self.conv2 = Conv2d(mid, channels, 1)

    def __call__(self, m):
        gate = T.sigmoid(self.conv2(self.act(self.conv1(T.global_avg_pool(m)))))
        return T.mul(m, gate)


class SpatialAttention(Module):
    """Recalibration by a sigmoid map, a 5x5 convolution of the channel-pooled
    mean/max planes."""

    def __init__(self):
        self.conv = Conv2d(2, 1, 5)

    def __call__(self, m):
        gate = T.sigmoid(self.conv(T.channel_pool(m)))
        return T.mul(m, gate)


class DAU(Module):
    """Dual attention unit: channel and spatial attention in parallel on a
    convolutional feature map, merged and added back to the input."""

    def __init__(self, channels):
        self.conv1 = Conv2d(channels, channels, 3)
        self.act = PReLU(channels)
        self.conv2 = Conv2d(channels, channels, 3)
        self.ca = ChannelAttention(channels)
        self.sa = SpatialAttention()
        self.merge = Conv2d(2 * channels, channels, 1)

    def __call__(self, x):
        m = self.conv2(self.act(self.conv1(x)))
        fused = self.merge(T.concat([self.ca(m), self.sa(m)]))
        return T.add(x, fused)


class ResizeDown(Module):
    """Residual 2x downsampling: halves H and W, doubles channels.

    Both the main conv path and the skip go through the fixed anti-aliasing
    blur before the stride-2 subsampling.
    """

    def __init__(self, channels):
        self.conv1 = Conv2d(channels, channels, 1)
        self.act = PReLU(channels)
        self.conv2 = Conv2d(channels, channels, 3)
        self.conv3 = Conv2d(channels, 2 * channels, 1)
        self.skip = Conv2d(channels, 2 * channels, 1)

    def __call__(self, x):
        n, c, h, w = x.data.shape
        if h % 2 or w % 2:
            raise ShapeError(f"downsampling requires even extents, got {h}x{w}")
        main = self.conv3(blur_pool(self.conv2(self.act(self.conv1(x)))))
        return T.add(main, self.skip(blur_pool(x)))


class ResizeUp(Module):
    """Residual 2x upsampling: doubles H and W, halves channels (bilinear).
    Upsampling once, last, is the paper's order (upsample first) exactly in real
    arithmetic: each output is a per-channel blend of inputs with weights summing
    to 1, edges included, so the 1x1 convs, their biases and the add commute with it."""

    def __init__(self, channels):
        if channels % 2:
            raise T.ContractError("upsampling requires an even channel count")
        self.conv1 = Conv2d(channels, channels, 1)
        self.act = PReLU(channels)
        self.conv2 = Conv2d(channels, channels, 3)
        self.conv3 = Conv2d(channels, channels // 2, 1)
        self.skip = Conv2d(channels, channels // 2, 1)

    def __call__(self, x):
        main = self.conv3(self.conv2(self.act(self.conv1(x))))
        return T.bilinear_upsample2x(T.add(main, self.skip(x)))


class ResizeChain(Module):
    """Sequence of resizing modules mapping stream i's scale to stream j's."""

    def __init__(self, src: int, dst: int, base_channels: int):
        self.step = ([ResizeDown(base_channels << s) for s in range(src, dst)] if src < dst
                     else [ResizeUp(base_channels << s) for s in range(src, dst, -1)])

    def __call__(self, x):
        for m in self.step:
            x = m(x)
        return x


class _Fusion(Module):
    """Cross-stream exchange feeding one receiving stream: resize every
    stream to the receiver's scale, then fuse with SKFF."""

    def __init__(self, dst: int, n_streams: int, base_channels: int):
        self.path = [ResizeChain(src, dst, base_channels) for src in range(n_streams)]
        self.skff = SKFF(base_channels << dst, n_streams)

    def __call__(self, streams: list[Tensor]) -> Tensor:
        return self.skff([p(s) for p, s in zip(self.path, streams)])


class _Column(Module):
    """One round of per-stream DAUs followed by all-stream fusion."""

    def __init__(self, n_streams, base_channels):
        self.dau = [DAU(base_channels << s) for s in range(n_streams)]
        self.fuse = [_Fusion(s, n_streams, base_channels) for s in range(n_streams)]

    def __call__(self, streams):
        feats = [d(s) for d, s in zip(self.dau, streams)]
        return [f(feats) for f in self.fuse]


class MRB(Module):
    """Multi-scale residual block: parallel resolution streams with
    cross-stream exchange, fused back at full resolution with a residual skip."""

    def __init__(self, config: NetworkConfig):
        c = config.base_channels
        s_count = config.n_streams
        self.stream_down = [ResizeChain(0, s, c) for s in range(s_count)]
        self.col = [_Column(s_count, c) for _ in range(config.n_columns)]
        self.final_up = [ResizeChain(s, 0, c) for s in range(s_count)]
        self.skff_final = SKFF(c, s_count)
        self.conv_out = Conv2d(c, c, 3)

    def __call__(self, x):
        streams = [chain(x) for chain in self.stream_down]
        for col in self.col:
            streams = col(streams)
        full = [up(s) for up, s in zip(self.final_up, streams)]
        return T.add(x, self.conv_out(self.skff_final(full)))


class RRG(Module):
    """Recursive residual group: MRBs wrapped in convs with a long skip."""

    def __init__(self, config: NetworkConfig):
        c = config.base_channels
        self.conv_in = Conv2d(c, c, 3)
        self.mrb = [MRB(config) for _ in range(config.mrb_per_rrg)]
        self.conv_out = Conv2d(c, c, 3)

    def __call__(self, x):
        y = self.conv_in(x)
        for m in self.mrb:
            y = m(y)
        return T.add(x, self.conv_out(y))


class MIRNet(Module):
    """Full restoration network: shallow features, RRG stack, residual output
    image_hat = image + residual.

    A seed runs `init_weights(self, seed, dtype)`.  `seed=None` draws nothing
    and leaves the float32 weights unset, for callers that assign every weight
    before use (`load_network`) or only count them (`layout_report`).
    """

    def __init__(self, config: NetworkConfig, dtype=np.float32, seed: int | None = 0):
        if seed is None and np.dtype(dtype) != np.float32:
            raise T.ContractError(f"an unseeded MIRNet is float32, got {np.dtype(dtype)}")
        c = config.base_channels
        self.head = Conv2d(IMAGE_CHANNELS, c, 3)
        self.rrg = [RRG(config) for _ in range(config.n_rrg)]
        self.tail = Conv2d(c, IMAGE_CHANNELS, 3)
        self.config = config
        if seed is not None:
            init_weights(self, seed, dtype)

    def __call__(self, image):
        n, c, h, w = image.data.shape
        if c != IMAGE_CHANNELS:
            raise ShapeError(f"expected {IMAGE_CHANNELS}-channel input, got {c}")
        d = self.config.divisor
        if h % d or w % d:
            raise ShapeError(
                f"spatial extents {h}x{w} must be divisible by {d} "
                f"for {self.config.n_streams} streams")
        x = self.head(image)
        for g in self.rrg:
            x = g(x)
        return T.add(image, self.tail(x))


# ---------------------------------------------------------------------------
# fusion variants for the aggregation comparison


class SumFusion(Module):
    """Parameter-free aggregation: plain element-wise sum of the branches."""

    def __call__(self, branches):
        return _branch_sum(branches)


class ConcatFusion(Module):
    """Aggregation by channel concatenation and a bias-free 1x1 projection."""

    def __init__(self, channels, n_branches):
        self.proj = Conv2d(n_branches * channels, channels, 1, bias=False)

    def __call__(self, branches):
        return self.proj(T.concat(branches))
