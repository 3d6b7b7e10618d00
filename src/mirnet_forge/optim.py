"""Charbonnier objective, Adam optimizer, and cosine learning-rate schedule."""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .tensor import ContractError, ShapeError, Tensor

if TYPE_CHECKING:  # config imports this module
    from .config import TrainConfig


#: Charbonnier smoothing constant.
EPSILON = 1e-3
#: "per_pixel_mean" is the per-element mean of sqrt(d^2 + eps^2),
#: "global_norm" the literal global norm sqrt(sum d^2 + eps^2).
LOSS_MODES = ("per_pixel_mean", "global_norm")


def check_loss_mode(mode: str):
    if mode not in LOSS_MODES:
        raise ContractError(f"unknown loss mode {mode!r}")


def charbonnier_loss(pred: Tensor, target: Tensor,
                     mode: str = "per_pixel_mean") -> Tensor:
    """Smooth L1-like penalty, differentiable at zero difference."""
    check_loss_mode(mode)
    if pred.data.shape != target.data.shape:
        raise ShapeError(
            f"shape mismatch: {pred.data.shape} vs {target.data.shape}")
    d = pred.data - target.data
    eps2 = EPSILON * EPSILON
    if mode == "per_pixel_mean":
        root = np.sqrt(d * d + eps2)
        out, denominator = root.mean(), root * d.size
    else:
        out = denominator = np.sqrt((d * d).sum() + eps2)

    need_target = target.requires_grad

    def back(g):
        gp = g * d / denominator
        return gp.astype(d.dtype), (-gp).astype(d.dtype) if need_target else None

    return T._record([pred, target], np.asarray(out, dtype=d.dtype), back)


def cosine_lr(step: int, train: TrainConfig) -> float:
    """Half-cosine decay from lr_init at step 0 to lr_min at total_steps.

    Steps past the end clamp to lr_min.
    """
    if step < 0:
        raise ContractError("step must be non-negative")
    if step >= train.total_steps:
        return train.lr_min
    frac = step / train.total_steps
    return train.lr_min + 0.5 * (train.lr_init - train.lr_min) * (1.0 + math.cos(math.pi * frac))


class Adam:
    """Adam with bias correction; state is keyed by parameter name and is not
    checkpointed.  `step` reads (parameter, gradient) pairs from a stream such
    as `tensor.gradients` and updates m, v (in the parameter's dtype) and each
    C-contiguous p.data in place as each pair arrives, BLOCK elements at a
    time, with the textbook update's float operations in order; a parameter
    named by `init_state` that the stream leaves out gets a zero gradient."""

    BLOCK = 1 << 16
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self):
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.names: dict[Tensor, str] = {}

    def init_state(self, params: dict[str, Tensor]):
        """Name each parameter that has no state yet; allocate zero m and v."""
        for name, p in params.items():
            if name not in self.m:
                self.names[p] = name
                self.m[name] = np.zeros(p.data.shape, p.data.dtype)
                self.v[name] = np.zeros(p.data.shape, p.data.dtype)

    def step(self, grads, lr: float):
        if lr <= 0:
            raise ContractError("lr must be positive")
        if isinstance(grads, Mapping):  # iterating it would yield its keys
            raise ContractError("step takes (parameter, gradient) pairs such as "
                                "tensor.gradients(tape, loss), not a mapping")
        self.t += 1
        c1, c2 = 1.0 - self.BETA1 ** self.t, 1.0 - self.BETA2 ** self.t
        left = dict(self.names)
        for p, g in grads:
            if p not in left:
                raise ContractError(f"gradient of {p} comes twice or names no parameter")
            self._update(left.pop(p), p, g, lr, c1, c2)
        for p, name in left.items():
            self._update(name, p, np.zeros_like(p.data), lr, c1, c2)

    def _update(self, name, p, g, lr, c1, c2):
        if g.shape != p.data.shape:
            raise ContractError(f"gradient shape {g.shape} misaligned with parameter "
                                f"{name} of shape {p.data.shape}")
        if not p.data.flags.c_contiguous:
            # a copy would leave other references to p.data un-updated
            raise ContractError(f"parameter {name} is not C-contiguous")
        flat = [a.reshape(-1) for a in (g, self.m[name], self.v[name], p.data)]
        scratch = np.empty((2, min(self.BLOCK, p.data.size)), p.data.dtype)
        for start in range(0, p.data.size, self.BLOCK):
            g, m, v, w = (a[start:start + self.BLOCK] for a in flat)
            s, r = scratch[:, :w.size]
            # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) (g g)
            np.multiply(g, 1.0 - self.BETA1, out=s)
            m *= self.BETA1
            m += s
            np.multiply(g, g, out=s)
            s *= 1.0 - self.BETA2
            v *= self.BETA2
            v += s
            # w -= lr (m / c1) / (sqrt(v / c2) + eps)
            np.divide(m, c1, out=s)
            np.divide(v, c2, out=r)
            np.sqrt(r, out=r)
            r += self.EPS
            s *= lr
            s /= r
            w -= s
