"""Finite-difference verification suite covering every differentiable block.

All checks run in double precision on small shapes (extents <= 8) and compare
analytic gradients against central differences with step 1e-5.  Large blocks
check every input coordinate plus a deterministic subsample of each parameter
tensor's coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import blocks as B
from . import optim as O
from . import tensor as T
from .tensor import Tensor

STEP = 1e-5
SEED = 0


@dataclass
class BlockReport:
    name: str
    max_rel_err: float
    passed: bool


def _broken_scale(x: Tensor) -> Tensor:
    # Forward identity with a deliberately wrong backward rule (doubled
    # gradient); injected as a negative control for the suite itself.
    return T._record([x], x.data.copy(), lambda g: (2.0 * g,))


def _suite(corrupt: str | None):
    rng = np.random.default_rng(SEED)
    f64 = np.float64

    def t(*shape, scale=1.0):
        return Tensor(rng.normal(0.0, scale, shape).astype(f64))

    entries = []

    def block(name, make, max_coords=None, deep=False):
        hook = _broken_scale if corrupt == name else (lambda x: x)
        entries.append((name, make, hook, max_coords, deep))

    def conv_case(hook):
        x, w, b = t(1, 3, 5, 5), t(4, 3, 3, 3, scale=0.5), t(4)
        return (lambda: T.tmean(T.sigmoid(T.conv2d(hook(x), w, b)))), [x, w, b]
    block("conv", conv_case)

    def prelu_case(hook):
        x = t(1, 4, 5, 5)
        s = Tensor(np.full(4, 0.25, dtype=f64))
        return (lambda: T.tmean(T.sigmoid(T.prelu(hook(x), s)))), [x, s]
    block("prelu", prelu_case)

    def unary_case(op):
        def make(hook):
            x = t(2, 3, 4, 4)
            return (lambda: T.tmean(T.sigmoid(op(hook(x))))), [x]
        return make
    block("sigmoid", unary_case(T.sigmoid))
    block("gap", unary_case(T.global_avg_pool))
    block("channel_pool", unary_case(T.channel_pool))
    block("bilinear_up", unary_case(T.bilinear_upsample2x))

    def softmax_case(hook):
        vs = [t(2, 4, 1, 1) for _ in range(3)]

        def f():
            outs = T.branch_softmax([hook(vs[0])] + vs[1:])
            acc = T.mul(outs[0], outs[0])
            for o in outs[1:]:
                acc = T.add(acc, T.mul(o, o))
            return T.tmean(acc)
        return f, vs
    block("branch_softmax", softmax_case)

    def skff_case(hook):
        m = B.init_weights(B.SKFF(8, 3), SEED + 1, f64)
        xs = [t(1, 8, 4, 4) for _ in range(3)]
        f = lambda: T.tmean(T.sigmoid(m([hook(xs[0])] + xs[1:])))
        return f, xs + list(m.named_parameters().values())
    block("skff", skff_case, 30, deep=True)

    def module_case(build, shape):
        def make(hook):
            m = B.init_weights(build(), SEED + 1, f64)
            x = t(*shape)
            f = lambda: T.tmean(T.sigmoid(m(hook(x))))
            return f, [x] + list(m.named_parameters().values())
        return make

    block("ca", module_case(lambda: B.ChannelAttention(8), (1, 8, 4, 4)), 30, deep=True)
    block("sa", module_case(B.SpatialAttention, (1, 8, 6, 6)), 30, deep=True)
    block("dau", module_case(lambda: B.DAU(8), (1, 8, 5, 5)), 20, deep=True)
    block("resize_down", module_case(lambda: B.ResizeDown(4), (1, 4, 6, 6)), 25, deep=True)
    block("resize_up", module_case(lambda: B.ResizeUp(4), (1, 4, 3, 3)), 25, deep=True)

    small = B.NetworkConfig(n_rrg=1, mrb_per_rrg=1, n_streams=2, n_columns=1,
                            base_channels=8)
    # Deep composites need per-coordinate step fallbacks: wide steps cross
    # activation kinks, narrow steps drown near-zero gradients in roundoff.
    block("mrb", module_case(lambda: B.MRB(small), (1, 8, 4, 4)), 10, deep=True)
    block("rrg", module_case(lambda: B.RRG(small), (1, 8, 4, 4)), 10, deep=True)

    def network_case(hook):
        net = B.MIRNet(small, dtype=f64, seed=SEED + 1)
        x = t(1, 3, 4, 4)
        f = lambda: T.tmean(T.sigmoid(net(hook(x))))
        return f, [x] + list(net.named_parameters().values())
    block("network", network_case, 10, deep=True)

    def charbonnier_case(mode):
        def make(hook):
            pred, target = t(1, 3, 4, 4), t(1, 3, 4, 4)
            return (lambda: O.charbonnier_loss(hook(pred), target, mode)), [pred, target]
        return make
    block("charbonnier_mean", charbonnier_case("per_pixel_mean"))
    block("charbonnier_norm", charbonnier_case("global_norm"))

    return entries


def run_gradcheck_suite(corrupt: str | None = None) -> list[BlockReport]:
    """Run the per-block finite-difference suite.

    `corrupt` routes the named block's input through an identity op with a
    doubled backward rule, as a negative control.
    """
    reports = []
    for name, make, hook, max_coords, deep in _suite(corrupt):
        f, wrt = make(hook)
        rep = T.grad_check(
            f, wrt, step=1e-4 if deep else STEP, max_coords=max_coords,
            seed=len(name),
            fallbacks=[(1e-5, 2), (3e-4, 4), (3e-5, 2), (1e-4, 4),
                       (1e-6, 2), (3e-6, 2)] if deep else None)
        reports.append(BlockReport(name, rep.max_rel_err, rep.passed))
    return reports
