"""Finite-difference gradient checks and the suite covering every block.

All suite checks run in double precision on small shapes (extents <= 8) and
compare analytic gradients against central differences.  Large blocks are
deep composites: a deterministic subsample of each tensor's coordinates is
checked, with the deep stencils (see grad_check).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import blocks as B
from . import optim as O
from . import tensor as T
from .tensor import ContractError, Tape, Tensor, backward

TOLERANCE = 1e-4
STEP = 1e-5
DEEP_STEP = 1e-4
# A check with max_coords is a deep composite's; see grad_check.
DEEP_FALLBACKS = [(1e-5, 2), (3e-4, 4), (3e-5, 2), (1e-4, 4), (1e-6, 2), (3e-6, 2)]
SEED = 0


@dataclass
class GradCheckReport:
    max_abs_err: float
    max_rel_err: float
    passed: bool
    name: str = ""


def grad_check(f, wrt: list[Tensor], max_coords: int | None = None,
               seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients of scalar-valued f against central differences.

    `f` is called with no arguments and must close over the tensors in `wrt`.
    Relative error uses denominator max(|analytic|, |numeric|, 1e-8) and
    passes at TOLERANCE.  Without `max_coords`, every coordinate is checked
    with the 2-point central difference at STEP.

    With `max_coords`, the check is a deep composite's: a deterministic random
    subset of each tensor's coordinates, at DEEP_STEP.  No single step suits
    every coordinate of a deep composition: wide steps cross activation
    kinks, narrow steps drown near-zero gradients in float64 roundoff.  So a
    coordinate that fails at DEEP_STEP is retried with the (step, order)
    stencils of DEEP_FALLBACKS, order 2 or the 4th-order 5-point stencil,
    and its error is the minimum over stencils.  A wrong backward rule
    disagrees with every stencil, so this does not mask real gradient bugs.
    """
    if max_coords is not None and max_coords < 1:
        raise ContractError(f"max_coords must be >= 1, got {max_coords}")
    if not isinstance(wrt, list):
        raise ContractError(f"wrt must be a list of tensors, got {type(wrt).__name__}")
    step, fallbacks = (STEP, []) if max_coords is None else (DEEP_STEP, DEEP_FALLBACKS)
    for t in wrt:
        t.requires_grad = True
        t.grad = None
    with Tape() as tape:
        out = f()
    if out.data.size != 1:
        raise ContractError("grad_check requires a scalar-valued function")
    backward(tape, out)

    rng = np.random.default_rng(seed)
    max_abs = 0.0
    max_rel = 0.0
    for t in wrt:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        size = t.data.size
        if max_coords is not None and size > max_coords:
            idx = rng.choice(size, size=max_coords, replace=False)
        else:
            idx = range(size)
        flat = t.data.reshape(-1)
        aflat = analytic.reshape(-1)
        for i in idx:
            orig = flat[i]

            def at(offset):
                flat[i] = orig + offset
                return f().item()

            def quotient(h, o):
                if o == 2:
                    num = (at(h) - at(-h)) / (2.0 * h)
                else:
                    num = (-at(2 * h) + 8.0 * at(h)
                           - 8.0 * at(-h) + at(-2 * h)) / (12.0 * h)
                flat[i] = orig
                return num

            a = float(aflat[i])

            def errors(num):
                abs_err = abs(a - num)
                return abs_err, abs_err / max(abs(a), abs(num), 1e-8)

            abs_err, rel_err = errors(quotient(step, 2))
            for h, o in fallbacks:
                if rel_err <= TOLERANCE:
                    break
                fa, fr = errors(quotient(h, o))
                if fr < rel_err:
                    abs_err, rel_err = fa, fr
            # np.maximum keeps a NaN error, which must fail the check
            max_abs = float(np.maximum(max_abs, abs_err))
            max_rel = float(np.maximum(max_rel, rel_err))
    return GradCheckReport(max_abs, max_rel, max_rel <= TOLERANCE)


def _broken_scale(x: Tensor) -> Tensor:
    # Forward identity with a deliberately wrong backward rule (doubled
    # gradient); injected as a negative control for the suite itself.
    return T._record([x], x.data.copy(), lambda g: (2.0 * g,))


def _suite():
    """The cases in run order, as (name, make, max_coords); `make()` draws
    the tensors and returns (g, wrt), g(x) being the scalar loss with x in
    place of the input wrt[0].  Cases with `max_coords` are deep composites."""
    rng = np.random.default_rng(SEED)
    f64 = np.float64

    def t(*shape, scale=1.0):
        return Tensor(rng.normal(0.0, scale, shape).astype(f64))

    entries = []

    def block(name, make, max_coords=None):
        entries.append((name, make, max_coords))

    def conv_case():
        x, w, b = t(1, 3, 5, 5), t(4, 3, 3, 3, scale=0.5), t(4)
        return (lambda x: T.tmean(T.sigmoid(T.conv2d(x, w, b)))), [x, w, b]
    block("conv", conv_case)

    def prelu_case():
        x = t(1, 4, 5, 5)
        s = Tensor(np.full(4, 0.25, dtype=f64))
        return (lambda x: T.tmean(T.sigmoid(T.prelu(x, s)))), [x, s]
    block("prelu", prelu_case)

    def unary_case(op):
        def make():
            return (lambda x: T.tmean(T.sigmoid(op(x)))), [t(2, 3, 4, 4)]
        return make
    block("sigmoid", unary_case(T.sigmoid))
    block("gap", unary_case(T.global_avg_pool))
    block("channel_pool", unary_case(T.channel_pool))
    block("bilinear_up", unary_case(T.bilinear_upsample2x))
    block("blur_pool", unary_case(T.blur_pool))

    def softmax_case():
        bs, logits = [t(2, 4, 3, 3) for _ in range(3)], t(2, 12, 1, 1)
        return (lambda b: T.tmean(T.sigmoid(T.branch_softmax([b] + bs[1:], logits)))), bs + [logits]
    block("branch_softmax", softmax_case)

    def skff_case():
        m = B.init_weights(B.SKFF(8, 3), SEED + 1, f64)
        xs = [t(1, 8, 4, 4) for _ in range(3)]
        g = lambda x: T.tmean(T.sigmoid(m([x] + xs[1:])))
        return g, xs + list(m.named_parameters().values())
    block("skff", skff_case, 30)

    def module_case(build, shape):
        def make():
            m = B.init_weights(build(), SEED + 1, f64)
            x = t(*shape)
            g = lambda x: T.tmean(T.sigmoid(m(x)))
            return g, [x] + list(m.named_parameters().values())
        return make

    block("ca", module_case(lambda: B.ChannelAttention(8), (1, 8, 4, 4)), 30)
    block("sa", module_case(B.SpatialAttention, (1, 8, 6, 6)), 30)
    block("dau", module_case(lambda: B.DAU(8), (1, 8, 5, 5)), 20)
    block("resize_down", module_case(lambda: B.ResizeDown(4), (1, 4, 6, 6)), 25)
    block("resize_up", module_case(lambda: B.ResizeUp(4), (1, 4, 3, 3)), 25)

    small = B.NetworkConfig(n_rrg=1, mrb_per_rrg=1, n_streams=2, n_columns=1,
                            base_channels=8)
    block("mrb", module_case(lambda: B.MRB(small), (1, 8, 4, 4)), 10)
    block("rrg", module_case(lambda: B.RRG(small), (1, 8, 4, 4)), 10)
    block("network", module_case(lambda: B.MIRNet(small, seed=None), (1, 3, 4, 4)), 10)

    def charbonnier_case(mode):
        def make():
            pred, target = t(1, 3, 4, 4), t(1, 3, 4, 4)
            return (lambda p: O.charbonnier_loss(p, target, mode)), [pred, target]
        return make
    block("charbonnier_mean", charbonnier_case("per_pixel_mean"))
    block("charbonnier_norm", charbonnier_case("global_norm"))

    return entries


def run_gradcheck_suite(corrupt: str | None = None) -> list[GradCheckReport]:
    """Run the per-block finite-difference suite.

    `corrupt` routes the named case's input through an identity op with a
    doubled backward rule, as a negative control.
    """
    reports = []
    for name, make, max_coords in _suite():
        g, wrt = make()
        x = wrt[0]
        f = (lambda: g(_broken_scale(x))) if name == corrupt else (lambda: g(x))
        rep = grad_check(f, wrt, max_coords=max_coords, seed=len(name))
        reports.append(replace(rep, name=name))
    return reports
