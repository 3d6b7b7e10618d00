"""Dense NCHW tensors with tape-based reverse-mode automatic differentiation.

Everything downstream (blocks, losses, the training loop) is built from the
operations in this module.  Forward functions run on plain numpy arrays; when
a Tape is active and an input requires gradients, a backward rule is recorded
so that `backward(tape, loss)` can replay the tape in reverse.

Values are immutable once an op returns; gradient buffers are the only thing
mutated during backward.  Single precision is used for training, double
precision for finite-difference gradient checks.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
from numpy.lib.stride_tricks import as_strided


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


class ContractError(ValueError):
    """Raised when a non-shape precondition is violated."""


class Tensor:
    """A dense float32 or float64 array with an optional gradient buffer;
    `node` is (recording, index) of the tape node that made it, or None."""

    __slots__ = ("data", "grad", "requires_grad", "node")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            raise ContractError(f"tensor data must be float32 or float64, got {arr.dtype}")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        if self.data.size != 1:
            raise ContractError(f"item() needs one element, got shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


_ACTIVE_TAPES: list["Tape"] = []


class Tape:
    """Ordered record of operations; replaying it in reverse yields gradients.

    A node is (inputs, shapes, backward).  It names each input by the index
    of the node that made it on this recording, by the Tensor itself if it is
    a leaf (it requires grad and was made elsewhere), or by None if it needs
    no gradient, and keeps the inputs' shapes.  A node holds no tensor it
    made, so an intermediate is freed once no backward rule reads it.
    `gradients` consumes the nodes and starts a new recording, on which the
    tensors made before are leaves.  A recording is named by a fresh object,
    so no two recordings of any tapes share a name."""

    def __init__(self):
        self.nodes: list[tuple] = []
        self.recording = object()

    def __enter__(self):
        _ACTIVE_TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE_TAPES.pop()
        return False


def _record(inputs, out_data, backward):
    """Create the output tensor and, if a tape is live and an input needs a
    gradient, record the op."""
    out = Tensor(out_data)
    if not _ACTIVE_TAPES:
        return out
    tape = _ACTIVE_TAPES[-1]
    # one loop, not generators: this runs once per op
    rec, refs, shapes = tape.recording, [], []
    for t in inputs:
        node = t.node
        refs.append(None if not t.requires_grad
                    else node[1] if node is not None and node[0] is rec else t)
        shapes.append(t.data.shape)
    if refs.count(None) < len(refs):
        out.requires_grad = True
        out.node = (rec, len(tape.nodes))
        tape.nodes.append((refs, shapes, backward))
    return out


def gradients(tape: Tape, loss: Tensor):
    """Replay the tape in reverse, yielding (leaf, dLoss/dleaf) for each leaf
    (a requires_grad input that no node produced) as soon as the earliest
    node that names it is replayed, so a caller may apply and drop each
    gradient while the replay goes on; unreachable leaves get zeros.  Each
    node is dropped as it is replayed, freeing its activations, and the tape
    ends empty, ready for a new recording.  A node whose backward returns a
    gradient of another shape than its input's raises ContractError naming
    the op, instead of broadcasting it.
    """
    if loss.data.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.data.shape}")
    nodes = tape.nodes
    if not nodes:
        return
    rec, last = loss.node or (None, None)
    if rec is not tape.recording or last >= len(nodes):
        raise ContractError("loss tensor was not produced on this tape")
    tape.recording = object()
    # each leaf's earliest node: walking back, the last assignment wins
    first = {t: i for i in reversed(range(len(nodes)))
             for t in nodes[i][0] if isinstance(t, Tensor)}
    # gradients of intermediates by node index, of leaves by the leaf
    grads: dict[int | Tensor, np.ndarray] = {last: np.ones_like(loss.data)}
    while nodes:
        refs, shapes, back = nodes.pop()
        g = grads.pop(len(nodes), None)
        for ref, shape, ig in zip(refs, shapes, () if g is None else back(g)):
            if ig is None or ref is None:
                continue
            if ig.shape != shape:
                op = back.__qualname__.rsplit(".<locals>.", 1)[0]
                raise ContractError(f"{op} backward returned a gradient of shape "
                                    f"{ig.shape} for an input of shape {shape}")
            prev = grads.get(ref)
            grads[ref] = ig if prev is None else prev + ig
        for t in refs:
            if first.get(t) == len(nodes):  # no node left names t
                del first[t]
                g = grads.pop(t, None)
                yield t, np.zeros_like(t.data) if g is None else g


def backward(tape: Tape, loss: Tensor):
    """Set .grad on each leaf of the tape from `gradients(tape, loss)`."""
    for t, g in gradients(tape, loss):
        t.grad = g


def _unbroadcast(g, shape):
    """Reduce gradient g down to `shape` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise / structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    sa, sb = a.data.shape, b.data.shape

    def back(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _record([a, b], out, back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def back(g):
        return (_unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape))

    return _record([a, b], out, back)


def concat(tensors: list[Tensor]) -> Tensor:
    """Join NCHW tensors along the channel axis."""
    out = np.concatenate([t.data for t in tensors], axis=1)
    splits = np.cumsum([t.data.shape[1] for t in tensors])[:-1]

    def back(g):
        return tuple(np.split(g, splits, axis=1))

    return _record(list(tensors), out, back)


def tsum(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum())
    shape, dtype = x.data.shape, x.data.dtype

    def back(g):
        return (np.broadcast_to(g, shape).astype(dtype, copy=True),)

    return _record([x], out, back)


def tmean(x: Tensor) -> Tensor:
    n, shape, dtype = x.data.size, x.data.shape, x.data.dtype
    out = np.asarray(x.data.mean())

    def back(g):
        return (np.broadcast_to(g / n, shape).astype(dtype, copy=True),)

    return _record([x], out, back)


def sigmoid(x: Tensor) -> Tensor:
    # exp of -|x| cannot overflow
    e = np.exp(-np.abs(x.data))
    out = np.where(x.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def back(g):
        return (g * out * (1.0 - out),)

    return _record([x], out, back)


def prelu(x: Tensor, slope: Tensor) -> Tensor:
    """PReLU with slope broadcast per channel; a length-1 slope is shared."""
    c = _nchw(x)[1]
    if slope.data.ndim != 1 or slope.data.shape[0] not in (1, c):
        raise ShapeError(
            f"slope length {slope.data.shape} incompatible with {c} channels")
    s = slope.data.reshape(1, -1, 1, 1)
    # min(x, 0) * s + max(x, 0): no broadcast `where`, and no mask on the tape
    out = np.minimum(x.data, 0, dtype=np.result_type(x.data, s))
    out *= s
    out += np.maximum(x.data, 0)

    def back(g):
        neg = x.data < 0
        gx = np.where(neg, s * g, g)
        gs_full = np.where(neg, g * x.data, 0.0)
        if slope.data.shape[0] == 1:
            gs = np.asarray([gs_full.sum()], dtype=slope.data.dtype)
        else:
            gs = gs_full.sum(axis=(0, 2, 3)).astype(slope.data.dtype, copy=False)
        return gx, gs

    return _record([x, slope], out, back)


# ---------------------------------------------------------------------------
# convolution


def _im2col(xd, kh, kw):
    """Column matrix (N, C*kh*kw, H*W) of the zero-padded input.  A pointwise
    kernel's is a view of the input; any other's is a fresh buffer kh*kw
    times the input's size."""
    n, c, h, w = xd.shape
    if kh == kw == 1:
        return xd.reshape(n, c, h * w)
    ph, pw = kh // 2, kw // 2
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), xd.dtype)
    padded[:, :, ph:ph + h, pw:pw + w] = xd
    sn, sc, sh, sw = padded.strides
    cols = as_strided(padded, (n, c, kh, kw, h, w), (sn, sc, sh, sw, sh, sw))
    return cols.copy().reshape(n, c * kh * kw, h * w)


# A k x k correlation runs from row taps instead of im2col columns when the
# columns would exceed COLUMN_BYTES (they spill out of cache) and the batch's
# plane has at least PLANE_PER_COUT positions per output channel (the weight
# reorder and the accumulation passes stay small next to the column writes
# saved).  Both come from the crossover table in CHANGES.md.
COLUMN_BYTES = 4 << 20
PLANE_PER_COUT = 5


def _correlate(xd, wd):
    """The "same" zero-padded correlation of `xd` (N, C, H, W) with `wd`
    (cout, C, kh, kw), as (N, cout, H*W): one GEMM on im2col columns, or,
    past the route rule, on row taps: a buffer (N, kw*C, H*W) holding the
    input once per horizontal tap, shifted and zero-bordered, and one GEMM per
    kernel row on a view of it shifted by whole rows; the centre row's writes
    the output, each other's adds into the rows it reaches."""
    n, c, h, w = xd.shape
    cout, _, kh, kw = wd.shape
    if not (kh * kw > 1 and n * h * w >= PLANE_PER_COUT * cout
            and n * kh * kw * c * h * w * xd.itemsize > COLUMN_BYTES):
        return np.matmul(wd.reshape(cout, -1), _im2col(xd, kh, kw))
    taps = np.empty((n, kw, c, h, w), xd.dtype)
    for dx in range(kw):
        s = dx - kw // 2
        lo = min(w, max(0, -s))
        hi = max(lo, min(w, w - s))
        taps[:, dx, ..., :lo] = 0
        taps[:, dx, ..., hi:] = 0
        taps[:, dx, ..., lo:hi] = xd[..., lo + s:hi + s]
    taps = taps.reshape(n, kw * c, h * w)
    rows = wd.transpose(2, 0, 3, 1).reshape(kh, cout, kw * c)
    out = np.matmul(rows[kh // 2], taps)
    for ky in range(kh):
        dy = ky - kh // 2
        lo, hi = max(0, -dy), min(h, h - dy)
        if dy and lo < hi:
            out[..., lo * w:hi * w] += np.matmul(rows[ky], taps[..., (lo + dy) * w:(hi + dy) * w])
    return out


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """2-D cross-correlation at stride 1, zero-padded by half the (odd) kernel
    so the output keeps the input's extent (deep-learning convention).
    Every downsampling in the network is done by `binomial_stride2`."""
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise ShapeError("conv2d expects 4-D input and weight")
    n, cin, h, w = x.data.shape
    cout, wcin, kh, kw = weight.data.shape
    if cin != wcin:
        raise ShapeError(f"input has {cin} channels, weight expects {wcin}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"kernel extents must be odd, got {kh}x{kw}")
    if bias is not None and bias.data.shape != (cout,):
        raise ShapeError(f"bias shape {bias.data.shape} != ({cout},)")

    out = _correlate(x.data, weight.data)
    if bias is not None:  # in place unless the bias widens the result dtype
        b = bias.data[None, :, None]
        out = np.add(out, b, out=out if np.result_type(out, b) == out.dtype else None)
    out = out.reshape(n, cout, h, w)

    inputs = [x, weight] if bias is None else [x, weight, bias]
    need_gx = x.requires_grad

    # The node keeps the input, not its columns (kh*kw times its size):
    # backward rebuilds them for gw and drops them before correlating g.
    # An input that needs no gradient (the image) gets none.
    def back(g):
        g2 = g.reshape(n, cout, h * w)
        cols = _im2col(x.data, kh, kw)
        # per-sample products: no transposed copy of the columns, and at
        # batch 1 no copy of gw
        gw = g2[0] @ cols[0].T
        for i in range(1, n):
            gw += g2[i] @ cols[i].T
        del cols
        gx = None
        if need_gx:
            # gx is the "same" correlation of g with the flipped kernel, its
            # input and output channels swapped.  The kernel is copied
            # channel-last (about half the cost of a channel-first copy), so
            # on the im2col route it enters the GEMM as a transposed operand.
            flipped = np.ascontiguousarray(weight.data[:, :, ::-1, ::-1].transpose(0, 2, 3, 1))
            gx = _correlate(g, flipped.transpose(3, 0, 1, 2)).reshape(x.data.shape)
        gw = gw.reshape(weight.data.shape)
        if bias is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3))

    return _record(inputs, out, back)


# ---------------------------------------------------------------------------
# pooling and resampling


def _nchw(x: Tensor) -> tuple[int, int, int, int]:
    """The shape of `x`, which must be NCHW."""
    if x.data.ndim != 4:
        raise ShapeError(f"expected NCHW input, got {x.data.shape}")
    return x.data.shape


def global_avg_pool(x: Tensor) -> Tensor:
    n, c, h, w = _nchw(x)
    out = x.data.mean(axis=(2, 3), keepdims=True)
    dtype = x.data.dtype

    def back(g):
        return (np.broadcast_to(g / (h * w), (n, c, h, w)).astype(dtype, copy=True),)

    return _record([x], out, back)


def channel_pool(x: Tensor) -> Tensor:
    """Per-position mean and max over channels, stacked as a 2-channel map."""
    n, c, h, w = _nchw(x)
    mean = x.data.mean(axis=1, keepdims=True)
    out = np.concatenate([mean, x.data.max(axis=1, keepdims=True)], axis=1)

    def back(g):
        amax = x.data.argmax(axis=1)[:, None]
        gx = np.broadcast_to(g[:, 0:1] / c, x.data.shape).astype(x.data.dtype, copy=True)
        np.put_along_axis(gx, amax, np.take_along_axis(gx, amax, axis=1) + g[:, 1:2], axis=1)
        return (gx,)

    return _record([x], out, back)


def branch_softmax(branches: list[Tensor], logits: list[Tensor]) -> Tensor:
    """SKFF's select step: sum_i softmax_i(logits) * branches[i].

    The k branches share one NCHW shape and branch i's logit is (N, C, 1, 1);
    the softmax runs across branches at each (batch, channel) position, with
    max subtraction, and the products are added left to right.
    """
    k = len(branches)
    if k < 2 or len(logits) != k:
        raise ShapeError(f"branch_softmax needs k >= 2 branches and k logits, "
                         f"got {k} and {len(logits)}")
    n, c, h, w = _nchw(branches[0])
    for t, shape in [(b, (n, c, h, w)) for b in branches] + [(t, (n, c, 1, 1)) for t in logits]:
        if t.data.shape != shape:
            raise ShapeError(f"branch_softmax input shape {t.data.shape} != {shape}")
    stack = np.stack([t.data for t in logits], axis=0)
    e = np.exp(stack - stack.max(axis=0, keepdims=True))
    s = e / e.sum(axis=0, keepdims=True)
    bd = [t.data for t in branches]
    out = reduce(np.add, (b * si for b, si in zip(bd, s)))

    def back(g):
        gw = [_unbroadcast(g * b, (n, c, 1, 1)) for b in bd]
        # logit j's terms are added from the last branch's to the first's
        gl = [reduce(np.add, (gw[i] * s[i] * ((1.0 if i == j else 0.0) - s[j])
                              for i in reversed(range(k)))) for j in range(k)]
        return (*(g * si for si in s), *gl)

    return _record([*branches, *logits], out, back)


def _along(axis, index):
    """Index tuple selecting `index` on `axis` and everything on earlier axes."""
    return (slice(None),) * axis + (index,)


def _fold_edges(g, axis):
    """Adjoint of replicating the first and last entry once along `axis`."""
    gx = g[_along(axis, slice(1, -1))].copy()
    gx[_along(axis, slice(0, 1))] += g[_along(axis, slice(0, 1))]
    gx[_along(axis, slice(-1, None))] += g[_along(axis, slice(-1, None))]
    return gx


def replicate_pad1(x: Tensor) -> Tensor:
    """Pad H and W by one pixel on each side, replicating edge values."""
    _nchw(x)
    out = np.pad(x.data, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="edge")

    def back(g):
        return (_fold_edges(_fold_edges(g, 2), 3),)

    return _record([x], out, back)


def _every_other(axis, first, count):
    """Index of `count` entries along `axis`, from `first` in steps of two."""
    return _along(axis, slice(first, first + 2 * count - 1, 2))


def _binomial_stride2(d, axis):
    """[1, 2, 1] / 4 along `axis`, evaluated at the even (valid) positions."""
    m = (d.shape[axis] - 1) // 2
    out = d[_every_other(axis, 0, m)] + d[_every_other(axis, 2, m)]
    out *= 0.25
    out += 0.5 * d[_every_other(axis, 1, m)]
    return out


def _binomial_stride2_adjoint(g, axis, extent):
    m = g.shape[axis]
    gx = np.zeros(g.shape[:axis] + (extent,) + g.shape[axis + 1:], g.dtype)
    quarter = 0.25 * g
    gx[_every_other(axis, 0, m)] = quarter
    gx[_every_other(axis, 2, m)] += quarter
    gx[_every_other(axis, 1, m)] = 0.5 * g
    return gx


def binomial_stride2(x: Tensor) -> Tensor:
    """Separable [1, 2, 1] / 4 blur on every channel, sampled at stride 2
    without padding: extent e maps to (e - 3) // 2 + 1."""
    n, c, h, w = _nchw(x)
    if h < 3 or w < 3:
        raise ShapeError(f"binomial_stride2 needs extents >= 3, got {h}x{w}")
    rows = _binomial_stride2(x.data, 2)
    out = _binomial_stride2(rows, 3)

    def back(g):
        g_rows = _binomial_stride2_adjoint(g, 3, w)
        return (_binomial_stride2_adjoint(g_rows, 2, h),)

    return _record([x], out, back)


# 2x half-pixel linear interpolation along one axis: output 2i + phase is
# 0.75 x[i] + 0.25 x[j], where j = i - 1 for phase 0 and i + 1 for phase 1,
# clamped to the ends.  Entries: (phase, slice of i, matching slice of j).
_UPSAMPLE_TAPS = ((0, slice(1, None), slice(None, -1)), (0, slice(0, 1), slice(0, 1)),
                  (1, slice(None, -1), slice(1, None)), (1, slice(-1, None), slice(-1, None)))


def _upsample2x(d, axis):
    near, far = 0.75 * d, 0.25 * d
    pair = np.empty(d.shape[:axis + 1] + (2,) + d.shape[axis + 1:], d.dtype)
    for phase, i, j in _UPSAMPLE_TAPS:
        np.add(near[_along(axis, i)], far[_along(axis, j)],
               out=pair[_along(axis + 1, phase)][_along(axis, i)])
    return pair.reshape(d.shape[:axis] + (2 * d.shape[axis],) + d.shape[axis + 1:])


def _upsample2x_adjoint(g, axis):
    pair = g.reshape(g.shape[:axis] + (g.shape[axis] // 2, 2) + g.shape[axis + 1:])
    gx = pair[_along(axis + 1, 0)] + pair[_along(axis + 1, 1)]
    gx *= 0.75
    for phase, i, j in _UPSAMPLE_TAPS:
        gx[_along(axis, j)] += 0.25 * pair[_along(axis + 1, phase)][_along(axis, i)]
    return gx


def bilinear_upsample2x(x: Tensor) -> Tensor:
    """2x bilinear upsampling with half-pixel sampling and clamped edges."""
    _nchw(x)
    out = _upsample2x(_upsample2x(x.data, 3), 2)

    def back(g):
        return (_upsample2x_adjoint(_upsample2x_adjoint(g, 2), 3),)

    return _record([x], out, back)
