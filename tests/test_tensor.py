import contextlib
import functools
import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest

from mirnet_forge import tensor as T
from mirnet_forge.blocks import MIRNet, MRB, SKFF, NetworkConfig, blur_pool, init_weights
from mirnet_forge.config import RunConfig
from mirnet_forge.optim import charbonnier_loss
from mirnet_forge.tensor import ContractError, ShapeError, Tape, Tensor
from mirnet_forge.verify import grad_check

from oracles import (channel_pool_loops, conv2d_loops, sigmoid_loops,
                     skff_select_loops, upsample2x_loops)


def randt(shape, seed=0, dtype=np.float64):
    return Tensor(np.random.default_rng(seed).normal(0, 1, shape).astype(dtype))


class TestConv2d:
    def test_identity_kernel(self):
        x = randt((2, 3, 6, 6), seed=1)
        w = np.zeros((3, 3, 1, 1))
        for i in range(3):
            w[i, i, 0, 0] = 1.0
        out = T.conv2d(x, Tensor(w))
        np.testing.assert_array_equal(out.data, x.data)

    def test_ones_kernel_on_ones_input(self):
        # 3x3 all-ones kernel, pad 1, on 3x3 all-ones input: center sees the
        # full window, corners see 4 cells, edge centers see 6.
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = T.conv2d(x, w).data[0, 0]
        assert out[1, 1] == 9.0
        assert out[0, 0] == out[0, 2] == out[2, 0] == out[2, 2] == 4.0
        assert out[0, 1] == out[1, 0] == out[1, 2] == out[2, 1] == 6.0

    def test_output_shape(self):
        x = randt((1, 3, 8, 8))
        w = randt((16, 3, 3, 3), seed=2)
        assert T.conv2d(x, w).shape == (1, 16, 8, 8)

    @pytest.mark.parametrize("kernel", [3, 1, 5], ids=["1-1", "pointwise", "5x5"])
    def test_matches_loop_oracle(self, kernel):
        # stride 1, zero padding kernel // 2: the output keeps the input extent
        x = randt((2, 3, 7, 6), seed=3)
        w = randt((4, 3, kernel, kernel), seed=4)
        b = randt((4,), seed=5)
        out = T.conv2d(x, w, b)
        expected = conv2d_loops(x.data, w.data, b.data, 1, kernel // 2)
        assert out.shape == (2, 4, 7, 6)
        np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-12)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            T.conv2d(randt((1, 3, 4, 4)), randt((2, 4, 3, 3)))

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            T.conv2d(randt((1, 1, 4, 4)), Tensor(np.ones((1, 1, 2, 2))))

    def test_linearity_bias_free(self):
        x = randt((1, 2, 5, 5), seed=6)
        y = randt((1, 2, 5, 5), seed=7)
        w = randt((3, 2, 3, 3), seed=8)
        a, b = 1.7, -0.3
        combined = T.conv2d(Tensor(a * x.data + b * y.data), w)
        separate = (a * T.conv2d(x, w).data
                    + b * T.conv2d(y, w).data)
        np.testing.assert_allclose(combined.data, separate, rtol=1e-10)

    def test_kxk_node_keeps_input_not_columns(self):
        # a 3x3 conv's im2col columns are 9x its input; the node keeps only
        # the input (already allocated), and the test holds the output
        x = randt((1, 8, 16, 16), seed=30)
        w = randt((8, 8, 3, 3), seed=31)
        w.requires_grad = True
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                out = T.conv2d(x, w)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tape.nodes) == 1
        assert retained < x.data.nbytes + out.data.nbytes + w.data.nbytes

    def test_no_input_gradient_for_an_input_without_grad(self, im2col_calls):
        # the image needs no gradient: backward builds the columns of x for
        # gw and never those of g (5 channels, not 3) for gx
        x = randt((2, 3, 6, 6), seed=32)
        w = randt((5, 3, 3, 3), seed=33)
        b = randt((5,), seed=34)
        w.requires_grad = b.requires_grad = True
        with Tape() as tape:
            loss = T.tsum(T.conv2d(x, w, b))
        del im2col_calls[:]
        (_, _, back), _ = tape.nodes
        gx, gw, gb = back(np.ones((2, 5, 6, 6)))
        assert gx is None
        assert im2col_calls == [x.shape]
        T.backward(tape, loss)
        assert x.grad is None
        np.testing.assert_array_equal(w.grad, gw)
        np.testing.assert_array_equal(b.grad, gb)

    @pytest.mark.parametrize("kernel", [(5, 5), (3, 5)], ids=["5x5", "3x5"])
    def test_gradients_match_finite_differences(self, kernel):
        # the input gradient convolves with the flipped kernel: a non-square
        # kernel catches kh and kw swapped
        x = randt((2, 3, 6, 7), seed=34)
        w = randt((4, 3) + kernel, seed=35)
        b = randt((4,), seed=36)
        rep = grad_check(lambda: T.tsum(T.sigmoid(T.conv2d(x, w, b))), [x, w, b])
        assert rep.passed, rep

    @pytest.mark.parametrize("xshape, wshape", [
        ((4, 8, 32, 32), (8, 8, 3, 3)),
        ((4, 2, 32, 32), (1, 2, 5, 5)),
        ((1, 256, 8, 8), (256, 256, 3, 3))], ids=["desk", "spatial", "ref"])
    def test_float32_gradients_within_stated_tolerance(self, xshape, wshape):
        # float32 x.grad and w.grad agree with float64 within 2e-6 of the
        # float64 gradient's max-norm
        x64 = randt(xshape, seed=37)
        w64 = Tensor(0.1 * randt(wshape, seed=38).data)
        g = randt((xshape[0], wshape[0]) + xshape[2:], seed=39)
        grads = []
        for dtype in (np.float64, np.float32):
            x = Tensor(x64.data.astype(dtype), requires_grad=True)
            w = Tensor(w64.data.astype(dtype), requires_grad=True)
            with Tape() as tape:
                loss = T.tsum(T.mul(T.conv2d(x, w), Tensor(g.data.astype(dtype))))
            T.backward(tape, loss)
            grads.append((x.grad, w.grad))
        for exact, single in zip(*grads):
            assert single.dtype == np.float32
            bound = 2e-6 * np.abs(exact).max()
            assert np.abs(single - exact).max() <= bound

    def test_mixed_precision_input_gradient(self):
        # float32 input, float64 weight: the input gradient promotes to
        # float64 and equals the float64 input's
        x32 = randt((1, 2, 5, 5), seed=32, dtype=np.float32)
        w = randt((3, 2, 3, 3), seed=33)
        grads = []
        for x in (x32, Tensor(x32.data.astype(np.float64))):
            x.requires_grad = w.requires_grad = True
            with Tape() as tape:
                loss = T.tsum(T.sigmoid(T.conv2d(x, w)))
            T.backward(tape, loss)
            grads.append(x.grad)
        assert grads[0].dtype == np.float64
        np.testing.assert_array_equal(grads[0], grads[1])

    @pytest.mark.parametrize("xd", [np.float32, np.float64])
    @pytest.mark.parametrize("wd", [np.float32, np.float64])
    @pytest.mark.parametrize("bd", [np.float32, np.float64])
    def test_bias_add_keeps_result_dtype(self, xd, wd, bd):
        # the bias is added in place only when that cannot narrow the result:
        # float32 only when input, weight and bias all are
        x = randt((2, 3, 5, 4), seed=40, dtype=xd)
        w = randt((4, 3, 3, 3), seed=41, dtype=wd)
        b = randt((4,), seed=42, dtype=bd)
        out = T.conv2d(x, w, b).data
        assert out.dtype == (np.float32 if xd == wd == bd == np.float32 else np.float64)
        # the bias-free product, then a separate broadcast add
        np.testing.assert_array_equal(out, T.conv2d(x, w).data + b.data[None, :, None, None])


# float64 3x3 shapes (n, cin, h, w, cout) beside both row-tap constants: the
# columns' bytes (72 * cin * h * w) straddle COLUMN_BYTES at 16 channels of
# 64 x w, and a PLANE_PER_COUT x 51 plane is exactly PLANE_PER_COUT * cout
# positions at cout = 51, one output channel short at cout = 52
_EDGE_W = T.COLUMN_BYTES // (72 * 16 * 64)
_ROUTES = {"columns_below": ((1, 16, 64, _EDGE_W, 4), False),
           "columns_above": ((1, 16, 64, _EDGE_W + 1, 4), True),
           "plane_at_threshold": ((1, 256, T.PLANE_PER_COUT, 51, 51), True),
           "plane_below": ((1, 256, T.PLANE_PER_COUT, 51, 52), False)}


@pytest.fixture
def im2col_calls(monkeypatch):
    """Shapes of the inputs `_im2col` is called on, in call order."""
    calls = []
    im2col = T._im2col
    monkeypatch.setattr(T, "_im2col",
                        lambda xd, kh, kw: calls.append(xd.shape) or im2col(xd, kh, kw))
    return calls


@pytest.fixture
def row_taps_everywhere(monkeypatch):
    """Every k x k correlation, forward or input gradient, takes row taps."""
    monkeypatch.setattr(T, "COLUMN_BYTES", 0)
    monkeypatch.setattr(T, "PLANE_PER_COUT", 0)


class TestRowTaps:
    @pytest.mark.parametrize("kernel", [3, 5], ids=["3x3", "5x5"])
    @pytest.mark.parametrize("plane", [(7, 6), (1, 1), (1, 5), (5, 1)],
                             ids=["7x6", "1x1", "1x5", "5x1"])
    def test_matches_loop_oracle(self, plane, kernel, row_taps_everywhere, im2col_calls):
        # extents at or below the kernel's reach leave whole taps and kernel
        # rows outside the plane
        x = randt((2, 3) + plane, seed=50).data
        w = randt((4, 3, kernel, kernel), seed=51).data
        out = T._correlate(x, w).reshape((2, 4) + plane)
        assert im2col_calls == []
        np.testing.assert_allclose(out, conv2d_loops(x, w, None, 1, kernel // 2),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("case", list(_ROUTES))
    def test_route_follows_both_constants(self, case, im2col_calls):
        (n, cin, h, w, cout), row_taps = _ROUTES[case]
        assert (72 * n * cin * h * w > T.COLUMN_BYTES) == (case != "columns_below")
        assert (n * h * w >= T.PLANE_PER_COUT * cout) == (case != "plane_below")
        x = randt((n, cin, h, w), seed=52)
        wt = randt((cout, cin, 3, 3), seed=53)
        out = T.conv2d(x, wt).data
        assert bool(im2col_calls) != row_taps
        cols = np.matmul(wt.data.reshape(cout, -1), T._im2col(x.data, 3, 3))
        np.testing.assert_allclose(out, cols.reshape(out.shape), rtol=0, atol=1e-12)

    def test_gradients_above_threshold(self):
        # the forward runs from row taps; g has 4 channels, too few for its
        # columns to cross COLUMN_BYTES, so the input gradient takes im2col
        (n, cin, h, w, cout), _ = _ROUTES["columns_above"]
        x = Tensor(0.1 * randt((n, cin, h, w), seed=54).data)
        wt = Tensor(0.1 * randt((cout, cin, 3, 3), seed=55).data)
        b = randt((cout,), seed=56)
        rep = grad_check(lambda: T.tsum(T.sigmoid(T.conv2d(x, wt, b))), [x, wt, b],
                         max_coords=12)
        assert rep.passed, rep

    def test_backward_above_threshold_builds_columns_once(self, im2col_calls):
        # 32 channels at 64 x 64 in float32: 4.5 MiB of columns for x and for
        # g alike, so only gw's columns of x are built, and gx takes row taps
        x = randt((1, 32, 64, 64), seed=59, dtype=np.float32)
        wt = Tensor(0.1 * randt((32, 32, 3, 3), seed=60, dtype=np.float32).data)
        x.requires_grad = wt.requires_grad = True
        with Tape() as tape:
            T.conv2d(x, wt)
        assert im2col_calls == []
        g = randt((1, 32, 64, 64), seed=61, dtype=np.float32).data
        (_, _, back), = tape.nodes
        gx, _ = back(g)
        assert im2col_calls == [x.shape]
        # the im2col formula, in float64: g's columns times the flipped
        # kernel with its channels swapped
        flipped = wt.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(32, -1)
        want = np.matmul(flipped.astype(np.float64), T._im2col(g.astype(np.float64), 3, 3))
        assert gx.dtype == np.float32
        np.testing.assert_allclose(gx, want.reshape(gx.shape), rtol=0,
                                   atol=1e-5 * np.abs(want).max())

    @pytest.mark.parametrize("kernel", [3, 5], ids=["3x3", "5x5"])
    @pytest.mark.parametrize("plane", [(1, 5), (5, 1), (7, 6)], ids=["1x5", "5x1", "7x6"])
    def test_gradients_with_row_taps_everywhere(self, plane, kernel, row_taps_everywhere,
                                                im2col_calls):
        x = randt((2, 3) + plane, seed=62)
        wt = Tensor(0.5 * randt((4, 3, kernel, kernel), seed=63).data)
        b = randt((4,), seed=64)
        rep = grad_check(lambda: T.tsum(T.sigmoid(T.conv2d(x, wt, b))), [x, wt, b])
        assert rep.passed, rep
        # one backward: gw's columns are the only ones built
        assert im2col_calls == [x.shape]

    def test_forward_peak_memory_below_six_inputs(self):
        # im2col's columns alone are 9x the input; the taps are 3x, plus the
        # output and one accumulation product
        x = Tensor(np.random.default_rng(57).normal(0, 1, (1, 64, 64, 64)).astype(np.float32))
        w = Tensor((0.1 * np.random.default_rng(58).normal(0, 1, (64, 64, 3, 3))).astype(np.float32))
        b = Tensor(np.zeros(64, np.float32))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            T.conv2d(x, w, b)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 6 * x.data.nbytes


def _prelu_specials(dtype, channels):
    """Rows of +-0, +-subnormals, +-inf, NaN and ordinary values, one row per
    channel, two samples (the second negated)."""
    tiny = np.finfo(dtype).smallest_subnormal
    row = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, -3 * tiny,
                    np.inf, -np.inf, np.nan, 1.5, -2.0], dtype)
    x = np.broadcast_to(row, (channels, row.size))[None, :, None, :]
    return np.concatenate([x, -x])


class TestPrelu:
    def test_negative_branch(self):
        x = Tensor(np.full((1, 1, 1, 1), -4.0))
        out = T.prelu(x, Tensor(np.array([0.25])))
        assert out.data[0, 0, 0, 0] == -1.0

    def test_nonnegative_unchanged(self):
        x = Tensor(np.abs(np.random.default_rng(0).normal(0, 1, (1, 3, 4, 4))))
        out = T.prelu(x, Tensor(np.array([0.7, 0.1, 2.0])))
        np.testing.assert_array_equal(out.data, x.data)

    def test_slope_gradient(self):
        # d out / d slope on input -2 is -2.
        x = Tensor(np.full((1, 1, 1, 1), -2.0))
        slope = Tensor(np.array([0.25]))
        rep = grad_check(lambda: T.tsum(T.prelu(x, slope)), [slope])
        assert rep.passed
        assert slope.grad[0] == pytest.approx(-2.0, abs=1e-7)

    def test_slope_length_mismatch(self):
        with pytest.raises(ShapeError):
            T.prelu(randt((1, 3, 2, 2)), Tensor(np.array([0.1, 0.2])))

    @pytest.mark.parametrize("slope", [[0.0], [0.25], [-0.5], [2.0], [0.0, 0.25, -0.5, 2.0]],
                             ids=["0", "0.25", "-0.5", "2", "per_channel"])
    @pytest.mark.parametrize("xd", [np.float32, np.float64])
    @pytest.mark.parametrize("sd", [np.float32, np.float64])
    def test_matches_where_on_special_values(self, slope, xd, sd):
        # out, x.grad and slope.grad equal np.where(x < 0, s * x, x) and its
        # gradients in value and dtype; only the sign of a zero may differ
        x = _prelu_specials(xd, 4)
        s = np.array(slope, sd)
        sb = s.reshape(1, -1, 1, 1)
        with np.errstate(invalid="ignore"):  # the oracle's own 0 * inf
            want = np.where(x < 0, sb * x, x)
        xt, st = Tensor(x, requires_grad=True), Tensor(s, requires_grad=True)
        # a zero slope times -inf is NaN, which numpy reports as an invalid value
        warns = (pytest.warns(RuntimeWarning, match="invalid value") if 0.0 in slope
                 else contextlib.nullcontext())
        with warns, Tape() as tape:
            out = T.prelu(xt, st)
        assert out.data.dtype == want.dtype
        np.testing.assert_array_equal(out.data, want)

        g = np.random.default_rng(43).uniform(0.5, 1.5, x.shape).astype(want.dtype)
        (_, _, back), = tape.nodes
        gx, gs = back(g)
        neg = x < 0
        want_gx = np.where(neg, sb * g, g)
        want_gs_full = np.where(neg, g * x, 0.0)
        # the slope gradient takes the slope's dtype, shared or per channel
        want_gs = (np.asarray([want_gs_full.sum()], sd) if s.size == 1
                   else want_gs_full.sum(axis=(0, 2, 3)).astype(sd))
        for got, exp in ((gx, want_gx), (gs, want_gs)):
            assert got.dtype == exp.dtype
            np.testing.assert_array_equal(got, exp)


class TestSigmoid:
    def test_zero_maps_to_half(self):
        out = T.sigmoid(Tensor(np.array([0.0, -0.0]).reshape(1, 1, 1, 2)))
        assert (out.data == 0.5).all()

    def test_saturation(self):
        out = T.sigmoid(Tensor(np.full((1, 1, 1, 1), 50.0)))
        assert abs(out.data[0, 0, 0, 0] - 1.0) < 1e-9

    def test_matches_loop_oracle(self):
        for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-6)):
            x = randt((2, 3, 4, 4), seed=9, dtype=dtype)
            out = T.sigmoid(x).data
            assert out.dtype == dtype
            np.testing.assert_allclose(out, sigmoid_loops(x.data), rtol=tol, atol=tol)

    def test_nan_propagates(self):
        out = T.sigmoid(Tensor(np.array([np.nan, 1.0]).reshape(1, 1, 1, 2)))
        assert np.isnan(out.data[0, 0, 0, 0]) and out.data[0, 0, 0, 1] > 0.5

    def test_no_overflow_for_large_negative(self):
        for dtype in (np.float32, np.float64):
            with np.errstate(over="raise"):
                out = T.sigmoid(Tensor(np.array([-900.0, 900.0], dtype).reshape(1, 1, 1, 2)))
            assert out.data.dtype == dtype
            np.testing.assert_array_equal(out.data.reshape(-1), [0.0, 1.0])


class TestGlobalAvgPool:
    def test_constant_input(self):
        out = T.global_avg_pool(Tensor(np.ones((2, 3, 4, 5))))
        np.testing.assert_array_equal(out.data, np.ones((2, 3, 1, 1)))

    def test_mean_oracle(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]],
                              [[5.0, 6.0], [7.0, 8.0]]]]))
        out = T.global_avg_pool(x)
        np.testing.assert_array_equal(out.data.reshape(-1), [2.5, 6.5])

    def test_output_shape(self):
        assert T.global_avg_pool(randt((3, 7, 5, 6))).shape == (3, 7, 1, 1)


class TestChannelPool:
    def test_single_channel(self):
        x = randt((1, 1, 3, 3), seed=10)
        out = T.channel_pool(x)
        np.testing.assert_array_equal(out.data[:, 0:1], x.data)
        np.testing.assert_array_equal(out.data[:, 1:2], x.data)

    def test_two_channel_values(self):
        x = Tensor(np.stack([np.full((1, 1), 1.0), np.full((1, 1), 3.0)])[None])
        out = T.channel_pool(x)
        assert out.data[0, 0, 0, 0] == 2.0
        assert out.data[0, 1, 0, 0] == 3.0

    def test_matches_loop_oracle(self):
        x = randt((1, 8, 4, 4), seed=11)
        np.testing.assert_allclose(
            T.channel_pool(x).data, channel_pool_loops(x.data),
            rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("channels, first_max", [
        ([3.0, 3.0, 1.0], 0), ([1.0, np.nan, 5.0, np.nan], 1)], ids=["tie", "nan"])
    def test_max_gradient_goes_to_first_maximum(self, dtype, channels, first_max):
        # ties route the max plane's gradient to the first maximum; a NaN
        # channel makes the max NaN and takes the gradient at its first NaN
        c = len(channels)
        x = Tensor(np.array(channels, dtype).reshape(1, c, 1, 1), requires_grad=True)
        g = Tensor(np.array([2.0, 5.0], dtype).reshape(1, 2, 1, 1))
        with Tape() as tape:
            out = T.channel_pool(x)
            loss = T.tsum(T.mul(out, g))
        T.backward(tape, loss)
        mx = out.data[0, 1, 0, 0]
        assert np.isnan(mx) if np.isnan(channels).any() else mx == max(channels)
        want = np.full(c, dtype(2.0) / c, dtype)
        want[first_max] += dtype(5.0)
        assert x.grad.dtype == dtype
        np.testing.assert_array_equal(x.grad.reshape(-1), want)


def _weight_nodes(logits):
    """The branch weights as k ops, one per weight, each naming all k logits,
    with the numpy softmax of `T.branch_softmax`: with `T.mul` and `T.add`,
    the reference composite for that op's float operations."""
    stack = np.stack([t.data for t in logits], axis=0)
    e = np.exp(stack - stack.max(axis=0, keepdims=True))
    s = e / e.sum(axis=0, keepdims=True)
    k = len(logits)

    def weight(i):
        def back(g):
            return tuple(g * s[i] * ((1.0 if j == i else 0.0) - s[j]) for j in range(k))
        return T._record(list(logits), s[i].copy(), back)
    return [weight(i) for i in range(k)]


class TestBranchSoftmax:
    """`branch_softmax(branches, logits)` is SKFF's select step: the sum of
    the branches weighted by the softmax of their logits across branches;
    `logits` is (N, k*C, 1, 1), branch i's logits channels [i*C, (i+1)*C)."""

    def test_equal_logits(self):
        bs = [randt((2, 3, 4, 4), seed=s) for s in (10, 11, 12)]
        logits = Tensor(np.full((2, 9, 1, 1), 0.3))
        out = T.branch_softmax(bs, logits)
        mean = (bs[0].data + bs[1].data + bs[2].data) / 3.0
        np.testing.assert_allclose(out.data, mean, rtol=0, atol=1e-15)

    def test_known_weights(self):
        # branch i is one at column i and zero elsewhere, so column i of the
        # output is branch i's weight
        vals = [0.0, np.log(2.0), np.log(4.0)]
        bs = [Tensor(np.eye(3)[i].reshape(1, 1, 1, 3)) for i in range(3)]
        logits = Tensor(np.array(vals).reshape(1, 3, 1, 1))
        out = T.branch_softmax(bs, logits)
        for got, e in zip(out.data[0, 0, 0], [1 / 7, 2 / 7, 4 / 7]):
            assert got == pytest.approx(e, rel=1e-12)

    def test_shift_invariance(self):
        bs = [randt((2, 3, 4, 4), seed=s) for s in (15, 16, 17)]
        logits = Tensor(np.concatenate([randt((2, 3, 1, 1), seed=s).data for s in (12, 13, 14)],
                                       axis=1))
        base = T.branch_softmax(bs, logits).data
        shifted = Tensor(logits.data + 17.25)
        np.testing.assert_allclose(base, T.branch_softmax(bs, shifted).data, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_sums_to_one_and_open_interval(self, seed):
        logits = Tensor(np.concatenate(
            [randt((2, 4, 1, 1), seed=100 + seed + 10 * k).data for k in range(4)], axis=1))
        ones = [Tensor(np.ones((2, 4, 3, 3))) for _ in range(4)]
        np.testing.assert_allclose(T.branch_softmax(ones, logits).data, 1.0, rtol=0, atol=1e-6)
        # one-hot branches along the width read each weight out alone
        hot = [Tensor(np.broadcast_to(np.eye(4)[i], (2, 4, 1, 4)).copy()) for i in range(4)]
        weights = T.branch_softmax(hot, logits).data
        assert np.all(weights > 0.0) and np.all(weights < 1.0)

    def test_matches_loops_oracle(self):
        bs = [randt((2, 3, 4, 5), seed=20 + i) for i in range(3)]
        logits = Tensor(np.concatenate([randt((2, 3, 1, 1), seed=30 + i).data for i in range(3)],
                                       axis=1))
        want = skff_select_loops([b.data for b in bs], np.split(logits.data, 3, axis=1))
        np.testing.assert_allclose(T.branch_softmax(bs, logits).data, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_bit_identical_to_the_mul_add_composite(self, k):
        # float32, as in training: the output, every branch gradient and the
        # logits' gradient equal those of k softmax ops, k muls and k - 1 adds
        # on k logit tensors, whose k gradients are concatenated on channels
        def run(fused):
            rng = np.random.default_rng(40 + k)
            bs = [Tensor(rng.normal(size=(2, 4, 5, 5)).astype(np.float32), requires_grad=True)
                  for _ in range(k)]
            zs = [rng.normal(size=(2, 4, 1, 1)).astype(np.float32) for _ in range(k)]
            logits = ([Tensor(np.concatenate(zs, axis=1), requires_grad=True)] if fused
                      else [Tensor(z, requires_grad=True) for z in zs])
            c = Tensor(rng.normal(size=(2, 4, 5, 5)).astype(np.float32))
            with Tape() as tape:
                out = T.branch_softmax(bs, logits[0]) if fused else composite(bs, logits)
                loss = T.tsum(T.mul(out, c))
            T.backward(tape, loss)
            return [out.data] + [t.grad for t in bs] + [np.concatenate([t.grad for t in logits],
                                                                       axis=1)]

        def composite(bs, logits):
            prods = [T.mul(b, w) for b, w in zip(bs, _weight_nodes(logits))]
            return functools.reduce(T.add, prods)

        fused, old = run(True), run(False)
        assert all(a.dtype == np.float32 for a in fused)
        assert fused[-1].shape == (2, 4 * k, 1, 1)
        for a, b in zip(fused, old):
            np.testing.assert_array_equal(a, b)

    def test_shape_mismatch(self):
        logits = randt((1, 4, 1, 1))
        with pytest.raises(ShapeError):
            T.branch_softmax([randt((1, 2, 3, 3)), randt((1, 2, 3, 2))], logits)

    def test_needs_two_branches(self):
        with pytest.raises(ShapeError):
            T.branch_softmax([randt((1, 2, 3, 3))], randt((1, 2, 1, 1)))

    def test_needs_one_logit_per_branch(self):
        # two branches' logits for three branches
        bs = [randt((1, 2, 3, 3)) for _ in range(3)]
        with pytest.raises(ShapeError, match=r"\(1, 4, 1, 1\) != \(1, 6, 1, 1\)"):
            T.branch_softmax(bs, randt((1, 4, 1, 1)))

    @pytest.mark.parametrize("shape", [(1, 4, 3, 3), (1, 1, 1, 1), (1, 2, 1, 1), (2, 4, 1, 1),
                                       (1, 4, 1), (1, 4)])
    def test_logit_must_be_n_c_1_1(self, shape):
        # the logits must be (N, k*C, 1, 1) exactly: one branch's channels,
        # or a shape the products would broadcast, is refused
        bs = [randt((1, 2, 3, 3)) for _ in range(2)]
        with pytest.raises(ShapeError, match="input shape"):
            T.branch_softmax(bs, randt(shape))


def bad_identity(x):
    """Identity whose backward wrongly sums the gradient per channel."""
    return T._record([x], x.data.copy(),
                     lambda g: (g.sum(axis=(0, 2, 3), keepdims=True),))


class TestBackward:
    def test_sum_gives_ones(self):
        x = randt((2, 3, 4, 4), seed=15)
        x.requires_grad = True
        with Tape() as tape:
            loss = T.tsum(x)
        T.backward(tape, loss)
        np.testing.assert_array_equal(x.grad, np.ones_like(x.data))

    def test_half_square_gives_input(self):
        x = randt((1, 2, 3, 3), seed=16)
        x.requires_grad = True
        half = Tensor(np.full_like(x.data, 0.5))
        with Tape() as tape:
            loss = T.tsum(T.mul(T.mul(x, x), half))
        T.backward(tape, loss)
        np.testing.assert_allclose(x.grad, x.data, rtol=1e-12)

    def test_empty_tape_zero_grads(self):
        x = randt((1, 1, 2, 2))
        x.requires_grad = True
        tape = Tape()
        loss = Tensor(np.asarray(0.0))
        T.backward(tape, loss)
        assert x.grad is None  # never touched by the tape

    def test_non_scalar_loss_rejected(self):
        x = randt((1, 1, 2, 2))
        x.requires_grad = True
        with Tape() as tape:
            y = T.sigmoid(x)
        with pytest.raises(ContractError):
            T.backward(tape, y)

    def test_loss_off_tape_rejected(self):
        x = randt((1, 1, 2, 2))
        x.requires_grad = True
        with Tape() as tape:
            T.tsum(x)
        stray = Tensor(np.asarray(1.0))
        with pytest.raises(ContractError):
            T.backward(tape, stray)

    def test_only_leaves_get_gradients(self):
        # h = x*x is produced on the tape, so it keeps grad None; a zero
        # there would be wrong (dLoss/dh = 1)
        x = randt((1, 2, 3, 3), seed=22)
        x.requires_grad = True
        with Tape() as tape:
            h = T.mul(x, x)
            loss = T.tsum(h)
        T.backward(tape, loss)
        assert h.grad is None
        np.testing.assert_array_equal(x.grad, 2 * x.data)

    def test_non_grad_input_keeps_no_gradient(self):
        x = randt((1, 2, 3, 3), seed=23)
        x.requires_grad = True
        c = randt((1, 2, 3, 3), seed=24)
        with Tape() as tape:
            loss = T.tsum(T.mul(x, c))
        T.backward(tape, loss)
        assert c.grad is None
        np.testing.assert_array_equal(x.grad, c.data)

    def test_backward_consumes_tape(self):
        x = randt((1, 2, 3, 3), seed=25)
        x.requires_grad = True
        with Tape() as tape:
            h = T.mul(x, x)
            loss = T.tsum(T.sigmoid(h))
        # the intermediate's buffer is held by the tape alone
        alive = weakref.ref(h.data)
        del h
        T.backward(tape, loss)
        assert tape.nodes == []
        assert alive() is None

    def test_second_backward_leaves_gradients(self):
        x = randt((1, 2, 3, 3), seed=28)
        w = randt((2, 2, 3, 3), seed=29)
        x.requires_grad = w.requires_grad = True
        with Tape() as tape:
            loss = T.tsum(T.conv2d(x, w))
        T.backward(tape, loss)
        first = [x.grad, w.grad]
        copies = [g.copy() for g in first]
        T.backward(tape, loss)
        for t, g, copy in zip((x, w), first, copies):
            assert t.grad is g
            np.testing.assert_array_equal(t.grad, copy)

    def test_unreachable_tensor_gets_zeros(self):
        x = randt((1, 1, 2, 2), seed=17)
        y = randt((1, 1, 2, 2), seed=18)
        x.requires_grad = True
        y.requires_grad = True
        with Tape() as tape:
            loss = T.tsum(x)
            T.tsum(y)  # on tape but not feeding the loss
        T.backward(tape, loss)
        np.testing.assert_array_equal(y.grad, np.zeros_like(y.data))

    def test_wrong_gradient_shape_names_the_op(self):
        # the per-channel sum would broadcast through acc + ig and give
        # x.grad[0, 0, 0, 0] == 33.0 instead of 2.0
        x = randt((2, 3, 4, 4), seed=30)
        x.requires_grad = True
        with Tape() as tape:
            loss = T.tsum(T.add(bad_identity(x), x))
        with pytest.raises(ContractError) as info:
            T.backward(tape, loss)
        assert str(info.value) == (
            "bad_identity backward returned a gradient of shape (1, 3, 1, 1) "
            "for an input of shape (2, 3, 4, 4)")
        assert x.grad is None

    def test_composite_matches_finite_differences(self):
        # batch of two: weight gradients contract over batch and positions
        x = randt((2, 2, 4, 4), seed=19)
        w = randt((3, 2, 3, 3), seed=20)
        b = randt((3,), seed=21)
        w1 = randt((2, 3, 1, 1), seed=26)
        b1 = randt((2,), seed=27)
        f = lambda: T.tsum(T.sigmoid(T.conv2d(T.conv2d(x, w, b), w1, b1)))
        rep = grad_check(f, [x, w, b, w1, b1])
        assert rep.passed, rep


class TestTapeNodes:
    """A node keeps what its backward reads: the node index of each input made
    on the recording, each leaf, the inputs' shapes and the closure."""

    @pytest.mark.parametrize("op", [lambda h: T.add(h, h), T.bilinear_upsample2x,
                                    T.replicate_pad1, T.blur_pool],
                             ids=["add", "bilinear_up", "replicate_pad", "blur_pool"])
    def test_unread_intermediates_freed_before_backward(self, op):
        x = randt((1, 2, 4, 4), seed=70)
        c = randt((1, 2, 4, 4), seed=71)
        x.requires_grad = True

        def run():
            with Tape() as tape:
                h = T.mul(x, c)  # reads x and c, not h
                y = op(h)        # reads neither h nor y
                loss = T.tsum(y)  # reads y's shape only
            return tape, loss, h, y

        tape, loss, h, y = run()
        assert all(ref is x or ref is None or isinstance(ref, int)
                   for refs, _, _ in tape.nodes for ref in refs)
        alive = [weakref.ref(h.data), weakref.ref(y.data)]
        del h, y
        assert [ref() for ref in alive] == [None, None]
        T.backward(tape, loss)
        freed = x.grad
        tape, loss, h, y = run()
        T.backward(tape, loss)
        np.testing.assert_array_equal(freed, x.grad)

    def test_tensor_of_an_earlier_recording_is_a_leaf(self):
        x = randt((1, 2, 3, 3), seed=72)
        c = randt((1, 2, 3, 3), seed=73)
        x.requires_grad = True
        with Tape() as tape:
            h = T.mul(x, x)
            loss = T.tsum(h)
        T.backward(tape, loss)
        first = x.grad
        # h was made by node 0 of the first recording; node 0 of the second
        # is mul(h, c), so routing h by its stale index would loop it back
        with tape:
            loss = T.tsum(T.mul(h, c))
        (refs, _, _), _ = tape.nodes
        assert refs[0] is h and refs[1] is None
        T.backward(tape, loss)
        np.testing.assert_array_equal(h.grad, c.data)
        assert x.grad is first

    def test_recorded_mrb_forward_holds_under_100_inputs(self):
        # float32, 3 streams, 2 columns, 1x8x32x32: the nodes held 164x the
        # input when each kept its input and output tensors, 86x since each
        # keeps what its backward reads, 85x since SKFF's select step is one
        # node, and 84x since each SKFF has one upscale conv; blur_pool as one
        # node (310 nodes, was 330) keeps it there
        mrb = init_weights(MRB(NetworkConfig(n_streams=3, n_columns=2, base_channels=8)))
        x = Tensor(np.random.default_rng(74).normal(0, 1, (1, 8, 32, 32)).astype(np.float32))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                mrb(x)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tape.nodes) == 310
        assert held < 100 * x.data.nbytes

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_skff_records_k_plus_4_nodes(self, k):
        # fuse: k - 1 adds, the pool, the downscale conv and its PReLU;
        # select: one upscale conv and one branch_softmax
        sk = init_weights(SKFF(8, k))
        bs = [Tensor(np.ones((1, 8, 4, 4), np.float32), requires_grad=True) for _ in range(k)]
        with Tape() as tape:
            sk(bs)
        assert len(tape.nodes) == k + 4

    @pytest.mark.parametrize("cfg,batch,nodes", [
        (RunConfig().network, 4, 89),
        # widths do not change the graph: the 64-channel reference network
        # records as many nodes
        (NetworkConfig(base_channels=8), 1, 1885),
    ], ids=["desk", "reference_topology"])
    def test_network_records_nodes(self, cfg, batch, nodes):
        # the network on a benchmark batch, loss included; traced training
        # runs stream their gradients past backward, where the benchmark
        # counts nodes, so the counts are pinned here
        net = MIRNet(cfg, seed=0)
        x = Tensor(np.random.default_rng(75).random((batch, 3, 32, 32), dtype=np.float32))
        with Tape() as tape:
            charbonnier_loss(net(x), Tensor(x.data.copy()))
        assert len(tape.nodes) == nodes


class TestGradients:
    """gradients(tape, loss) yields each leaf's gradient once the earliest
    node that names it has been replayed, and holds none it has yielded."""

    def test_leaf_yielded_after_its_earliest_node(self):
        x = randt((1, 2, 5, 5), seed=80)
        w = randt((2, 2, 3, 3), seed=81)
        b = randt((2,), seed=82)
        unused = randt((3,), seed=83)
        for t in (w, b, unused):
            t.requires_grad = True
        with Tape() as tape:
            h = T.conv2d(x, w, b)                          # node 0
            T.tsum(unused)                                 # node 1, off the loss
            h = T.conv2d(T.sigmoid(h), w, b)               # nodes 2, 3
            loss = T.tsum(T.sigmoid(h))                    # nodes 4, 5
        with Tape() as twin:
            expected = T.tsum(T.sigmoid(T.conv2d(T.sigmoid(T.conv2d(x, w, b)), w, b)))
        T.backward(twin, expected)
        twin_grads = {id(t): t.grad for t in (w, b)}

        stream, held = [], []
        for t, g in T.gradients(tape, loss):
            # the gradient yielded before this one was dropped by this loop
            assert all(ref() is None for ref in held)
            stream.append((t, len(tape.nodes)))
            if t is unused:
                np.testing.assert_array_equal(g, np.zeros(3))
            else:
                np.testing.assert_array_equal(g, twin_grads[id(t)])
            held = [weakref.ref(g)]
            del g
        assert stream == [(unused, 1), (w, 0), (b, 0)]

    def test_leaf_named_twice_by_one_node_yielded_once(self):
        w = randt((2, 3), seed=84)
        w.requires_grad = True
        with Tape() as tape:
            loss = T.tsum(T.mul(w, w))
        (t, g), = T.gradients(tape, loss)
        assert t is w
        np.testing.assert_array_equal(g, 2 * w.data)

    def test_gradients_set_no_grad(self):
        w = randt((2, 3), seed=85)
        w.requires_grad = True
        with Tape() as tape:
            loss = T.tsum(T.sigmoid(w))
        assert [t for t, _ in T.gradients(tape, loss)] == [w]
        assert w.grad is None and tape.nodes == []


@pytest.mark.parametrize("op", [
    T.sigmoid, T.global_avg_pool, T.channel_pool, T.bilinear_upsample2x,
    T.replicate_pad1, blur_pool],
    ids=["sigmoid", "gap", "channel_pool", "bilinear_up", "replicate_pad",
         "blur_pool"])
@pytest.mark.parametrize("seed", range(3))
def test_op_gradients_small_shapes(op, seed):
    x = randt((1, 3, 5, 6), seed=seed)
    rep = grad_check(lambda: T.tsum(T.sigmoid(op(x))), [x])
    assert rep.passed, rep


@pytest.mark.parametrize("data", [np.arange(3), np.ones(2, np.float16), True],
                         ids=["int64", "float16", "bool"])
def test_tensor_takes_float32_or_float64_only(data):
    with pytest.raises(ContractError) as info:
        Tensor(data)
    assert str(info.value) == (
        f"tensor data must be float32 or float64, got {np.asarray(data).dtype}")


# name -> (the call, the exact ShapeError message)
INPUT_GUARDS = {
    "conv2d_3d_input": (lambda: T.conv2d(randt((2, 4, 4)), randt((3, 2, 3, 3))),
                        "conv2d expects 4-D input and weight"),
    "conv2d_bias_length": (
        lambda: T.conv2d(randt((1, 2, 4, 4)), randt((3, 2, 3, 3)), randt((2,))),
        "bias shape (2,) != (3,)"),
    "prelu_3d_input": (lambda: T.prelu(randt((2, 4, 4)), randt((1,))),
                       "expected NCHW input, got (2, 4, 4)"),
    "gap_3d_input": (lambda: T.global_avg_pool(randt((2, 4, 4))),
                     "expected NCHW input, got (2, 4, 4)"),
}


@pytest.mark.parametrize("call, message", INPUT_GUARDS.values(),
                         ids=INPUT_GUARDS.keys())
def test_input_guard_messages(call, message):
    with pytest.raises(ShapeError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("shape", [(3,), (0,), (1, 1, 2, 1)])
def test_item_of_a_non_scalar_rejected(shape):
    with pytest.raises(ContractError) as info:
        Tensor(np.zeros(shape)).item()
    assert str(info.value) == f"item() needs one element, got shape {shape}"


def test_item_of_one_element():
    assert Tensor(np.full((1, 1, 1, 1), 0.1, np.float32)).item() == float(np.float32(0.1))


class TestGradCheck:
    def test_linear_function_exact(self):
        x = randt((1, 2, 3, 3), seed=22)
        rep = grad_check(lambda: T.tsum(x), [x])
        assert rep.passed
        assert rep.max_abs_err < 1e-10

    def test_corrupted_backward_fails(self):
        x = randt((1, 1, 3, 3), seed=23)
        for rule in (lambda g: 2.0 * g, lambda g: g * np.nan):

            def corrupted_grad(t):
                return T._record([t], t.data.copy(), lambda g: (rule(g),))

            rep = grad_check(lambda: T.tsum(T.sigmoid(corrupted_grad(x))), [x])
            assert not rep.passed, rep

    def test_non_scalar_rejected(self):
        x = randt((1, 1, 2, 2))
        with pytest.raises(ContractError):
            grad_check(lambda: T.sigmoid(x), [x])

    def test_bad_arguments_rejected_before_f_runs(self):
        calls = []

        def f():
            calls.append(1)
            return T.tsum(x)

        x = randt((1, 1, 2, 2))
        for wrt, kwargs, message in [
                ([x], dict(max_coords=0), "max_coords must be >= 1"),
                ([x], dict(max_coords=-1), "max_coords must be >= 1"),
                (x, {}, "wrt must be a list of tensors, got Tensor")]:
            with pytest.raises(ContractError, match=message):
                grad_check(f, wrt, **kwargs)
        assert calls == []

    def test_max_coords_picks_the_deep_stencils(self):
        # f = |x| at x = 5e-6: STEP (1e-5) straddles the kink, so the full
        # check reads rel err 0.5; a subsampled check retries the coordinate
        # with the deep fallbacks, whose (1e-6, 2) stencil stays on one side
        x = Tensor(np.full((1, 1, 1, 1), 5e-6))
        slope = Tensor(np.array([-1.0]))
        f = lambda: T.tsum(T.prelu(x, slope))
        full = grad_check(f, [x])
        assert not full.passed
        assert full.max_rel_err == pytest.approx(0.5)
        assert grad_check(f, [x], max_coords=1).passed


class TestBilinearUpsample:
    def test_shape(self):
        assert T.bilinear_upsample2x(randt((1, 2, 3, 5))).shape == (1, 2, 6, 10)

    def test_constant_preserved(self):
        out = T.bilinear_upsample2x(Tensor(np.full((1, 1, 4, 4), 3.25)))
        np.testing.assert_allclose(out.data, 3.25, rtol=1e-15)

    def test_linear_ramp_interior(self):
        # Half-pixel bilinear reproduces linear ramps away from clamped edges.
        ramp = np.arange(8.0)[None, None, None, :] * np.ones((1, 1, 4, 1))
        out = T.bilinear_upsample2x(Tensor(ramp)).data[0, 0, 2]
        expected = (np.arange(16) + 0.5) / 2.0 - 0.5
        np.testing.assert_allclose(out[1:-1], expected[1:-1], rtol=1e-12)

    @pytest.mark.parametrize("shape", [(1, 2, 1, 1), (2, 3, 1, 2), (1, 2, 5, 7)])
    def test_matches_loop_oracle(self, shape):
        x = randt(shape, seed=28)
        np.testing.assert_allclose(T.bilinear_upsample2x(x).data,
                                   upsample2x_loops(x.data), rtol=0, atol=1e-12)

    def test_float32_stays_float32(self):
        out = T.bilinear_upsample2x(randt((1, 2, 3, 4), dtype=np.float32))
        assert out.data.dtype == np.float32


class TestReplicatePad:
    def test_edges_replicated(self):
        x = randt((1, 2, 3, 4), seed=29)
        out = T.replicate_pad1(x).data
        assert out.shape == (1, 2, 5, 6)
        np.testing.assert_array_equal(out[:, :, 1:-1, 1:-1], x.data)
        np.testing.assert_array_equal(out[:, :, 0, 1:-1], x.data[:, :, 0])
        np.testing.assert_array_equal(out[:, :, 1:-1, -1], x.data[:, :, :, -1])
        assert out[0, 1, 0, 0] == x.data[0, 1, 0, 0]
        assert out[0, 1, -1, -1] == x.data[0, 1, -1, -1]

    def test_extent_one_gradient(self):
        # every padded copy of a 1x1 plane folds back onto it
        x = Tensor(np.ones((1, 1, 1, 1)), requires_grad=True)
        with Tape() as tape:
            loss = T.tsum(T.replicate_pad1(x))
        T.backward(tape, loss)
        assert x.grad[0, 0, 0, 0] == 9.0


# SHA-256 of each resampling op's float32 output on randt(shape, seed=100 + i,
# dtype=np.float32) for the i-th shape, recorded before the ops were
# rewritten as tap tables: every forward stays bit-identical
RESAMPLE_SHAPES = [(1, 2, 1, 1), (1, 2, 1, 2), (2, 3, 2, 9), (1, 2, 5, 7), (1, 3, 8, 6), (1, 2, 16, 16)]
RESAMPLE_DIGESTS = {
    "blur_pool": [
        "3a9ea6d6d2e3351e2770ac0e082cbbb9eeb211a97d3c7eb9a69a53116817431e",
        "5bfabfd6fd69062436af48f73bf6f50d67131a3413221a7d245f85c2f39f77a5",
        "317b8a948fcce7dccadac1ee3ba4eb18d9783bea59417d291a0f434f2bacc623",
        "86b0499a3292b6b11a4f4597fc668eeaa13b152cfdaefbdb806fdead31e5b592",
        "64aad72ea81fd00fe993d82ac061d62fabf916ff6e7b7b93a76ef6b4e45fc3fb",
        "53b41b01df9f2ba9779da06f4d38a3d653e52584930c70ac3dbc25fa3e8803d3",
    ],
    "bilinear_upsample2x": [
        "14eb09c64a7c9cfa1c354433b623976b6240f7e564f1f88c498d5c7221a42274",
        "61834f7cffc8828ad7d57e9fa982279541b7a490060bdd52d09fd18baeeb3eb5",
        "57dabfce4416be282681c04f2a3bf377568efd2a15aa2e7563bbace2f9a1c6be",
        "bdb86ae1bffdb039b9c740303760ef2a1010fe70ade0b0b6b9a342d5d6dee38b",
        "0b27f1fc97dc5b4b455fc64f91f5d2874045adc9780fa074dce17ace1f02b6f5",
        "d3f9f4ed2062c62ce01ebdbcc820fe031ef9063909b9433aa793046086139a92",
    ],
    "replicate_pad1": [
        "a71d0ba7a13a6e78f16ff212e6f762464ddb35027a7fda1f711b3793da73414b",
        "7a1f2cc8deea3ce1cc5bcfb69f432e3943153057a50350c2d0b857e15837b890",
        "98417255eca1b4f20488e216edc7ef5f7c0d5c84b858c4bf72358997a58b5313",
        "b80467304686ddd45da660b2d94b116c5f7d19d803b33fdc6358099da2512204",
        "9ec3f51c6209d37405a1c15c0b20497e86e1cf0200ef6cd2bae707e353e6251e",
        "8ca731b1de26e2d0d8c0f6a8cac7178accec4e136eb7c76dc2e11764289d6374",
    ],
}
RESAMPLE_OPS = {"blur_pool": T.blur_pool, "bilinear_upsample2x": T.bilinear_upsample2x,
                "replicate_pad1": T.replicate_pad1}


class TestResampling:
    """The three resampling ops are tap tables run along H and W; their
    backwards run the same tables with each tap's slices swapped."""

    @pytest.mark.parametrize("name", RESAMPLE_OPS)
    def test_forward_digests_pinned(self, name):
        for i, (shape, digest) in enumerate(zip(RESAMPLE_SHAPES, RESAMPLE_DIGESTS[name])):
            out = RESAMPLE_OPS[name](randt(shape, seed=100 + i, dtype=np.float32)).data
            assert out.dtype == np.float32
            assert hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest() == digest, shape

    @pytest.mark.parametrize("name", RESAMPLE_OPS)
    def test_backward_is_the_adjoint(self, name):
        # <op(x), g> == <x, backward(g)>; extents 1 and 2 give the empty and
        # one-entry slices that the gradient checks (4x4 to 6x6) never reach
        op = RESAMPLE_OPS[name]
        for h in range(1, 10):
            for w in range(1, 10):
                x = randt((2, 3, h, w), seed=10 * h + w)
                x.requires_grad = True
                with Tape() as tape:
                    y = op(x)
                    g = randt(y.shape, seed=100 + 10 * h + w)
                    loss = T.tsum(T.mul(y, g))
                T.backward(tape, loss)
                assert np.vdot(x.data, x.grad) == pytest.approx(
                    np.vdot(y.data, g.data), rel=1e-12), (h, w)


def test_determinism_same_seed_bit_identical():
    def run():
        x = randt((2, 3, 8, 8), seed=24, dtype=np.float32)
        w = randt((4, 3, 3, 3), seed=25, dtype=np.float32)
        return T.sigmoid(T.conv2d(x, w)).data
    a, b = run(), run()
    assert a.tobytes() == b.tobytes()
