"""Block-level tests: fusion, attention, resizing, and the assembled network.

Parameter counts are checked against a closed-form oracle derived directly
from the layer dimension formulas, independent of the Module tree walk.
Forward values are checked against straight-line numpy re-implementations.
"""

import hashlib

import numpy as np
import pytest

from mirnet_forge import blocks
from mirnet_forge import tensor as T
from mirnet_forge.blocks import (
    DAU, MRB, RRG, SKFF, ChannelAttention, ConcatFusion, Conv2d, MIRNet,
    NetworkConfig, PReLU, ResizeChain, ResizeDown, ResizeUp, SpatialAttention,
    SumFusion, blur_pool, bottleneck_width, count_parameters, init_weights)
from mirnet_forge.checkpoint import save_checkpoint
from mirnet_forge.config import RunConfig
from mirnet_forge.pipeline import aggregation_report
from mirnet_forge.tensor import ContractError, ShapeError, Tensor

from oracles import (blur_pool_loops, channel_pool_loops, conv2d_loops,
                     sigmoid_loops)

RNG = np.random.default_rng


# ---------------------------------------------------------------------------
# closed-form parameter-count oracle


def _conv_n(i, o, k, bias=True):
    return o * i * k * k + (o if bias else 0)


def _btl(c):
    return max(c // 8, 4)


def _skff_n(c, k):
    if k < 2:
        return 0
    r = _btl(c)
    return c * r + k * r * c + 1


def _ca_n(c):
    m = _btl(c)
    return _conv_n(c, m, 1) + m + _conv_n(m, c, 1)


def _dau_n(c):
    return (_conv_n(c, c, 3) + c + _conv_n(c, c, 3)
            + _ca_n(c) + _conv_n(2, 1, 5) + _conv_n(2 * c, c, 1))


def _down_n(c):
    return (_conv_n(c, c, 1) + c + _conv_n(c, c, 3)
            + _conv_n(c, 2 * c, 1) + _conv_n(c, 2 * c, 1))


def _up_n(c):
    return (_conv_n(c, c, 1) + c + _conv_n(c, c, 3)
            + _conv_n(c, c // 2, 1) + _conv_n(c, c // 2, 1))


def _chain_n(src, dst, base):
    if src < dst:
        return sum(_down_n(base << s) for s in range(src, dst))
    return sum(_up_n(base << s) for s in range(src, dst, -1))


def _mrb_n(cfg):
    c, s_count = cfg.base_channels, cfg.n_streams
    total = sum(_chain_n(0, s, c) for s in range(s_count))
    for _ in range(cfg.n_columns):
        total += sum(_dau_n(c << s) for s in range(s_count))
        for dst in range(s_count):
            total += sum(_chain_n(src, dst, c) for src in range(s_count))
            total += _skff_n(c << dst, s_count)
    total += sum(_chain_n(s, 0, c) for s in range(s_count))
    return total + _skff_n(c, s_count) + _conv_n(c, c, 3)


def _network_n(cfg):
    c = cfg.base_channels
    rrg = _conv_n(c, c, 3) + cfg.mrb_per_rrg * _mrb_n(cfg) + _conv_n(c, c, 3)
    # RGB in, RGB out
    return _conv_n(3, c, 3) + cfg.n_rrg * rrg + _conv_n(c, 3, 3)


# ---------------------------------------------------------------------------
# SKFF


class TestSKFF:
    def test_param_count_reference_width(self):
        # C=64, r=8, three branches: 64*8 + 3*8*64 + 1
        _, total = count_parameters(SKFF(64, 3))
        assert total == 2049

    @pytest.mark.parametrize("c,k", [(8, 2), (16, 3), (64, 2), (128, 3)])
    def test_param_count_formula(self, c, k):
        _, total = count_parameters(SKFF(c, k))
        assert total == _skff_n(c, k)

    def test_single_branch_is_identity(self):
        sk = SKFF(8, 1)
        assert count_parameters(sk)[1] == 0
        x = Tensor(RNG(0).normal(size=(1, 8, 4, 4)).astype(np.float32))
        assert sk([x]) is x

    def test_zero_branches_give_zero(self):
        sk = init_weights(SKFF(8, 3), dtype=np.float64)
        z = [Tensor(np.zeros((2, 8, 4, 4))) for _ in range(3)]
        assert np.all(sk(z).data == 0.0)

    def test_identical_branches_with_tied_weights_return_input(self):
        # Equal logits give equal softmax weights; the convex recombination
        # of k identical branches is the branch itself up to rounding in the
        # 1/k weights.
        sk = init_weights(SKFF(8, 3), 3, np.float64)
        for up in sk.upscale[1:]:
            up.weight.data[:] = sk.upscale[0].weight.data
        x = Tensor(RNG(4).normal(size=(1, 8, 6, 6)))
        out = sk([x, x, x])
        assert np.allclose(out.data, x.data, rtol=0, atol=1e-12)

    def test_numpy_oracle(self):
        c, k = 8, 3
        sk = init_weights(SKFF(c, k), 5, np.float64)
        branches = [Tensor(RNG(10 + i).normal(size=(2, c, 4, 4)))
                    for i in range(k)]
        out = sk(branches)

        total = sum(b.data for b in branches)
        pooled = total.mean(axis=(2, 3), keepdims=True)
        w1 = sk.downscale.weight.data[:, :, 0, 0]
        z = np.einsum("rc,ncij->nrij", w1, pooled)
        slope = float(sk.act.slope.data[0])
        z = np.where(z > 0, z, slope * z)
        logits = np.stack([
            np.einsum("cr,nrij->ncij", up.weight.data[:, :, 0, 0], z)
            for up in sk.upscale])
        e = np.exp(logits - logits.max(axis=0))
        weights = e / e.sum(axis=0)
        expected = sum(w * b.data for w, b in zip(weights, branches))
        assert np.allclose(out.data, expected, rtol=0, atol=1e-12)

    def test_branch_count_mismatch_rejected(self):
        sk = SKFF(8, 3)
        x = Tensor(np.zeros((1, 8, 4, 4), dtype=np.float32))
        with pytest.raises(ContractError):
            sk([x, x])

    def test_branch_shape_mismatch_rejected(self):
        sk = SKFF(8, 2)
        a = Tensor(np.zeros((1, 8, 4, 4), dtype=np.float32))
        b = Tensor(np.zeros((1, 8, 2, 2), dtype=np.float32))
        with pytest.raises(ShapeError):
            sk([a, b])


# ---------------------------------------------------------------------------
# attention


class TestChannelAttention:
    def test_zero_weights_halve_input(self):
        # All-zero gating convs give sigmoid(0) = 0.5 on every channel.
        ca = init_weights(ChannelAttention(8), dtype=np.float64)
        ca.conv1.weight.data[:] = 0
        ca.conv2.weight.data[:] = 0
        m = Tensor(RNG(0).normal(size=(2, 8, 4, 4)))
        assert np.array_equal(ca(m).data, 0.5 * m.data)

    def test_numpy_oracle(self):
        c = 8
        ca = init_weights(ChannelAttention(c), 7, np.float64)
        m = Tensor(RNG(8).normal(size=(2, c, 5, 5)))
        out = ca(m)

        pooled = m.data.mean(axis=(2, 3))
        w1 = ca.conv1.weight.data[:, :, 0, 0]
        z = pooled @ w1.T + ca.conv1.bias.data
        z = np.where(z > 0, z, ca.act.slope.data * z)
        w2 = ca.conv2.weight.data[:, :, 0, 0]
        gate = 1.0 / (1.0 + np.exp(-(z @ w2.T + ca.conv2.bias.data)))
        expected = m.data * gate[:, :, None, None]
        assert np.allclose(out.data, expected, rtol=0, atol=1e-12)

    def test_bottleneck_floor(self):
        assert bottleneck_width(64) == 8
        assert bottleneck_width(16) == 4
        assert bottleneck_width(8) == 4


class TestSpatialAttention:
    def test_numpy_oracle(self):
        sa = init_weights(SpatialAttention(), 9, np.float64)
        m = Tensor(RNG(10).normal(size=(1, 6, 7, 7)))
        out = sa(m)

        pooled = channel_pool_loops(m.data)
        conv = conv2d_loops(pooled, sa.conv.weight.data,
                            sa.conv.bias.data, padding=2)
        expected = m.data * sigmoid_loops(conv)
        assert np.allclose(out.data, expected, rtol=0, atol=1e-10)

    def test_gate_bounded(self):
        sa = init_weights(SpatialAttention(), 11)
        m = Tensor(RNG(12).normal(size=(1, 4, 6, 6)).astype(np.float32) * 10)
        out = sa(m).data
        assert np.all(np.abs(out) <= np.abs(m.data) + 1e-6)


class TestDAU:
    def test_zero_merge_is_identity(self):
        dau = init_weights(DAU(8), 0, np.float64)
        dau.merge.weight.data[:] = 0
        dau.merge.bias.data[:] = 0
        x = Tensor(RNG(1).normal(size=(1, 8, 6, 6)))
        assert np.array_equal(dau(x).data, x.data)

    def test_numpy_oracle(self):
        c = 6
        dau = init_weights(DAU(c), 13, np.float64)
        x = Tensor(RNG(14).normal(size=(1, c, 6, 6)))
        out = dau(x)

        h = conv2d_loops(x.data, dau.conv1.weight.data,
                         dau.conv1.bias.data, padding=1)
        h = np.where(h > 0, h, dau.act.slope.data[None, :, None, None] * h)
        m = conv2d_loops(h, dau.conv2.weight.data,
                         dau.conv2.bias.data, padding=1)

        pooled = m.mean(axis=(2, 3))
        z = pooled @ dau.ca.conv1.weight.data[:, :, 0, 0].T + dau.ca.conv1.bias.data
        z = np.where(z > 0, z, dau.ca.act.slope.data * z)
        gate_c = 1.0 / (1.0 + np.exp(
            -(z @ dau.ca.conv2.weight.data[:, :, 0, 0].T + dau.ca.conv2.bias.data)))
        ca_out = m * gate_c[:, :, None, None]

        sp = conv2d_loops(channel_pool_loops(m), dau.sa.conv.weight.data,
                          dau.sa.conv.bias.data, padding=2)
        sa_out = m * sigmoid_loops(sp)

        cat = np.concatenate([ca_out, sa_out], axis=1)
        fused = conv2d_loops(cat, dau.merge.weight.data, dau.merge.bias.data)
        assert np.allclose(out.data, x.data + fused, rtol=0, atol=1e-10)

    def test_channel_mismatch_rejected(self):
        dau = DAU(8)
        with pytest.raises(ShapeError):
            dau(Tensor(np.zeros((1, 4, 6, 6), dtype=np.float32)))


# ---------------------------------------------------------------------------
# resizing


class TestBlurPool:
    @pytest.mark.parametrize("shape,out_hw", [
        ((1, 2, 5, 7), (3, 4)), ((2, 3, 1, 2), (1, 1)), ((1, 3, 8, 6), (4, 3))],
        ids=["odd_5x7", "extent_1x2", "even_8x6"])
    def test_matches_loop_oracle(self, shape, out_hw):
        x = Tensor(RNG(21).normal(size=shape))
        out = blur_pool(x).data
        assert out.shape == shape[:2] + out_hw
        np.testing.assert_allclose(out, blur_pool_loops(x.data), rtol=0, atol=1e-12)

    def test_constant_plane_preserved(self):
        x = Tensor(np.full((1, 2, 8, 8), 0.37))
        out = blur_pool(x)
        assert out.data.shape == (1, 2, 4, 4)
        assert np.allclose(out.data, 0.37, rtol=1e-14, atol=0)

    def test_shift_equivariance_exact_on_interior(self):
        h = w = 16
        big = RNG(20).normal(size=(1, 2, h + 2, w + 2))
        a = Tensor(big[:, :, :h, :w].copy())
        b = Tensor(big[:, :, 2:, 2:].copy())
        out_a = blur_pool(a).data
        out_b = blur_pool(b).data
        # 2 px input shift = 1 px output shift, bitwise on the interior
        assert np.array_equal(out_b[:, :, 1:-1, 1:-1], out_a[:, :, 2:, 2:])


class TestResize:
    def test_down_shape(self):
        rd = init_weights(ResizeDown(8), 0)
        x = Tensor(RNG(1).normal(size=(2, 8, 8, 12)).astype(np.float32))
        assert rd(x).data.shape == (2, 16, 4, 6)

    def test_up_shape(self):
        ru = init_weights(ResizeUp(8), 0)
        x = Tensor(RNG(1).normal(size=(2, 8, 4, 6)).astype(np.float32))
        assert ru(x).data.shape == (2, 4, 8, 12)

    def test_down_rejects_odd_extents(self):
        rd = ResizeDown(8)
        with pytest.raises(ShapeError):
            rd(Tensor(np.zeros((1, 8, 7, 8), dtype=np.float32)))

    def test_up_rejects_odd_channels(self):
        with pytest.raises(ContractError):
            ResizeUp(7)

    def test_chain_round_trip_shapes(self):
        down = init_weights(ResizeChain(0, 2, 8), 2)
        up = init_weights(ResizeChain(2, 0, 8), 3)
        x = Tensor(RNG(4).normal(size=(1, 8, 16, 16)).astype(np.float32))
        y = down(x)
        assert y.data.shape == (1, 32, 4, 4)
        assert up(y).data.shape == (1, 8, 16, 16)

    def test_chain_identity_when_src_equals_dst(self):
        chain = ResizeChain(1, 1, 8)
        x = Tensor(RNG(5).normal(size=(1, 16, 4, 4)).astype(np.float32))
        assert chain(x) is x

    @pytest.mark.parametrize("c", [8, 16])
    def test_param_counts(self, c):
        assert count_parameters(ResizeDown(c))[1] == _down_n(c)
        assert count_parameters(ResizeUp(c))[1] == _up_n(c)


# ---------------------------------------------------------------------------
# assembled blocks


def _small_cfg(**kw):
    base = dict(n_rrg=1, mrb_per_rrg=1, n_streams=2, n_columns=1,
                base_channels=8)
    base.update(kw)
    return NetworkConfig(**base)


class TestMRB:
    def test_shape_preserved(self):
        mrb = init_weights(MRB(_small_cfg()), 0)
        x = Tensor(RNG(1).normal(size=(2, 8, 8, 8)).astype(np.float32))
        assert mrb(x).data.shape == x.data.shape

    def test_zero_output_conv_is_identity(self):
        mrb = init_weights(MRB(_small_cfg()), 2, np.float64)
        mrb.conv_out.weight.data[:] = 0
        mrb.conv_out.bias.data[:] = 0
        x = Tensor(RNG(3).normal(size=(1, 8, 8, 8)))
        assert np.array_equal(mrb(x).data, x.data)

    def test_divisibility_enforced(self):
        mrb = init_weights(MRB(_small_cfg(n_streams=3)))
        with pytest.raises(ShapeError):
            mrb(Tensor(np.zeros((1, 8, 6, 8), dtype=np.float32)))

    def test_single_stream_degenerates_to_dau(self):
        # With one stream there is nothing to fuse: the block reduces to
        # x + conv(DAU(x)).
        mrb = init_weights(MRB(_small_cfg(n_streams=1)), 4, np.float64)
        x = Tensor(RNG(5).normal(size=(1, 8, 6, 6)))
        direct = T.add(x, mrb.conv_out(mrb.col[0].dau[0](x)))
        assert np.array_equal(mrb(x).data, direct.data)

    @pytest.mark.parametrize("streams,cols", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_param_count_formula(self, streams, cols):
        cfg = _small_cfg(n_streams=streams, n_columns=cols)
        assert count_parameters(MRB(cfg))[1] == _mrb_n(cfg)


class TestRRGAndNetwork:
    def test_rrg_zero_output_conv_is_identity(self):
        rrg = init_weights(RRG(_small_cfg()), 0, np.float64)
        rrg.conv_out.weight.data[:] = 0
        rrg.conv_out.bias.data[:] = 0
        x = Tensor(RNG(1).normal(size=(1, 8, 8, 8)))
        assert np.array_equal(rrg(x).data, x.data)

    def test_network_zero_tail_is_identity(self):
        net = MIRNet(_small_cfg(), dtype=np.float64, seed=0)
        net.tail.weight.data[:] = 0
        net.tail.bias.data[:] = 0
        x = Tensor(RNG(2).normal(size=(1, 3, 8, 8)))
        assert np.array_equal(net(x).data, x.data)

    def test_network_shape(self):
        net = MIRNet(_small_cfg(n_streams=3), seed=1)
        x = Tensor(RNG(3).normal(size=(2, 3, 16, 16)).astype(np.float32))
        assert net(x).data.shape == (2, 3, 16, 16)

    def test_network_rejects_bad_channels(self):
        net = MIRNet(_small_cfg(), seed=0)
        with pytest.raises(ShapeError):
            net(Tensor(np.zeros((1, 4, 8, 8), dtype=np.float32)))

    def test_network_rejects_indivisible_extents(self):
        net = MIRNet(_small_cfg(n_streams=3), seed=0)
        with pytest.raises(ShapeError):
            net(Tensor(np.zeros((1, 3, 10, 8), dtype=np.float32)))

    @pytest.mark.parametrize("cfg", [
        _small_cfg(),
        _small_cfg(n_rrg=2, mrb_per_rrg=2),
        _small_cfg(n_streams=3, n_columns=2),
        NetworkConfig(),
    ])
    def test_param_count_formula(self, cfg):
        net, bare = MIRNet(cfg, seed=0), MIRNet(cfg, seed=None)
        total = count_parameters(net)[1]
        assert total == _network_n(cfg)
        # a build that draws nothing has the same names, shapes and count
        shapes = lambda m: {n: p.data.shape for n, p in m.named_parameters().items()}
        assert list(shapes(bare).items()) == list(shapes(net).items())
        assert count_parameters(bare)[1] == total
        # drawing into it gives the seeded network, parameter by parameter
        drawn = init_weights(bare).named_parameters()
        for name, p in net.named_parameters().items():
            assert drawn[name].data.dtype == p.data.dtype == np.float32
            assert np.array_equal(drawn[name].data, p.data), name
        if cfg == NetworkConfig():
            # the reference network: resize chains hold 37,152,768 (62.9%)
            # of its parameters, the DAUs 20,931,948 (35.4%)
            assert total == 59_059_801

    # frozen SHA-256 of the saved checkpoint bytes: a change to the draw
    # order, the bound or the dtype cast shows here
    @pytest.mark.parametrize("cfg,seed,digest", [
        (RunConfig().network, 3,
         "ed1ab7756dc3de8b09fb77df4a477001218156681693adaad347694773656874"),
        (_small_cfg(n_streams=3, n_columns=2), 11,
         "80d9dbcf807ef75597f465ee8c5b56e081e4235f7565dc06f2d57ea5e9e08916"),
    ], ids=["desk_seed3", "3streams_2columns_seed11"])
    def test_seeded_draw_is_pinned(self, tmp_path, cfg, seed, digest):
        net = MIRNet(cfg, seed=seed)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, {n: p.data for n, p in net.named_parameters().items()})
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_parameter_naming(self):
        net = MIRNet(_small_cfg(), seed=0)
        names = net.named_parameters()
        assert "head.weight" in names
        assert "rrg0.mrb0.skff_final.downscale.weight" in names
        assert "rrg0.mrb0.col0.dau1.merge.bias" in names
        assert "tail.bias" in names

    def test_config_validation(self):
        with pytest.raises(ContractError):
            NetworkConfig(n_streams=0)
        with pytest.raises(ContractError):
            NetworkConfig(n_rrg=0)


# ---------------------------------------------------------------------------
# weight initialisation


class TestInitWeights:
    def test_constructors_draw_nothing(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a constructor drew random numbers")
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        cfg = _small_cfg(n_streams=3, n_columns=2)
        for build in (lambda: Conv2d(4, 8, 3), lambda: PReLU(4),
                      lambda: SKFF(8, 3), lambda: ChannelAttention(8),
                      SpatialAttention, lambda: DAU(8), lambda: ResizeDown(8),
                      lambda: ResizeUp(8), lambda: ResizeChain(2, 0, 8),
                      lambda: MRB(cfg), lambda: RRG(cfg),
                      lambda: ConcatFusion(8, 3), SumFusion,
                      lambda: MIRNet(cfg, seed=None)):
            dtypes = {p.data.dtype for p in build().named_parameters().values()}
            assert dtypes <= {np.dtype(np.float32)}
        aggregation_report()

    def test_float64_seeded_build_is_init_weights(self):
        cfg = _small_cfg(n_streams=3, n_columns=2)
        net = MIRNet(cfg, np.float64, seed=5)
        drawn = init_weights(MIRNet(cfg, seed=None), 5, np.float64).named_parameters()
        assert list(drawn) == list(net.named_parameters())
        for name, p in net.named_parameters().items():
            assert drawn[name].data.dtype == p.data.dtype == np.float64
            assert np.array_equal(drawn[name].data, p.data), name
        biases = [p.data for n, p in drawn.items() if n.endswith(".bias")]
        slopes = [p.data for n, p in drawn.items() if n.endswith(".slope")]
        assert biases and all(np.all(b == 0.0) for b in biases)
        assert slopes and all(np.all(s == 0.25) for s in slopes)

    def test_unseeded_build_keeps_dtype(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("an unseeded build drew random numbers")
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        cfg = _small_cfg(n_streams=3, n_columns=2)
        params = MIRNet(cfg, np.float64, seed=None).named_parameters()
        assert list(params) == list(MIRNet(cfg, seed=None).named_parameters())
        assert {p.data.dtype for p in params.values()} == {np.dtype(np.float64)}
        biases = [p.data for n, p in params.items() if n.endswith(".bias")]
        slopes = [p.data for n, p in params.items() if n.endswith(".slope")]
        assert biases and all(np.all(b == 0.0) for b in biases)
        assert slopes and all(np.all(s == 0.25) for s in slopes)
        # float32 is the checkpoint load path: no walk, no second allocation
        monkeypatch.setattr(blocks, "init_weights", no_draw)
        params = MIRNet(cfg, seed=None).named_parameters()
        assert {p.data.dtype for p in params.values()} == {np.dtype(np.float32)}


# ---------------------------------------------------------------------------
# alternative aggregations


class TestFusionVariants:
    def test_sum_fusion_has_no_parameters(self):
        assert count_parameters(SumFusion())[1] == 0

    def test_sum_fusion_value(self):
        sf = SumFusion()
        a = Tensor(RNG(0).normal(size=(1, 4, 3, 3)))
        b = Tensor(RNG(1).normal(size=(1, 4, 3, 3)))
        assert np.array_equal(sf([a, b]).data, a.data + b.data)

    def test_concat_fusion_reference_count(self):
        # 1x1 projection from 3*64 channels back to 64, bias-free
        assert count_parameters(ConcatFusion(64, 3))[1] == 12288

    def test_concat_fusion_shape(self):
        cf = init_weights(ConcatFusion(4, 3), 2)
        xs = [Tensor(RNG(i).normal(size=(1, 4, 3, 3)).astype(np.float32))
              for i in range(3)]
        assert cf(xs).data.shape == (1, 4, 3, 3)

    def test_selective_count_matches_skff(self):
        assert count_parameters(SKFF(64, 3))[1] == 2049
