"""Acceptance suite.

Each test prints one pass/fail line (run with -s to see them live).  The toy
training runs are shared through a module-scoped fixture; the full module
stays within a desk-scale CPU budget.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from mirnet_forge import blocks as B
from mirnet_forge import data as D
from mirnet_forge import metrics as M
from mirnet_forge import optim as O
from mirnet_forge import pipeline
from mirnet_forge import tensor as T
from mirnet_forge.blocks import NetworkConfig
from mirnet_forge.config import TrainConfig
from mirnet_forge.tensor import Tensor
from mirnet_forge.verify import run_gradcheck_suite

from oracles import psnr_loops, ssim_plane_loops

RNG = np.random.default_rng


def _report(num, desc, ok):
    print(f"\ncriterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num} failed: {desc}"


# ---------------------------------------------------------------------------
# toy denoising workspace (shared by criteria 9, 10, 11)


def make_texture(seed, size=128, n_waves=14, fmax=16.0):
    """Procedural color texture: random 2D sinusoids plus a nonlinear warp
    that spreads energy across frequencies, so restoration is not trivially
    solvable by a tiny model."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    img = np.zeros((size, size, 3))
    for _ in range(n_waves):
        fy, fx = rng.uniform(-fmax, fmax, 2) * 2 * np.pi / size
        amp = rng.uniform(0.3, 1.0)
        for c in range(3):
            phase = rng.uniform(0, 2 * np.pi) + c * rng.uniform(0, 1)
            img[:, :, c] += amp * np.sin(fy * yy + fx * xx + phase)
    img = img + 0.7 * np.sin(3.0 * img)
    lo, hi = img.min(), img.max()
    img = (img - lo) / (hi - lo) * 205.0 + 25.0
    return D.ImageBuffer(np.clip(np.floor(img + 0.5), 0, 255).astype(np.uint8))


TOY_CONFIG = """\
train.total_steps = 2000
train.batch = 4
train.patch_size = 32
train.lr_init = 0.001
train.seed = 1
train.checkpoint_every = 0
data.manifest = train.txt
data.noise_sigma = 25
"""


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy")
    train_names, test_names = [], []
    for i in range(16):
        name = f"tex_{i:02d}.ppm"
        D.save_ppm(make_texture(1000 + i), root / name)
        (train_names if i < 12 else test_names).append(name)
    (root / "train.txt").write_text("\n".join(train_names) + "\n")
    (root / "test.txt").write_text("\n".join(test_names) + "\n")
    (root / "config.txt").write_text(TOY_CONFIG)

    cfg = pipeline.load_config(str(root / "config.txt"))
    runs = {}
    started = time.time()
    for tag in ("a", "b"):
        _, ckpt = pipeline.run_training(cfg, root / tag)
        report = pipeline.run_eval(cfg, ckpt, str(root / "test.txt"))
        runs[tag] = {"ckpt": ckpt, "report": report}
    return {"root": root, "cfg": cfg, "runs": runs,
            "train_seconds": time.time() - started}


# ---------------------------------------------------------------------------


def test_criterion_01_gradient_correctness():
    started = time.time()
    reports = run_gradcheck_suite()
    elapsed = time.time() - started
    names = [r.name for r in reports]
    expected = {"conv", "prelu", "sigmoid", "gap", "channel_pool",
                "branch_softmax", "skff", "ca", "sa", "dau", "resize_down",
                "resize_up", "mrb", "rrg", "network", "charbonnier_mean",
                "charbonnier_norm"}
    ok = (expected <= set(names)
          and len(names) == len(set(names))
          and all(r.passed and r.max_rel_err <= 1e-4 for r in reports)
          and elapsed < 300.0)
    worst = max(r.max_rel_err for r in reports)
    _report(1, f"gradcheck suite: {len(reports)} blocks, worst rel err "
               f"{worst:.2e}, {elapsed:.0f}s", ok)


def test_criterion_02_aggregation_parameter_counts():
    _, n_sum = B.count_parameters(B.SumFusion())
    _, n_concat = B.count_parameters(B.ConcatFusion(64, 3))
    _, n_skff = B.count_parameters(B.SKFF(64, 3))
    ratio = n_concat / n_skff
    ok = (n_sum == 0 and n_concat == 12288
          and abs(n_skff - 2048) <= 1 and 5.5 <= ratio <= 6.5)
    _report(2, f"fusion counts sum={n_sum} concat={n_concat} "
               f"skff={n_skff} ratio={ratio:.3f}", ok)


def test_criterion_03_residual_identities():
    cfg = NetworkConfig(n_rrg=1, mrb_per_rrg=1, n_streams=2, n_columns=1,
                        base_channels=8)
    ok = True
    for seed in range(10):
        rng = RNG(seed)
        x = Tensor(rng.normal(size=(1, 8, 8, 8)).astype(np.float32))
        img = Tensor(rng.normal(size=(1, 3, 8, 8)).astype(np.float32))

        dau = B.init_weights(B.DAU(8), seed + 100)
        dau.merge.weight.data[:] = 0
        dau.merge.bias.data[:] = 0
        ok &= np.array_equal(dau(x).data, x.data)

        mrb = B.init_weights(B.MRB(cfg), seed + 100)
        mrb.conv_out.weight.data[:] = 0
        mrb.conv_out.bias.data[:] = 0
        ok &= np.array_equal(mrb(x).data, x.data)

        rrg = B.init_weights(B.RRG(cfg), seed + 100)
        rrg.conv_out.weight.data[:] = 0
        rrg.conv_out.bias.data[:] = 0
        ok &= np.array_equal(rrg(x).data, x.data)

        net = B.MIRNet(cfg, seed=seed)
        net.tail.weight.data[:] = 0
        net.tail.bias.data[:] = 0
        ok &= np.array_equal(net(img).data, img.data)
    _report(3, "zeroed residual convs give bit-equal outputs "
               "(DAU/MRB/RRG/network, 10 seeds)", ok)


def test_criterion_04_skff_algebra():
    c, k = 8, 3
    ok = True
    for seed in range(5):
        sk = B.init_weights(B.SKFF(c, k), seed, np.float64)
        branches = [Tensor(RNG(seed * 10 + i).normal(size=(2, c, 6, 6)))
                    for i in range(k)]
        out = sk(branches)

        # recompute the branch weights' sum from the module's own
        # descriptors: the select step applied to all-ones branches
        total = branches[0]
        for b in branches[1:]:
            total = T.add(total, b)
        z = sk.act(sk.downscale(T.global_avg_pool(total)))
        ones = Tensor(np.ones_like(branches[0].data))
        wsum = T.branch_softmax([ones] * k, [up(z) for up in sk.upscale]).data
        ok &= bool(np.all(np.abs(wsum - 1.0) <= 1e-6))

        stack = np.stack([b.data for b in branches])
        lo = stack.min(axis=0) - 1e-6
        hi = stack.max(axis=0) + 1e-6
        ok &= bool(np.all((out.data >= lo) & (out.data <= hi)))

        same = Tensor(RNG(seed + 40).normal(size=(1, c, 6, 6)))
        fused = sk([same, same, same])
        ok &= bool(np.allclose(fused.data, same.data, rtol=0, atol=1e-12))
    _report(4, "SKFF weights sum to 1, fused output convex, "
               "identical-input fusion returns input (atol 1e-12)", ok)


def test_criterion_05_blur_pool_shift_equivariance():
    ok = True
    for seed in range(10):
        big = RNG(seed).normal(size=(1, 3, 18, 18))
        a = Tensor(big[:, :, :16, :16].copy())
        b = Tensor(big[:, :, 2:, 2:].copy())
        out_a = B.blur_pool(a).data
        out_b = B.blur_pool(b).data
        ok &= np.array_equal(out_b[:, :, 1:-1, 1:-1], out_a[:, :, 2:, 2:])
    _report(5, "blur-pool 2 px input shift = 1 px output shift, exact "
               "on interior (10 images, double precision)", ok)


def test_criterion_06_schedule_endpoints():
    s = TrainConfig(lr_init=2e-4, lr_min=1e-6, total_steps=700_000)
    mid = O.cosine_lr(350_000, s)
    ok = (O.cosine_lr(0, s) == 2e-4
          and O.cosine_lr(700_000, s) == 1e-6
          and abs(mid - 1.005e-4) <= 1e-12)
    _report(6, f"cosine endpoints 2e-4 / 1e-6 exact, midpoint {mid:.6e}", ok)


def test_criterion_07_loss_anchor():
    x = Tensor(RNG(0).normal(size=(1, 3, 8, 8)).astype(np.float32),
               requires_grad=True)
    y = Tensor(x.data.copy())
    with T.Tape() as tape:
        loss = O.charbonnier_loss(x, y)
    T.backward(tape, loss)
    ok = (loss.data == np.float32(1e-3)
          and np.all(np.isfinite(x.grad))
          and np.all(x.grad == 0.0))
    _report(7, "charbonnier(pred=target) = 1e-3 exactly, zero finite "
               "gradient", ok)


def test_criterion_08_metrics_oracles():
    base = RNG(0).integers(0, 240, (16, 16, 3), dtype=np.uint8)
    offset = M.psnr(D.ImageBuffer(base), D.ImageBuffer(base + 16))
    a = D.ImageBuffer(RNG(1).integers(0, 256, (16, 16, 3), dtype=np.uint8))
    self_sim = M.ssim(a, D.ImageBuffer(a.pixels.copy()))
    c1 = (0.01 * 255.0) ** 2
    pair = M.ssim(D.ImageBuffer(np.full((16, 16, 3), 100, dtype=np.uint8)),
                  D.ImageBuffer(np.full((16, 16, 3), 50, dtype=np.uint8)))
    closed = (2.0 * 100 * 50 + c1) / (100.0 ** 2 + 50.0 ** 2 + c1)

    worst_psnr = worst_ssim = 0.0
    for seed in range(20):
        x = D.ImageBuffer(RNG(seed + 10).integers(0, 256, (14, 14, 3),
                                                  dtype=np.uint8))
        y = D.ImageBuffer(RNG(seed + 50).integers(0, 256, (14, 14, 3),
                                                  dtype=np.uint8))
        worst_psnr = max(worst_psnr,
                         abs(M.psnr(x, y) - psnr_loops(x.pixels, y.pixels)))
        ref = np.mean([ssim_plane_loops(x.pixels[..., c].astype(np.float64),
                                        y.pixels[..., c].astype(np.float64))
                       for c in range(3)])
        worst_ssim = max(worst_ssim, abs(M.ssim(x, y) - ref))

    ok = (abs(offset - 24.049) <= 0.001
          and self_sim == 1.0
          and abs(pair - 0.8002) <= 1e-3
          and abs(pair - closed) <= 1e-9
          and worst_psnr <= 1e-9 and worst_ssim <= 1e-6)
    _report(8, f"PSNR offset-16 {offset:.3f} dB, SSIM(a,a)={self_sim}, "
               f"constant pair {pair:.4f}; oracle gaps "
               f"{worst_psnr:.1e}/{worst_ssim:.1e}", ok)


def test_criterion_09_toy_denoising_gain(toy):
    report = toy["runs"]["a"]["report"]
    restored = report.aggregate[0]
    baseline = report.input_baseline[0]
    ok = (restored >= baseline + 3.0
          and toy["train_seconds"] < 1800.0)
    _report(9, f"toy denoising: restored {restored:.2f} dB vs noisy "
               f"{baseline:.2f} dB (gain {restored - baseline:.2f}), "
               f"{toy['train_seconds']:.0f}s for both runs", ok)


def test_criterion_10_layout_sweep(toy):
    cfg = toy["cfg"]
    results = {}
    for streams in (1, 2):
        cell = dataclasses.replace(
            cfg,
            network=dataclasses.replace(cfg.network, n_streams=streams,
                                        n_columns=1),
            train=dataclasses.replace(cfg.train, total_steps=1000))
        _, ckpt = pipeline.run_training(cell, toy["root"] / f"sweep_s{streams}")
        report = pipeline.run_eval(cell, ckpt, str(toy["root"] / "test.txt"))
        net = B.MIRNet(cell.network, seed=cell.train.seed)
        results[streams] = (report.aggregate[0],
                            B.count_parameters(net)[1])
    p1, n1 = results[1]
    p2, n2 = results[2]
    ok = (n2 > n1) and (p2 >= p1 - 0.1)
    _report(10, f"layout sweep: 2 streams {p2:.2f} dB/{n2} params vs "
                f"1 stream {p1:.2f} dB/{n1} params", ok)


def test_criterion_11_determinism(toy):
    a, b = toy["runs"]["a"], toy["runs"]["b"]
    ok = (a["ckpt"].read_bytes() == b["ckpt"].read_bytes()
          and a["report"] == b["report"])
    _report(11, "repeated run: byte-identical checkpoint and identical "
                "metric report", ok)
