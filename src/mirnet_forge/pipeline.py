"""The run lifecycle shared by the CLI, the demos and the tests: load a
configuration and a manifest, train, load a checkpoint, restore images and
score them.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np

from . import blocks as B
from . import data as D
from . import metrics as M
from . import optim as O
from . import tensor as T
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig, parse_config, render_config
from .tensor import Tensor


class NumericalError(RuntimeError):
    pass


def load_config(path: str) -> RunConfig:
    """Parse a config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    cfg = parse_config(text)
    # a relative manifest is taken relative to the config file itself, and
    # made absolute so that the echoed config reruns from any directory
    if cfg.data.manifest and not Path(cfg.data.manifest).is_absolute():
        cfg = dataclasses.replace(cfg, data=dataclasses.replace(
            cfg.data, manifest=str(Path(path).absolute().parent / cfg.data.manifest)))
    return cfg


def load_manifest(manifest_path: str) -> list[tuple[str, D.ImageBuffer]]:
    """Manifest: one clean-image path per line, relative to the manifest."""
    mpath = Path(manifest_path)
    try:
        text = mpath.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise D.ParseError(f"manifest {manifest_path} is not UTF-8: {exc}") from exc
    images = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        images.append((line, D.load_ppm(mpath.parent / line)))
    if not images:
        raise D.ParseError(f"manifest {manifest_path} lists no images")
    return images


def build_pairs(cfg: RunConfig, manifest_path: str):
    """Degraded (input, target) pairs, one RNG stream per image."""
    if not manifest_path:
        raise ConfigError("data.manifest is required")
    pairs = []
    for i, (name, img) in enumerate(load_manifest(manifest_path)):
        spec = dataclasses.replace(
            cfg.data.spec, seed=D.split_seed(cfg.data.spec.seed, i))
        inp, tgt = D.degrade(img, spec)
        pairs.append((name, inp, tgt))
    return pairs


def run_training(cfg: RunConfig, out_dir: str | Path):
    """Train into `out_dir`, rendering the config and building the data and
    the network before writing anything; `loss_log.csv` gets a flushed row
    per completed step."""
    echo = render_config(cfg)
    pairs = [(inp, tgt) for _, inp, tgt in build_pairs(cfg, cfg.data.manifest)]
    D.check_pairs(pairs, cfg.train.patch_size)
    net = B.MIRNet(cfg.network, seed=cfg.train.seed)
    params = net.named_parameters()
    adam = O.Adam()

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(echo)

    with open(out / "loss_log.csv", "w") as log:
        log.write("step,lr,loss\n")
        for step in range(cfg.train.total_steps):
            lr = O.cosine_lr(step, cfg.train)
            x, y = D.sample_batch(pairs, cfg.train, step)
            try:
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    with T.Tape() as tape:
                        pred = net(Tensor(x))
                        loss = O.charbonnier_loss(pred, Tensor(y), cfg.train.loss_mode)
                    # errstate sees only this thread's flags, not a BLAS worker's
                    value = loss.item()
                    if not math.isfinite(value):
                        raise NumericalError(f"non-finite loss at step {step}")
                    # allocated above the first tape, Adam's state keeps the memory
                    # that backward frees in the heap, so later forwards reuse it
                    adam.init_state(params)
                    adam.step(T.gradients(tape, loss), lr)
            except FloatingPointError as exc:
                raise NumericalError(f"{exc} at step {step}") from exc
            log.write(f"{step},{lr:.10e},{value:.10e}\n")
            log.flush()
            if cfg.train.checkpoint_every and (step + 1) % cfg.train.checkpoint_every == 0:
                save_checkpoint(out / f"checkpoint_{step + 1:06d}.ckpt",
                                {name: p.data for name, p in params.items()})

    final = out / "final.ckpt"
    save_checkpoint(final, {name: p.data for name, p in params.items()})
    return net, final


def load_network(cfg: RunConfig, checkpoint_path: str) -> B.MIRNet:
    """Build the network from config and load its parameters; the checkpoint
    must hold exactly those parameters.

    Raises CheckpointError naming the first entry the network lacks (in file
    order), else the first missing or mismatched parameter.
    """
    net = B.MIRNet(cfg.network, seed=None)
    params = net.named_parameters()
    stored = load_checkpoint(checkpoint_path)
    for name in stored:
        if name not in params:
            raise CheckpointError(f"checkpoint has unexpected entry {name!r}")
    for name, p in params.items():
        arr = stored.get(name)
        if arr is None:
            raise CheckpointError(f"checkpoint missing parameter {name!r}")
        if arr.shape != p.data.shape:
            raise CheckpointError(
                f"parameter {name!r} has shape {arr.shape}, expected {p.data.shape}")
        p.data = arr
    return net


def restore_image(net: B.MIRNet, image: D.ImageBuffer) -> D.ImageBuffer:
    """Forward pass with reflect-padding to a divisible extent, then crop."""
    arr = D.to_array(image)
    d = net.config.divisor
    h, w = arr.shape[1], arr.shape[2]
    ph, pw = (-h) % d, (-w) % d
    top, left = ph // 2, pw // 2
    if ph or pw:
        arr = np.pad(arr, ((0, 0), (top, ph - top), (left, pw - left)),
                     mode="reflect")
    out = net(Tensor(arr[None])).data[0]
    out = out[:, top:top + h, left:left + w]
    if not np.isfinite(out).all():
        raise NumericalError("restored image has non-finite values")
    return D.to_image(out)


@dataclasses.dataclass
class EvalReport:
    """Per-image (name, psnr_db, ssim) rows and the (psnr_db, ssim) means of
    the restored images and of the degraded inputs."""
    channel_mode: str
    rows: list[tuple[str, float, float]]
    aggregate: tuple[float, float]
    input_baseline: tuple[float, float]


def _fmt(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:.6f}"


def format_report(report: EvalReport) -> str:
    """The tab-separated eval report printed by `eval`."""
    rows = [*report.rows, ("aggregate", *report.aggregate),
            ("input_baseline", *report.input_baseline)]
    return "\n".join([f"# channel_mode={report.channel_mode}",
                      "name\tpsnr_db\tssim",
                      *(f"{name}\t{_fmt(p)}\t{_fmt(s)}" for name, p, s in rows)])


def run_eval(cfg: RunConfig, checkpoint_path: str,
             manifest_path: str | None = None) -> EvalReport:
    net = load_network(cfg, checkpoint_path)
    mode = cfg.eval.channel_mode
    rows, baseline = [], []
    for name, inp, tgt in build_pairs(cfg, manifest_path or cfg.data.manifest):
        restored = restore_image(net, inp)
        rows.append((name, M.psnr(restored, tgt, mode), M.ssim(restored, tgt, mode)))
        baseline.append((M.psnr(inp, tgt, mode), M.ssim(inp, tgt, mode)))
    mean = lambda scores: tuple(sum(col) / len(col) for col in zip(*scores))
    return EvalReport(cfg.eval.channel_mode, rows,
                      aggregate=mean([r[1:] for r in rows]),
                      input_baseline=mean(baseline))


def aggregation_report() -> list[str]:
    """Parameter counts of the three fusion strategies at reference width."""
    channels, branches = 64, 3
    totals = {name: B.count_parameters(module)[1] for name, module in (
        ("sum", B.SumFusion()),
        ("concat", B.ConcatFusion(channels, branches)),
        ("skff", B.SKFF(channels, branches)))}
    return ["method\tparameters",
            *(f"{name}\t{total}" for name, total in totals.items()),
            f"concat_to_skff_ratio\t{totals['concat'] / totals['skff']:.3f}"]


def layout_report(cfg: RunConfig, out_dir: str | Path,
                  train_steps: int = 0) -> list[str]:
    """Parameter count of `cfg.network` at 1-3 streams x 1-3 columns; with
    `train_steps`, each cell also trains that many steps into
    `out_dir/r<streams>c<columns>` and reports its aggregate eval PSNR."""
    networks = {
        (rows_n, cols_n): dataclasses.replace(
            cfg.network, n_streams=rows_n, n_columns=cols_n)
        for rows_n in (1, 2, 3) for cols_n in (1, 2, 3)}
    runs = {}
    if train_steps > 0:
        # building the run configs checks every cell before the first trains
        train = dataclasses.replace(cfg.train, total_steps=train_steps)
        runs = {cell: dataclasses.replace(cfg, network=network, train=train)
                for cell, network in networks.items()}
    lines = ["rows\tcols\tparameters\tpsnr_db"]
    for (rows_n, cols_n), network in networks.items():
        _, total = B.count_parameters(B.MIRNet(network, seed=None))
        psnr_cell = "-"
        if runs:
            run = runs[rows_n, cols_n]
            _, ckpt = run_training(run, Path(out_dir) / f"r{rows_n}c{cols_n}")
            psnr_cell = _fmt(run_eval(run, ckpt).aggregate[0])
        lines.append(f"{rows_n}\t{cols_n}\t{total}\t{psnr_cell}")
    return lines
