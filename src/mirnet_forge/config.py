"""Flat key=value run configuration.

Format: one `section.key = value` per line, `#` starts a comment, blank lines
ignored.  Unknown keys are rejected.  The effective configuration (defaults
filled in) can be rendered back to text; a rerun from the echoed text is
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .blocks import NetworkConfig
from .data import DegradationSpec, PatchSampler
from .metrics import check_channel_mode
from .optim import CosineSchedule, check_loss_mode


class ConfigError(ValueError):
    pass


@dataclass
class TrainConfig:
    total_steps: int = 2000
    batch: int = 4
    patch_size: int = 32
    lr_init: float = 2e-4
    lr_min: float = 1e-6
    seed: int = 0
    loss_mode: str = "per_pixel_mean"
    checkpoint_every: int = 500


@dataclass
class DataConfig:
    manifest: str = ""
    spec: DegradationSpec = field(default_factory=DegradationSpec)


@dataclass
class EvalConfig:
    channel_mode: str = "rgb"


@dataclass
class RunConfig:
    network: NetworkConfig = field(default_factory=lambda: NetworkConfig(
        n_rrg=1, mrb_per_rrg=1, n_streams=2, n_columns=1, base_channels=8))
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)


# key -> (target resolver, attribute, type)
_SCHEMA = {
    "network.n_rrg": ("network", "n_rrg", int),
    "network.mrb_per_rrg": ("network", "mrb_per_rrg", int),
    "network.n_streams": ("network", "n_streams", int),
    "network.n_columns": ("network", "n_columns", int),
    "network.base_channels": ("network", "base_channels", int),
    "train.total_steps": ("train", "total_steps", int),
    "train.batch": ("train", "batch", int),
    "train.patch_size": ("train", "patch_size", int),
    "train.lr_init": ("train", "lr_init", float),
    "train.lr_min": ("train", "lr_min", float),
    "train.seed": ("train", "seed", int),
    "train.loss_mode": ("train", "loss_mode", str),
    "train.checkpoint_every": ("train", "checkpoint_every", int),
    "data.manifest": ("data", "manifest", str),
    "data.task": ("data.spec", "task", str),
    "data.noise_sigma": ("data.spec", "noise_sigma", float),
    "data.scale_factor": ("data.spec", "scale_factor", int),
    "data.exposure_gain": ("data.spec", "exposure_gain", float),
    "data.gamma": ("data.spec", "gamma", float),
    "data.seed": ("data.spec", "seed", int),
    "eval.channel_mode": ("eval", "channel_mode", str),
}


def _target(cfg: RunConfig, path: str):
    obj = cfg
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def parse_config(text: str, seed: int | None = None) -> RunConfig:
    """Parse and validate config text; `seed`, when given, replaces
    train.seed before validation."""
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        entry = _SCHEMA.get(key)
        if entry is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        path, attr, typ = entry
        try:
            parsed = typ(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
        setattr(_target(cfg, path), attr, parsed)
    if seed is not None:
        cfg.train.seed = seed
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig):
    """Raise ConfigError unless `cfg` is a valid run.  Each component checks
    its own settings; only the rules that relate two components, or that no
    component consumes, live here."""
    t = cfg.train
    try:
        cfg.network.validate()
        cfg.data.spec.validate()
        CosineSchedule(t.lr_init, t.lr_min, t.total_steps).validate()
        check_loss_mode(t.loss_mode)
        PatchSampler(t.patch_size, t.batch).validate()
        check_channel_mode(cfg.eval.channel_mode)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # patch_size % divisor, without building the 2^(n_streams - 1) divisor
    shift = cfg.network.n_streams - 1
    if t.patch_size >> shift << shift != t.patch_size:
        raise ConfigError(
            f"train.patch_size {t.patch_size} must be divisible by "
            f"2^{shift} for {cfg.network.n_streams} streams")
    for key in ("seed", "checkpoint_every"):
        if getattr(t, key) < 0:
            raise ConfigError(f"train.{key} must be >= 0")


def render_config(cfg: RunConfig) -> str:
    """Effective configuration as canonical key=value text."""
    lines = []
    for key, (path, attr, typ) in _SCHEMA.items():
        value = getattr(_target(cfg, path), attr)
        if typ is float:
            value = repr(float(value))
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
