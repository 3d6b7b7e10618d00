"""Flat key=value run configuration.

Format: one `section.key = value` per line, `#` starts a comment, blank lines
ignored.  Unknown and repeated keys are rejected.  The keys are the settings
dataclasses' fields in field order (`data.spec`'s fields are `data.*`), each
typed by its default.  The effective configuration can be rendered back to text; a rerun
from the echoed text is bit-identical.  Settings are frozen and check
themselves when they are built, so nothing checks them again.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from .blocks import NetworkConfig
from .data import DegradationSpec
from .metrics import check_channel_mode
from .optim import check_loss_mode


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    total_steps: int = 2000
    batch: int = 4
    patch_size: int = 32
    lr_init: float = 2e-4
    lr_min: float = 1e-6
    seed: int = 0
    loss_mode: str = "per_pixel_mean"
    checkpoint_every: int = 500

    def __post_init__(self):
        if not (math.isfinite(self.lr_init) and math.isfinite(self.lr_min)):
            raise ConfigError("train.lr_init and train.lr_min must be finite")
        if not (self.lr_init > self.lr_min > 0):
            raise ConfigError("require train.lr_init > train.lr_min > 0")
        if self.total_steps < 1:
            raise ConfigError("train.total_steps must be >= 1")
        check_loss_mode(self.loss_mode)
        if self.patch_size < 1 or self.batch < 1:
            raise ConfigError("train.patch_size and train.batch must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"train.seed must lie in [0, 2^64), got {self.seed}")
        if self.checkpoint_every < 0:
            raise ConfigError("train.checkpoint_every must be >= 0")


@dataclass(frozen=True)
class DataConfig:
    manifest: str = ""
    spec: DegradationSpec = field(default_factory=DegradationSpec)


@dataclass(frozen=True)
class EvalConfig:
    channel_mode: str = "rgb"

    def __post_init__(self):
        check_channel_mode(self.channel_mode)


@dataclass(frozen=True)
class RunConfig:
    network: NetworkConfig = field(default_factory=lambda: NetworkConfig(
        n_rrg=1, mrb_per_rrg=1, n_streams=2, n_columns=1, base_channels=8))
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        # patch_size % divisor, without building the 2^(n_streams - 1) divisor
        shift = self.network.n_streams - 1
        patch = self.train.patch_size
        if patch >> shift << shift != patch:
            raise ConfigError(
                f"train.patch_size {patch} must be divisible by "
                f"2^{shift} for {self.network.n_streams} streams")


def _settings(obj, path=()):
    """(field path, value) of every leaf setting of `obj`, in field order."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _settings(value, path + (f.name,))
        else:
            yield path + (f.name,), value


# key -> (field path, type); ("data", "spec", "task") is "data.task"
_KEYS = {f"{path[0]}.{path[-1]}": (path, type(value))
         for path, value in _settings(RunConfig())}


def _replace(obj, values: dict, path=()):
    """Copy of `obj` with each field path in `values` set to its value."""
    changes = {}
    for f in dataclasses.fields(obj):
        sub = path + (f.name,)
        if sub in values:
            changes[f.name] = values[sub]
        elif dataclasses.is_dataclass(getattr(obj, f.name)):
            changes[f.name] = _replace(getattr(obj, f.name), values, sub)
    return dataclasses.replace(obj, **changes)


def parse_config(text: str) -> RunConfig:
    """Parse config text and build the checked config."""
    values, first_line = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        entry = _KEYS.get(key)
        if entry is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"line {lineno}: repeated key {key!r} "
                              f"(first on line {first_line[key]})")
        first_line[key] = lineno
        path, typ = entry
        try:
            values[path] = typ(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    try:
        return _replace(RunConfig(), values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def render_config(cfg: RunConfig) -> str:
    """Effective configuration as canonical key=value text, which
    `parse_config` reads back to `cfg`: a value holding `#` or a line break,
    which it would not, raises ConfigError."""
    lines = []
    for (key, (_, typ)), (_, value) in zip(_KEYS.items(), _settings(cfg)):
        if typ is float:
            value = repr(float(value))
        line = f"{key} = {value}"
        if "#" in line or line.splitlines() != [line]:
            raise ConfigError(f"{key} value {value!r} cannot be echoed: "
                              "it holds '#' or a line break")
        lines.append(line)
    return "\n".join(lines) + "\n"
