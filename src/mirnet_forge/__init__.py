"""Multi-scale residual image restoration on a numpy autodiff core."""

from .blocks import (DAU, MRB, RRG, SKFF, ChannelAttention, ConcatFusion,
                     MIRNet, NetworkConfig, ResizeDown, ResizeUp,
                     SpatialAttention, SumFusion, blur_pool, count_parameters,
                     init_weights)
from .config import TrainConfig
from .data import (DegradationSpec, ImageBuffer, add_gaussian_noise,
                   bicubic_resize, degrade, load_ppm, sample_batch, save_ppm)
from .metrics import psnr, ssim
from .optim import Adam, charbonnier_loss, cosine_lr
from .tensor import ContractError, ShapeError, Tape, Tensor, backward, gradients
from .verify import grad_check

__all__ = [
    "Adam", "ChannelAttention", "ConcatFusion", "ContractError", "DAU",
    "DegradationSpec", "ImageBuffer", "MIRNet", "MRB", "NetworkConfig", "RRG",
    "ResizeDown", "ResizeUp", "SKFF", "ShapeError", "SpatialAttention",
    "SumFusion", "Tape", "Tensor", "TrainConfig",
    "add_gaussian_noise", "backward", "bicubic_resize", "blur_pool",
    "charbonnier_loss", "cosine_lr", "count_parameters", "degrade",
    "grad_check", "gradients", "init_weights", "load_ppm", "psnr",
    "sample_batch", "save_ppm", "ssim",
]

__version__ = "0.1.0"
