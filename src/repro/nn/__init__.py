"""``repro.nn`` — NumPy neural-network substrate.

A from-scratch replacement for the PyTorch stack the paper was
implemented on: reverse-mode autodiff (:mod:`repro.nn.tensor`), an op
library (:mod:`repro.nn.ops`, :mod:`repro.nn.conv`,
:mod:`repro.nn.attention`), layers (:mod:`repro.nn.modules`), optimizers
(:mod:`repro.nn.optim`) and checkpointing
(:mod:`repro.nn.serialization`).
"""

from . import functional  # noqa: F401  (wires op dunders onto Tensor)
from . import init, optim, profile, serialization  # noqa: F401
from .gdn import GDN
from .modules import (Conv2d, ConvTranspose2d, GELU, GroupNorm, Identity,
                      LayerNorm, LeakyReLU, Linear, Module, ModuleList,
                      Parameter, ReLU, Sequential, Sigmoid, SiLU, Tanh)
from .tensor import Tensor, as_tensor, is_grad_enabled, no_grad, unbroadcast

__all__ = [
    "Tensor", "as_tensor", "no_grad", "is_grad_enabled", "unbroadcast",
    "Parameter", "Module", "Sequential", "ModuleList", "Identity",
    "Linear", "Conv2d", "ConvTranspose2d", "GroupNorm", "LayerNorm",
    "ReLU", "LeakyReLU", "SiLU", "GELU", "Tanh", "Sigmoid", "GDN",
    "functional", "profile", "init", "optim", "serialization",
]
