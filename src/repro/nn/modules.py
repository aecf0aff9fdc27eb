"""Layer/module system built on the autodiff tensors.

A :class:`Module` owns named parameters (:class:`Parameter` tensors) and
child modules, supports recursive traversal, train/eval switching, and
state-dict (de)serialization — the minimal subset of ``torch.nn`` the
paper's models require.

Every module has one ``forward``.  Under grad it records autodiff
nodes; under ``no_grad`` the same kernels run in the same order and no
graph is kept, so inference and training see the same output bits.
Layers whose math would otherwise be a chain of small ops (``Linear``,
``GroupNorm``, ``LayerNorm``) record one fused node whose backward is
analytic, in the shape of :mod:`repro.nn.gdn`.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import conv as F_conv
from . import init as initializers
from . import ops
from .tensor import Tensor, as_tensor, unbroadcast

__all__ = [
    "Parameter", "Module", "Sequential", "ModuleList", "Identity",
    "Linear", "Conv2d", "ConvTranspose2d", "GroupNorm", "LayerNorm",
    "ReLU", "LeakyReLU", "SiLU", "GELU", "Tanh", "Sigmoid",
]


class Parameter(Tensor):
    """A trainable leaf tensor."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True, op="param")
        self.requires_grad = True  # even inside no_grad-constructed models


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training: bool = True

    # -- attribute magic ------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    # -- traversal -------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, p in self._parameters.items():
            yield (prefix + name, p)
        for mname, mod in self._modules.items():
            yield from mod.named_parameters(prefix + mname + ".")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for mod in self._modules.values():
            yield from mod.modules()

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.data.size for p in self.parameters())

    # -- state -----------------------------------------------------------
    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def train(self, mode: bool = True) -> "Module":
        for mod in self.modules():
            mod.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray],
                        strict: bool = True) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)}")
        for name, arr in state.items():
            if name not in own:
                continue
            p = own[name]
            arr = np.asarray(arr, dtype=np.float64)
            if p.data.shape != arr.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: {p.data.shape} vs {arr.shape}")
            p.data = arr.copy()

    # -- call ------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            self._modules[str(i)] = layer

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, i: int) -> Module:
        return self.layers[i]


class ModuleList(Module):
    """List container registering children for traversal."""

    def __init__(self, modules: Optional[Sequence[Module]] = None):
        super().__init__()
        self._items: List[Module] = []
        for m in modules or []:
            self.append(m)

    def append(self, module: Module) -> None:
        self._modules[str(len(self._items))] = module
        self._items.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i: int) -> Module:
        return self._items[i]

    def forward(self, *a, **k):  # pragma: no cover - containers aren't called
        raise RuntimeError("ModuleList is not callable")


class Identity(Module):
    def forward(self, x):
        return x


# ----------------------------------------------------------------------
# Fused nodes: one kernel forward, one analytic backward
# ----------------------------------------------------------------------
def _linear_forward(x: np.ndarray, w: np.ndarray,
                    b: Optional[np.ndarray]) -> np.ndarray:
    y = x @ w.transpose((1, 0))
    if b is not None:
        y = y + b
    return y


def _linear_apply(x, weight: Tensor, bias: Optional[Tensor]) -> Tensor:
    """``x Wᵀ + b`` on the last axis as one node (backward: two GEMMs)."""
    x = as_tensor(x)
    y = _linear_forward(x.data, weight.data,
                        None if bias is None else bias.data)
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray, gm: Dict[int, np.ndarray]) -> None:
        if x.requires_grad:
            x._receive(gm, g @ weight.data)
        g2 = g.reshape(-1, g.shape[-1])
        if weight.requires_grad:
            weight._receive(gm, g2.T @ x.data.reshape(-1, x.data.shape[-1]))
        if bias is not None and bias.requires_grad:
            bias._receive(gm, g2.sum(axis=0))

    return Tensor._from_op(y, parents, backward, "linear")


def _norm_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                  eps: float, stat_shape: Tuple[int, ...],
                  wshape: Tuple[int, ...]) -> Tuple[np.ndarray, tuple]:
    """Standardize ``x`` over the last axis of its ``stat_shape`` view,
    then scale and shift by ``weight``/``bias`` viewed as ``wshape``.
    Returns the output and the backward state."""
    xs = x.reshape(stat_shape)
    mu = xs.mean(axis=-1, keepdims=True)
    diff = xs - mu
    v = (diff * diff).mean(axis=-1, keepdims=True)
    std = np.sqrt(v + eps)
    xn = (diff / std).reshape(x.shape)
    return xn * weight.reshape(wshape) + bias.reshape(wshape), (xn, std)


def _norm_apply(x, weight: Tensor, bias: Tensor, eps: float,
                stat_shape: Tuple[int, ...], wshape: Tuple[int, ...],
                op: str) -> Tensor:
    """Group or layer norm as one node with the closed-form backward."""
    x = as_tensor(x)
    y, (xn, std) = _norm_forward(x.data, weight.data, bias.data, eps,
                                 stat_shape, wshape)

    def backward(g: np.ndarray, gm: Dict[int, np.ndarray]) -> None:
        if x.requires_grad:
            gxn = (g * weight.data.reshape(wshape)).reshape(stat_shape)
            xs = xn.reshape(stat_shape)
            gx = (gxn - gxn.mean(axis=-1, keepdims=True)
                  - xs * (gxn * xs).mean(axis=-1, keepdims=True)) / std
            x._receive(gm, gx.reshape(x.data.shape))
        if weight.requires_grad:
            weight._receive(gm, unbroadcast(g * xn, wshape).reshape(-1))
        if bias.requires_grad:
            bias._receive(gm, unbroadcast(g, wshape).reshape(-1))

    return Tensor._from_op(y, (x, weight, bias), backward, op)


# ----------------------------------------------------------------------
# Layers
# ----------------------------------------------------------------------
class Linear(Module):
    """Affine map ``y = x Wᵀ + b`` on the last axis."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            initializers.kaiming_uniform(rng, (out_features, in_features)))
        if bias:
            bound = 1.0 / math.sqrt(in_features)
            self.bias = Parameter(rng.uniform(-bound, bound, size=out_features))
        else:
            self.bias = None

    def forward(self, x) -> Tensor:
        return _linear_apply(x, self.weight, self.bias)


class Conv2d(Module):
    """2-D convolution layer over ``(B, C, H, W)`` inputs."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.stride, self.padding = stride, padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(initializers.kaiming_uniform(rng, shape))
        if bias:
            fan_in = in_channels * kernel_size * kernel_size
            bound = 1.0 / math.sqrt(fan_in)
            self.bias = Parameter(rng.uniform(-bound, bound, size=out_channels))
        else:
            self.bias = None

    def forward(self, x) -> Tensor:
        return F_conv.conv2d(x, self.weight, self.bias,
                             stride=self.stride, padding=self.padding)


class ConvTranspose2d(Module):
    """2-D transposed convolution layer (upsampling decoder blocks)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, output_padding: int = 0,
                 bias: bool = True, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.stride, self.padding = stride, padding
        self.output_padding = output_padding
        shape = (in_channels, out_channels, kernel_size, kernel_size)
        self.weight = Parameter(initializers.kaiming_uniform(rng, shape))
        if bias:
            fan_in = in_channels * kernel_size * kernel_size
            bound = 1.0 / math.sqrt(fan_in)
            self.bias = Parameter(rng.uniform(-bound, bound, size=out_channels))
        else:
            self.bias = None

    def forward(self, x) -> Tensor:
        return F_conv.conv_transpose2d(
            x, self.weight, self.bias, stride=self.stride,
            padding=self.padding, output_padding=self.output_padding)


class GroupNorm(Module):
    """Group normalization over ``(B, C, *spatial)`` inputs."""

    def __init__(self, num_groups: int, num_channels: int, eps: float = 1e-5):
        super().__init__()
        if num_channels % num_groups:
            raise ValueError(
                f"channels ({num_channels}) not divisible by groups "
                f"({num_groups})")
        self.num_groups = num_groups
        self.num_channels = num_channels
        self.eps = eps
        self.weight = Parameter(np.ones(num_channels))
        self.bias = Parameter(np.zeros(num_channels))

    def forward(self, x) -> Tensor:
        shape = x.shape
        return _norm_apply(x, self.weight, self.bias, self.eps,
                           (shape[0], self.num_groups, -1),
                           (1, shape[1]) + (1,) * (len(shape) - 2),
                           "group_norm")


class LayerNorm(Module):
    """Layer normalization over the last axis (token features)."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.weight = Parameter(np.ones(dim))
        self.bias = Parameter(np.zeros(dim))

    def forward(self, x) -> Tensor:
        return _norm_apply(x, self.weight, self.bias, self.eps, x.shape,
                           (self.dim,), "layer_norm")


class ReLU(Module):
    def forward(self, x):
        return ops.relu(x)


class LeakyReLU(Module):
    def __init__(self, slope: float = 0.01):
        super().__init__()
        self.slope = slope

    def forward(self, x):
        return ops.leaky_relu(x, self.slope)


class SiLU(Module):
    def forward(self, x):
        return ops.silu(x)


class GELU(Module):
    def forward(self, x):
        return ops.gelu(x)


class Tanh(Module):
    def forward(self, x):
        return ops.tanh(x)


class Sigmoid(Module):
    def forward(self, x):
        return ops.sigmoid(x)
