"""Scaled dot-product attention and the factorized space-time pattern.

The paper's denoising UNet (Sec. 3.2, "Denoising UNet") uses factorized
space-time attention from video diffusion models: given features
``(B, N, C, H, W)`` (``N`` frames), *temporal* attention reshapes to
``(B*H*W, N, C)`` and attends along frames, while *spatial* attention
reshapes to ``(B*N, H*W, C)`` and attends within each frame.

Attention and each token layout are single autodiff nodes: the forward
is one kernel, the backward is the softmax Jacobian for attention and
the inverse layout for the reshapes.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Tuple

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = ["scaled_dot_product_attention", "spatial_tokens", "temporal_tokens",
           "untokenize_spatial", "untokenize_temporal"]


def _sdpa_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Attention output and its softmax weights (kept for backward)."""
    d = q.shape[-1]
    scores = (q @ np.swapaxes(k, -1, -2)) * (1.0 / math.sqrt(d))
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    weights = e / e.sum(axis=-1, keepdims=True)
    return weights @ v, weights


def scaled_dot_product_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(q kᵀ / sqrt(d)) v over the last two axes.

    ``q, k, v`` have shape ``(..., L, D)``; output matches ``q``.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    out, weights = _sdpa_forward(q.data, k.data, v.data)
    scale = 1.0 / math.sqrt(q.shape[-1])

    def backward(g: np.ndarray, gm: Dict[int, np.ndarray]) -> None:
        if v.requires_grad:
            v._receive(gm, np.swapaxes(weights, -1, -2) @ g)
        if q.requires_grad or k.requires_grad:
            gw = g @ np.swapaxes(v.data, -1, -2)
            dot = (gw * weights).sum(axis=-1, keepdims=True)
            gs = weights * (gw - dot) * scale
            if q.requires_grad:
                q._receive(gm, gs @ k.data)
            if k.requires_grad:
                k._receive(gm, np.swapaxes(gs, -1, -2) @ q.data)

    return Tensor._from_op(out, (q, k, v), backward, "sdpa")


def _relayout(x, to: Callable, back: Callable, shape: Tuple[int, ...],
              op: str) -> Tensor:
    """One node applying the layout change ``to(a, shape)``; its backward
    is the inverse layout ``back(g, shape)``."""
    x = as_tensor(x)

    def backward(g: np.ndarray, gm: Dict[int, np.ndarray]) -> None:
        x._receive(gm, back(g, shape))

    return Tensor._from_op(to(x.data, shape), (x,), backward, op)


def _to_spatial(a: np.ndarray, shape) -> np.ndarray:
    B, N, C, H, W = shape
    return a.reshape(B * N, C, H * W).swapaxes(1, 2)


def _from_spatial(a: np.ndarray, shape) -> np.ndarray:
    return a.swapaxes(1, 2).reshape(shape)


def _to_temporal(a: np.ndarray, shape) -> np.ndarray:
    B, N, C, H, W = shape
    return a.transpose(0, 3, 4, 1, 2).reshape(B * H * W, N, C)


def _from_temporal(a: np.ndarray, shape) -> np.ndarray:
    B, N, C, H, W = shape
    return a.reshape(B, H, W, N, C).transpose(0, 3, 4, 1, 2)


def spatial_tokens(x: Tensor) -> Tensor:
    """``(B, N, C, H, W)`` -> ``(B*N, H*W, C)`` token layout.

    Matches the paper: "spatial attention is applied by reshaping to
    N x (H*W) x C and using the same attention formula within each
    frame".
    """
    return _relayout(x, _to_spatial, _from_spatial, tuple(x.shape),
                     "spatial_tokens")


def untokenize_spatial(x: Tensor, shape) -> Tensor:
    """Inverse of :func:`spatial_tokens` given the original 5-D shape."""
    return _relayout(x, _from_spatial, _to_spatial, tuple(shape),
                     "untokenize_spatial")


def temporal_tokens(x: Tensor) -> Tensor:
    """``(B, N, C, H, W)`` -> ``(B*H*W, N, C)`` token layout.

    Matches the paper: "temporal attention is applied by reshaping the
    input to (H*W) x N x C and computing self-attention along the
    temporal dimension".
    """
    return _relayout(x, _to_temporal, _from_temporal, tuple(x.shape),
                     "temporal_tokens")


def untokenize_temporal(x: Tensor, shape) -> Tensor:
    """Inverse of :func:`temporal_tokens` given the original 5-D shape."""
    return _relayout(x, _from_temporal, _to_temporal, tuple(shape),
                     "untokenize_temporal")
