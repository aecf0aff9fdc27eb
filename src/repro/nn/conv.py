"""Differentiable 2-D convolution ops (tap-loop + im2col formulations).

Two interchangeable kernel strategies compute the same cross-correlation:

* a short loop over kernel taps — each tap a fully vectorised ``einsum``
  over the batch (memory-lean, good for large frames);
* an im2col/``as_strided`` patch matrix contracted in a single GEMM
  (fastest for the small latent grids the UNet spends its time on).

``_conv2d_forward`` picks between them with a byte-budget heuristic so
grad-mode and ``no_grad`` forwards always run the *same* kernel for a
given shape.  Einsum contraction paths are planned once per
(subscripts, shapes, dtypes) signature and memoized — ``np.einsum_path``
re-planning used to dominate the inference profile.

Shape conventions (match PyTorch):

* ``conv2d``:            x ``(B, Cin, H, W)``, w ``(Cout, Cin, kh, kw)``
* ``conv_transpose2d``:  x ``(B, Cin, H, W)``, w ``(Cin, Cout, kh, kw)``
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = ["conv2d", "conv_transpose2d", "avg_pool2d", "upsample_nearest2d",
           "cached_einsum"]

# Patch-matrix byte budget above which the im2col kernel would thrash
# memory; beyond it the tap loop wins.  Tests monkeypatch this to force
# either kernel.
IM2COL_MAX_BYTES = 1 << 26

_EINSUM_PATHS: Dict[tuple, list] = {}


def _pad2d(x: np.ndarray, p: int) -> np.ndarray:
    """Zero-pad the two trailing axes by ``p`` on each side.

    Equivalent to ``np.pad`` with a constant mode but without its
    per-axis Python bookkeeping, which showed up in the denoise-loop
    profile (hundreds of small pads per sampled window).
    """
    B, C, H, W = x.shape
    xp = np.zeros((B, C, H + 2 * p, W + 2 * p), dtype=x.dtype)
    xp[:, :, p:-p, p:-p] = x
    return xp


def cached_einsum(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """``np.einsum`` with the contraction path memoized per signature.

    ``optimize=True`` re-runs the path optimizer on every call — for the
    small per-tap contractions here the planning costs more than the
    contraction itself.  Paths depend only on subscripts, operand shapes
    and dtypes, so they are cached on exactly that key.
    """
    key = (subscripts,) + tuple(
        (op.shape, op.dtype.str) for op in operands)
    path = _EINSUM_PATHS.get(key)
    if path is None:
        path = np.einsum_path(subscripts, *operands, optimize="optimal")[0]
        _EINSUM_PATHS[key] = path
    return np.einsum(subscripts, *operands, optimize=path)


# ----------------------------------------------------------------------
# Raw NumPy kernels (shared by forward and backward passes)
# ----------------------------------------------------------------------
def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int,
            Ho: int, Wo: int) -> np.ndarray:
    """Patch matrix ``(Cin*kh*kw, B*Ho*Wo)`` of the padded input.

    The patch axis comes *last* so the gather that materializes the
    strided view copies contiguous ``Wo``-length runs (the ``Wo`` axis
    has the input's unit stride) instead of ``kw``-length ones — about
    2x faster for 3x3 kernels on latent-sized grids.
    """
    B, C = xp.shape[0], xp.shape[1]
    sB, sC, sH, sW = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, shape=(C, kh, kw, B, Ho, Wo),
        strides=(sC, sH, sW, sB, sH * stride, sW * stride),
        writeable=False)
    return windows.reshape(C * kh * kw, B * Ho * Wo)


def _use_im2col(B: int, C: int, Ho: int, Wo: int, kh: int, kw: int,
                itemsize: int) -> bool:
    if kh == 1 and kw == 1:
        return False            # 1x1 taps are already a single einsum
    return B * Ho * Wo * C * kh * kw * itemsize <= IM2COL_MAX_BYTES


def _conv2d_forward_taps(x: np.ndarray, w: np.ndarray, stride: int,
                         Ho: int, Wo: int) -> np.ndarray:
    """Tap-loop kernel over the already-padded input."""
    B = x.shape[0]
    Cout, _, kh, kw = w.shape
    y = np.zeros((B, Cout, Ho, Wo), dtype=x.dtype)
    for k in range(kh):
        for l in range(kw):
            xs = x[:, :, k:k + stride * Ho:stride, l:l + stride * Wo:stride]
            y += cached_einsum("bchw,oc->bohw", xs, w[:, :, k, l])
    return y


def _conv2d_forward_im2col(x: np.ndarray, w: np.ndarray, stride: int,
                           Ho: int, Wo: int) -> np.ndarray:
    """Single-GEMM kernel over the already-padded input."""
    B = x.shape[0]
    Cout, Cin, kh, kw = w.shape
    cols = _im2col(x, kh, kw, stride, Ho, Wo)
    y = w.reshape(Cout, Cin * kh * kw) @ cols
    return np.ascontiguousarray(
        y.reshape(Cout, B, Ho, Wo).transpose(1, 0, 2, 3))


def _conv2d_forward(x: np.ndarray, w: np.ndarray, stride: int,
                    padding: int) -> np.ndarray:
    """y[b,o,i,j] = sum_{c,k,l} x[b,c,i*s+k-p, j*s+l-p] * w[o,c,k,l]."""
    B, Cin, H, W = x.shape
    Cout, Cin2, kh, kw = w.shape
    assert Cin == Cin2, f"channel mismatch: {Cin} vs {Cin2}"
    if padding:
        x = _pad2d(x, padding)
    Hp, Wp = x.shape[2], x.shape[3]
    Ho = (Hp - kh) // stride + 1
    Wo = (Wp - kw) // stride + 1
    if _use_im2col(B, Cin, Ho, Wo, kh, kw, x.itemsize):
        return _conv2d_forward_im2col(x, w, stride, Ho, Wo)
    return _conv2d_forward_taps(x, w, stride, Ho, Wo)


def _conv2d_grad_input(g: np.ndarray, w: np.ndarray, stride: int,
                       padding: int, in_shape: Tuple[int, ...]) -> np.ndarray:
    """Adjoint of :func:`_conv2d_forward` w.r.t. its input."""
    B, Cin, H, W = in_shape
    Cout, _, kh, kw = w.shape
    Ho, Wo = g.shape[2], g.shape[3]
    dxp = np.zeros((B, Cin, H + 2 * padding, W + 2 * padding), dtype=g.dtype)
    for k in range(kh):
        for l in range(kw):
            contrib = cached_einsum("bohw,oc->bchw", g, w[:, :, k, l])
            dxp[:, :, k:k + stride * Ho:stride, l:l + stride * Wo:stride] += contrib
    if padding:
        return dxp[:, :, padding:-padding, padding:-padding]
    return dxp


def _conv2d_grad_weight(x: np.ndarray, g: np.ndarray, stride: int,
                        padding: int, kshape: Tuple[int, int]) -> np.ndarray:
    """Adjoint of :func:`_conv2d_forward` w.r.t. its weight."""
    kh, kw = kshape
    if padding:
        x = _pad2d(x, padding)
    Ho, Wo = g.shape[2], g.shape[3]
    Cout, Cin = g.shape[1], x.shape[1]
    B = x.shape[0]
    if _use_im2col(B, Cin, Ho, Wo, kh, kw, x.itemsize):
        cols = _im2col(x, kh, kw, stride, Ho, Wo)
        gm = g.transpose(1, 0, 2, 3).reshape(Cout, B * Ho * Wo)
        return (gm @ cols.T).reshape(Cout, Cin, kh, kw)
    dw = np.empty((Cout, Cin, kh, kw), dtype=g.dtype)
    for k in range(kh):
        for l in range(kw):
            xs = x[:, :, k:k + stride * Ho:stride, l:l + stride * Wo:stride]
            dw[:, :, k, l] = cached_einsum("bohw,bchw->oc", g, xs)
    return dw


def conv_transpose2d_out_shape(H: int, W: int, kh: int, kw: int, stride: int,
                               padding: int, output_padding: int = 0
                               ) -> Tuple[int, int]:
    """Output spatial shape of a transposed convolution."""
    Ho = (H - 1) * stride - 2 * padding + kh + output_padding
    Wo = (W - 1) * stride - 2 * padding + kw + output_padding
    return Ho, Wo


# ----------------------------------------------------------------------
# Autodiff wrappers
# ----------------------------------------------------------------------
def conv2d(x, w, b=None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation with optional bias.

    Parameters mirror ``torch.nn.functional.conv2d`` (single int stride
    and symmetric padding, which is all the models here need).
    """
    x, w = as_tensor(x), as_tensor(w)
    bt: Optional[Tensor] = as_tensor(b) if b is not None else None
    y = _conv2d_forward(x.data, w.data, stride, padding)
    if bt is not None:
        y = y + bt.data.reshape(1, -1, 1, 1)
    in_shape = x.data.shape
    kshape = (w.data.shape[2], w.data.shape[3])

    parents = (x, w) if bt is None else (x, w, bt)

    def backward(g: np.ndarray, gm: Dict[int, np.ndarray]) -> None:
        if x.requires_grad:
            x._receive(gm, _conv2d_grad_input(g, w.data, stride, padding, in_shape))
        if w.requires_grad:
            w._receive(gm, _conv2d_grad_weight(x.data, g, stride, padding, kshape))
        if bt is not None and bt.requires_grad:
            bt._receive(gm, g.sum(axis=(0, 2, 3)))

    return Tensor._from_op(y, parents, backward, "conv2d")


def conv_transpose2d(x, w, b=None, stride: int = 1, padding: int = 0,
                     output_padding: int = 0) -> Tensor:
    """2-D transposed convolution (the VAE decoder's upsampler).

    Weight shape is ``(Cin, Cout, kh, kw)`` as in PyTorch.  Implemented
    as the adjoint of :func:`conv2d`: the forward pass *is* the conv
    input-gradient kernel, and the backward passes reuse the conv
    forward / weight-gradient kernels with roles swapped.
    """
    x, w = as_tensor(x), as_tensor(w)
    bt: Optional[Tensor] = as_tensor(b) if b is not None else None
    B, Cin, H, W = x.data.shape
    Cin2, Cout, kh, kw = w.data.shape
    assert Cin == Cin2, f"channel mismatch: {Cin} vs {Cin2}"
    Ho, Wo = conv_transpose2d_out_shape(H, W, kh, kw, stride, padding,
                                        output_padding)
    # Interpret w as a conv weight mapping Cout -> Cin; then
    # conv_transpose(x) == grad_input(conv) evaluated at g = x.
    y = _conv2d_grad_input(
        x.data, w.data, stride, padding, (B, Cout, Ho + 2 * 0, Wo))
    # _conv2d_grad_input computed for in_shape (B,Cout,Ho,Wo) -- the call
    # above passes that directly:
    if bt is not None:
        y = y + bt.data.reshape(1, -1, 1, 1)

    parents = (x, w) if bt is None else (x, w, bt)

    def backward(g: np.ndarray, gm: Dict[int, np.ndarray]) -> None:
        if x.requires_grad:
            x._receive(gm, _conv2d_forward(g, w.data, stride, padding))
        if w.requires_grad:
            # dw for the underlying conv with input g and output-grad x.
            w._receive(gm, _conv2d_grad_weight(g, x.data, stride, padding,
                                               (kh, kw)))
        if bt is not None and bt.requires_grad:
            bt._receive(gm, g.sum(axis=(0, 2, 3)))

    return Tensor._from_op(y, parents, backward, "conv_transpose2d")


def avg_pool2d(x, kernel: int) -> Tensor:
    """Non-overlapping average pooling (used by downsampling blocks)."""
    x = as_tensor(x)
    B, C, H, W = x.data.shape
    if H % kernel or W % kernel:
        raise ValueError(f"avg_pool2d requires divisible dims, got {H}x{W} "
                         f"with kernel {kernel}")
    Ho, Wo = H // kernel, W // kernel
    y = x.data.reshape(B, C, Ho, kernel, Wo, kernel).mean(axis=(3, 5))
    scale = 1.0 / (kernel * kernel)

    def backward(g: np.ndarray, gm: Dict[int, np.ndarray]) -> None:
        gx = np.repeat(np.repeat(g, kernel, axis=2), kernel, axis=3) * scale
        x._receive(gm, gx)

    return Tensor._from_op(y, (x,), backward, "avg_pool2d")


def upsample_nearest2d(x, factor: int) -> Tensor:
    """Nearest-neighbour upsampling (UNet decoder path)."""
    x = as_tensor(x)
    y = np.repeat(np.repeat(x.data, factor, axis=2), factor, axis=3)
    B, C, H, W = x.data.shape

    def backward(g: np.ndarray, gm: Dict[int, np.ndarray]) -> None:
        gx = g.reshape(B, C, H, factor, W, factor).sum(axis=(3, 5))
        x._receive(gm, gx)

    return Tensor._from_op(y, (x,), backward, "upsample_nearest2d")
