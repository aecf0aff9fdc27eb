"""Differentiable 2-D convolution ops (im2col GEMMs and tap loops).

Which kernel serves which pass:

* ``conv2d`` forward: an im2col/``as_strided`` patch matrix contracted
  in a single GEMM (fastest for the small latent grids the UNet spends
  its time on), or a short loop over kernel taps, each tap one
  vectorised ``einsum`` over the batch (memory-lean, for frames whose
  patch matrix would pass ``IM2COL_MAX_BYTES``, and for 1x1 kernels,
  whose single tap is already one contraction).  ``_conv2d_forward``
  picks by shape alone, so grad-mode and ``no_grad`` forwards always
  run the *same* kernel for a given shape.
* ``conv2d`` input gradient: for a square ``k x k`` kernel (k > 1) at
  stride 1 with ``p < k``, the same forward kernels run on the output
  gradient padded by ``k - 1 - p``, with the kernel rotated 180 degrees
  and its in/out channels swapped (the full correlation of Dumoulin &
  Visin, arXiv:1603.07285).  Every other shape (stride > 1, 1x1 or
  non-square kernels, wider paddings) takes one GEMM into a column
  buffer that ``kh * kw`` strided adds fold back onto the input grid
  (col2im).
* ``conv2d`` weight gradient: one GEMM over the patch matrix.
* ``conv_transpose2d`` forward: the tap loop that scatters one einsum
  per tap onto the output grid.  It is the adjoint of the conv2d
  forward, kept as it was so inference stays bitwise; it is also the
  memory-lean input gradient when a strided column buffer would pass
  the budget.  Its backward runs the conv2d forward and weight-gradient
  kernels with the roles swapped.

Every GEMM path falls back to its tap loop when its buffer would pass
``IM2COL_MAX_BYTES``.  Einsum contraction paths are planned once per
(subscripts, shapes, dtypes) signature and memoized.

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
    and dtypes, so they are cached on exactly that key.  The cache saves
    the planning only: ``np.einsum`` still parses the subscripts and
    validates the memoized path against the operands on every call,
    which is why the hot backward kernels are GEMMs instead.
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


def _patch_fits(B: int, C: int, Ho: int, Wo: int, kh: int, kw: int,
                itemsize: int) -> bool:
    """Whether a ``(C*kh*kw, B*Ho*Wo)`` patch or column buffer stays
    within ``IM2COL_MAX_BYTES``."""
    return B * Ho * Wo * C * kh * kw * itemsize <= IM2COL_MAX_BYTES


def _use_im2col(B: int, C: int, Ho: int, Wo: int, kh: int, kw: int,
                itemsize: int) -> bool:
    if kh == 1 and kw == 1:
        return False            # 1x1 taps are already a single einsum
    return _patch_fits(B, C, Ho, Wo, kh, kw, itemsize)


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


def _conv_transpose2d_taps(x: np.ndarray, w: np.ndarray, stride: int,
                           padding: int, out_shape: Tuple[int, ...]
                           ) -> np.ndarray:
    """Transposed convolution as a tap loop: each tap's einsum is added
    onto the strided output positions it reaches.

    ``w`` is ``(Cin, Cout, kh, kw)`` read as a conv2d weight mapping the
    ``out_shape`` grid onto ``x``'s, so this is the adjoint of
    :func:`_conv2d_forward` with that weight.
    """
    B, Cout, H, W = out_shape
    _, _, kh, kw = w.shape
    Hi, Wi = x.shape[2], x.shape[3]
    yp = np.zeros((B, Cout, H + 2 * padding, W + 2 * padding), dtype=x.dtype)
    for k in range(kh):
        for l in range(kw):
            contrib = cached_einsum("bohw,oc->bchw", x, w[:, :, k, l])
            yp[:, :, k:k + stride * Hi:stride,
               l:l + stride * Wi:stride] += contrib
    if padding:
        return yp[:, :, padding:-padding, padding:-padding]
    return yp


def _conv2d_grad_input_flipped(g: np.ndarray, w: np.ndarray,
                               padding: int) -> np.ndarray:
    """Stride-1 input gradient of a square ``k x k`` kernel with
    ``padding < k``: the correlation of ``g``, padded by ``k - 1 - p``,
    with ``w`` rotated 180 degrees and its in/out channels swapped."""
    q = w.shape[2] - 1 - padding
    if q:
        g = _pad2d(g, q)
    return _conv2d_forward(g, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), 1, 0)


def _conv2d_grad_input_col2im(g: np.ndarray, w: np.ndarray, stride: int,
                              padding: int, in_shape: Tuple[int, ...]
                              ) -> np.ndarray:
    """Input gradient as one GEMM into a ``(B, Cin, kh, kw, Ho, Wo)``
    column buffer, then ``kh * kw`` strided adds onto the padded input
    grid (col2im)."""
    B, Cin, H, W = in_shape
    Cout, _, kh, kw = w.shape
    Ho, Wo = g.shape[2], g.shape[3]
    cols = (w.reshape(Cout, Cin * kh * kw).T
            @ g.reshape(B, Cout, Ho * Wo)).reshape(B, Cin, kh, kw, Ho, Wo)
    dxp = np.zeros((B, Cin, H + 2 * padding, W + 2 * padding), dtype=g.dtype)
    for k in range(kh):
        for l in range(kw):
            dxp[:, :, k:k + stride * Ho:stride,
                l:l + stride * Wo:stride] += cols[:, :, k, l]
    return dxp[:, :, padding:padding + H, padding:padding + W]


def _conv2d_grad_input(g: np.ndarray, w: np.ndarray, stride: int,
                       padding: int, in_shape: Tuple[int, ...]) -> np.ndarray:
    """Adjoint of :func:`_conv2d_forward` w.r.t. its input."""
    B, Cin, _, _ = in_shape
    _, _, kh, kw = w.shape
    # every stride-1 kxk conv the models train (k > 1, p < k): with
    # col2im here instead, the tiny models' training steps take ~1.2x
    # as long (one pinned CPU, OpenBLAS)
    if stride == 1 and kh == kw > 1 and padding < kh:
        return _conv2d_grad_input_flipped(g, w, padding)
    if _patch_fits(B, Cin, g.shape[2], g.shape[3], kh, kw, g.itemsize):
        return _conv2d_grad_input_col2im(g, w, stride, padding, in_shape)
    return _conv_transpose2d_taps(g, w, stride, padding, in_shape)


def _conv2d_grad_weight(x: np.ndarray, g: np.ndarray, stride: int,
                        padding: int, kshape: Tuple[int, int]) -> np.ndarray:
    """Adjoint of :func:`_conv2d_forward` w.r.t. its weight."""
    kh, kw = kshape
    if padding:
        x = _pad2d(x, padding)
    Ho, Wo = g.shape[2], g.shape[3]
    Cout, Cin = g.shape[1], x.shape[1]
    B = x.shape[0]
    if _patch_fits(B, Cin, Ho, Wo, kh, kw, x.itemsize):
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
    as the adjoint of :func:`conv2d`: the forward pass is the
    transposed-conv tap loop, and the backward passes reuse the conv
    forward / weight-gradient kernels with roles swapped.
    """
    x, w = as_tensor(x), as_tensor(w)
    bt: Optional[Tensor] = as_tensor(b) if b is not None else None
    B, Cin, H, W = x.data.shape
    Cin2, Cout, kh, kw = w.data.shape
    assert Cin == Cin2, f"channel mismatch: {Cin} vs {Cin2}"
    Ho, Wo = conv_transpose2d_out_shape(H, W, kh, kw, stride, padding,
                                        output_padding)
    y = _conv_transpose2d_taps(x.data, w.data, stride, padding,
                               (B, Cout, Ho, Wo))
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
