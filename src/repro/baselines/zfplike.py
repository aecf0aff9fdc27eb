"""ZFP-analogue: blockwise near-orthogonal transform coding.

ZFP [28] partitions data into 4^d blocks, applies a fast near-orthogonal
decorrelating transform and encodes coefficients by bit planes.  This
analogue keeps the essential structure for ``(T, H, W)`` stacks:

* non-overlapping ``4x4`` spatial blocks per frame,
* ZFP's forward lifting transform applied separably along both axes
  (the exact integer-friendly matrix from the ZFP paper, here in
  floating point),
* uniform coefficient quantization with a step chosen from the error
  bound and the transform's operator norm (giving a true pointwise
  bound, slightly conservative like fixed-accuracy ZFP),
* arithmetic coding of the quantized coefficients grouped by their
  within-block frequency (DC and AC bands get separate contexts).

Being transform-based with short blocks, it decorrelates less than the
prediction-based SZ analogue on smooth fields — reproducing the
SZ3-over-ZFP ordering the paper reports.
"""

from __future__ import annotations

import struct
from typing import Tuple

import numpy as np

from ..postprocess.coding import check_header_float, decode_ints, encode_ints

__all__ = ["ZFPLikeCompressor"]

_MAGIC = b"ZFL1"
_HDR = "<IIIIId"  # T, H, W, padded H, padded W, eb

# ZFP's near-orthogonal 4-point decorrelating transform.
_ZFP_T = np.array([
    [4, 4, 4, 4],
    [5, 1, -1, -5],
    [-4, 4, 4, -4],
    [-2, 6, -6, 2],
], dtype=np.float64) / 16.0
_ZFP_TI = np.linalg.inv(_ZFP_T)

#: Worst-case amplification ||T^-1||_inf used for the pointwise bound.
_INV_NORM = float(np.abs(np.kron(_ZFP_TI, _ZFP_TI)).sum(axis=1).max())


def _pad_to(x: np.ndarray, mult: int) -> np.ndarray:
    T, H, W = x.shape
    Hp, Wp = -(-H // mult) * mult, -(-W // mult) * mult
    if (Hp, Wp) == (H, W):
        return x
    return np.pad(x, ((0, 0), (0, Hp - H), (0, Wp - W)), mode="edge")


def _block_view(x: np.ndarray) -> np.ndarray:
    """(T, H, W) -> (T*nb, 4, 4) non-overlapping block rows."""
    T, H, W = x.shape
    return (x.reshape(T, H // 4, 4, W // 4, 4)
            .transpose(0, 1, 3, 2, 4)
            .reshape(-1, 4, 4))


def _unblock(blocks: np.ndarray, shape: Tuple[int, int, int]) -> np.ndarray:
    T, H, W = shape
    return (blocks.reshape(T, H // 4, W // 4, 4, 4)
            .transpose(0, 1, 3, 2, 4)
            .reshape(T, H, W))


class ZFPLikeCompressor:
    """Error-bounded transform compressor (ZFP family)."""

    name = "ZFP-like"

    def compress(self, frames: np.ndarray, error_bound: float) -> bytes:
        return self.encode(frames, error_bound)[0]

    def encode(self, frames: np.ndarray, error_bound: float
               ) -> Tuple[bytes, np.ndarray]:
        """``(payload, reconstruction)``; the reconstruction runs
        :meth:`decompress`'s inverse transform on the same inputs."""
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 3:
            raise ValueError(f"expected (T, H, W), got {frames.shape}")
        if error_bound <= 0:
            raise ValueError("error_bound must be positive")
        T, H, W = frames.shape
        padded = _pad_to(frames, 4)
        blocks = _block_view(padded)
        # separable transform: rows then columns
        coef = np.einsum("ij,bjk,lk->bil", _ZFP_T, blocks, _ZFP_T,
                         optimize=True)
        qstep = 2.0 * error_bound / _INV_NORM
        q = np.rint(coef / qstep).astype(np.int64)
        header = _MAGIC + struct.pack(_HDR, T, H, W, padded.shape[1],
                                      padded.shape[2], error_bound)
        # separate contexts: DC coefficient vs the 15 AC coefficients
        dc = q[:, 0, 0]
        ac = q.reshape(-1, 16)[:, 1:].ravel()
        payload = header + encode_ints(dc) + encode_ints(ac)
        return payload, _reconstruct(struct.unpack_from(_HDR, header, 4),
                                     dc, ac)

    def decompress(self, data: bytes) -> np.ndarray:
        if data[:4] != _MAGIC:
            raise ValueError("not a ZFP-like stream")
        header = struct.unpack_from(_HDR, data, 4)
        check_header_float(header[5], "error bound")
        pos = 4 + struct.calcsize(_HDR)
        dc, pos = decode_ints(data, pos)
        ac, pos = decode_ints(data, pos)
        return _reconstruct(header, dc, ac)


def _reconstruct(header: Tuple, dc: np.ndarray,
                 ac: np.ndarray) -> np.ndarray:
    """Inverse transform of the quantized DC and AC coefficients.

    ``header`` holds the fields as read back from the stream, so the
    encoder's reconstruction and :meth:`ZFPLikeCompressor.decompress`
    are one computation on identical inputs.
    """
    T, H, W, Hp, Wp, eb = header
    nb = dc.size
    q = np.zeros((nb, 16), dtype=np.int64)
    q[:, 0] = dc
    q[:, 1:] = ac.reshape(nb, 15)
    qstep = 2.0 * eb / _INV_NORM
    coef = q.reshape(nb, 4, 4).astype(np.float64) * qstep
    blocks = np.einsum("ij,bjk,lk->bil", _ZFP_TI, coef, _ZFP_TI,
                       optimize=True)
    padded = _unblock(blocks, (T, Hp, Wp))
    return padded[:, :H, :W]
