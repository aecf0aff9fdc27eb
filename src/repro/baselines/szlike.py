"""SZ3-analogue: interpolation-predictive, pointwise error-bounded.

SZ3's default pipeline predicts each value by multi-level spline
interpolation over already-reconstructed neighbours, quantizes the
prediction residual on a linear grid of width ``2*eb`` and entropy-codes
the quantization bins [27].  This module implements the same family for
``(T, H, W)`` stacks:

* level ``L``: the coarse lattice (every ``2^L``-th sample along each
  axis) is quantized directly;
* descending levels: midpoints along each axis are predicted by linear
  interpolation *of reconstructed values* and their residuals quantized
  — every operation is vectorized over the whole lattice (see the HPC
  guide: no per-element Python loops);
* the pointwise bound ``|x - x̂|_inf <= eb`` holds by construction
  because every residual is quantized against its own reconstruction.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..entropy.coder import EntropyDecodeError
from ..postprocess.coding import decode_ints, encode_ints

__all__ = ["SZLikeCompressor"]

_MAGIC = b"SZL1"


@dataclass
class _Plan:
    """One interpolation pass: axis and lattice strides."""

    axis: int
    step: int  # predict points at odd multiples of step along axis


def _interp_plan(shape: Tuple[int, ...], max_level: int) -> List[_Plan]:
    """Coarse-to-fine passes over all axes."""
    plans = []
    for level in range(max_level, 0, -1):
        step = 2 ** (level - 1)
        for axis in range(len(shape)):
            if shape[axis] > step:
                plans.append(_Plan(axis=axis, step=step))
    return plans


def _check_count(q: np.ndarray, expected: int, shape) -> None:
    if q.size != expected:
        raise EntropyDecodeError(
            f"SZ-like stream holds {q.size} samples where header shape "
            f"{shape} implies {expected}")


class SZLikeCompressor:
    """Error-bounded predictive compressor (SZ3 family).

    Parameters
    ----------
    max_level:
        Number of dyadic interpolation levels (the coarse lattice has
        stride ``2**max_level``).
    """

    name = "SZ3-like"

    def __init__(self, max_level: int = 4):
        if max_level < 1:
            raise ValueError("max_level must be >= 1")
        self.max_level = max_level

    # ------------------------------------------------------------------
    def compress(self, frames: np.ndarray, error_bound: float) -> bytes:
        """Compress with pointwise absolute bound ``error_bound``."""
        return self.encode(frames, error_bound)[0]

    def encode(self, frames: np.ndarray, error_bound: float
               ) -> Tuple[bytes, np.ndarray]:
        """``(payload, reconstruction)``: the closed loop already holds
        the decoder's output, bit for bit what :meth:`decompress`
        returns."""
        header, chunks, recon = self.quantize(frames, error_bound)
        return header + b"".join(encode_ints(c) for c in chunks), recon

    def quantize(self, frames: np.ndarray, error_bound: float
                 ) -> Tuple[bytes, List[np.ndarray], np.ndarray]:
        """:meth:`encode` before entropy coding: ``(header, integer
        streams, reconstruction)``."""
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 3:
            raise ValueError(f"expected (T, H, W), got {frames.shape}")
        if error_bound <= 0:
            raise ValueError("error_bound must be positive")
        eb = float(error_bound)
        recon = np.zeros(frames.shape)
        chunks: List[np.ndarray] = []

        cs = 2 ** self.max_level
        coarse = frames[::cs, ::cs, ::cs]
        q0 = np.rint(coarse / (2 * eb)).astype(np.int64)
        recon[::cs, ::cs, ::cs] = q0 * (2 * eb)
        chunks.append(q0.ravel())

        for plan in _interp_plan(frames.shape, self.max_level):
            pred, targets = self._predict(recon, frames.shape, plan)
            truth = frames[targets]
            q = np.rint((truth - pred) / (2 * eb)).astype(np.int64)
            recon[targets] = pred + q * (2 * eb)
            chunks.append(q.ravel())

        return _MAGIC + struct.pack("<IIId", *frames.shape, eb), chunks, recon

    # ------------------------------------------------------------------
    def decompress(self, data: bytes) -> np.ndarray:
        if data[:4] != _MAGIC:
            raise ValueError("not an SZ-like stream")
        T, H, W, eb = struct.unpack_from("<IIId", data, 4)
        pos = 4 + struct.calcsize("<IIId")
        shape = (T, H, W)

        # the coarse lattice decodes first: its sample count must be the
        # one the header's shape implies before that shape is allocated
        cs = 2 ** self.max_level
        q0, pos = decode_ints(data, pos)
        lattice = tuple(-(-n // cs) for n in shape)
        _check_count(q0, math.prod(lattice), shape)
        recon = np.zeros(shape)
        recon[::cs, ::cs, ::cs] = q0.reshape(lattice) * (2 * eb)

        for plan in _interp_plan(shape, self.max_level):
            pred, targets = self._predict(recon, shape, plan)
            q, pos = decode_ints(data, pos)
            _check_count(q, pred.size, shape)
            recon[targets] = pred + q.reshape(pred.shape) * (2 * eb)
        return recon

    # ------------------------------------------------------------------
    @staticmethod
    def _predict(recon: np.ndarray, shape: Tuple[int, ...],
                 plan: _Plan) -> Tuple[np.ndarray, Tuple]:
        """Linear interpolation of midpoints along ``plan.axis``.

        Known samples sit at even multiples of ``step`` on this axis
        (and at multiples of ``step`` on finer-processed axes);
        midpoints at odd multiples are predicted as the mean of their
        two neighbours (copy at the boundary).  Returns the prediction
        array and the index tuple selecting the target positions.
        """
        axis, step = plan.axis, plan.step
        n = shape[axis]
        # positions to fill: odd multiples of step
        odd = np.arange(step, n, 2 * step)
        if odd.size == 0:
            return (np.zeros((0,)),
                    tuple(slice(None) if a != axis else np.array([], int)
                          for a in range(len(shape))))

        def take(idx_along_axis):
            # axes before the current one were refined earlier in this
            # level's pass order (stride `step`); later axes are still
            # at stride ``2*step``.
            sl = [slice(None, None, step) if a < axis
                  else slice(None, None, 2 * step) if a > axis
                  else idx_along_axis
                  for a in range(len(shape))]
            return tuple(sl)

        left = recon[take(odd - step)]
        # neighbours beyond the end fall back to the left value
        valid = odd + step < n
        right_pos = np.where(valid, odd + step, odd - step)
        right = recon[take(right_pos)]
        pred = 0.5 * (left + right)
        targets = take(odd)
        return pred, targets
