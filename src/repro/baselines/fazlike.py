"""FAZ-analogue: modular auto-tuned wavelet / predictor compressor.

FAZ [29] is a modular framework that combines prediction schemes and
wavelet transforms, auto-tuning the pipeline per dataset.  This module
implements the same two-module family:

* a **reversible wavelet coder**: the data is pre-quantized to the
  error grid (``q = round(x / 2eb)``, pointwise error ``<= eb``), then
  transformed by a multi-level *integer* CDF 5/3 lifting wavelet —
  exactly invertible on integers, so the transform adds no error — and
  the subbands are entropy-coded per level;
* the **interpolation predictor** of :class:`~repro.baselines.szlike.
  SZLikeCompressor`;

:class:`FAZLikeCompressor.compress` runs both candidate pipelines and
keeps whichever stream is smaller (a 1-byte selector records the
choice), which is FAZ's auto-tuning in its simplest honest form.  Both
candidates guarantee the same pointwise bound, so the selection cannot
weaken the guarantee.
"""

from __future__ import annotations

import math
import struct
from typing import List, Tuple

import numpy as np

from ..entropy.backend import DEFAULT_BACKEND, get_backend
from ..entropy.coder import EntropyDecodeError
from ..postprocess.coding import (ESTIMATE_ERROR_BYTES, check_header_float,
                                  decode_ints, encode_ints,
                                  estimate_encoded_size)
from .mgard import MAX_LEVELS
from .szlike import SZLikeCompressor

__all__ = ["FAZLikeCompressor", "WaveletCoder", "lift_forward",
           "lift_inverse"]

_MAGIC = b"FAZ1"
_WAVELET_MAGIC = b"WVL1"
_WHDR = "<IIIId"  # T, H, W, levels, eb

_TAG_WAVELET = 0
_TAG_PREDICTOR = 1


# ----------------------------------------------------------------------
# integer CDF 5/3 lifting along one axis (JPEG2000 reversible filter)
# ----------------------------------------------------------------------
def lift_forward(x: np.ndarray, axis: int) -> np.ndarray:
    """One forward 5/3 lifting pass along ``axis``.

    Returns an int64 array with the approximation band in the first
    ``ceil(n/2)`` slots and the detail band after it.  Exactly
    invertible by :func:`lift_inverse` (whole-sample symmetric
    boundary extension).
    """
    x = np.moveaxis(np.asarray(x, dtype=np.int64), axis, 0)
    n = x.shape[0]
    if n < 2:
        return np.moveaxis(x.copy(), 0, axis)
    s = x[0::2].copy()
    d = x[1::2].copy()
    nd = d.shape[0]
    # predict: d[i] -= floor((s[i] + s[i+1]) / 2); mirror at the end
    right = s[1:nd + 1] if s.shape[0] > nd else np.concatenate(
        [s[1:], s[-1:]], axis=0)
    d -= np.floor_divide(s[:nd] + right, 2)
    # update: s[i] += floor((d[i-1] + d[i] + 2) / 4); mirror both ends
    ns = s.shape[0]
    dprev = np.concatenate([d[:1], d[:ns - 1]], axis=0)
    dcur = d[:ns] if nd >= ns else np.concatenate([d, d[-1:]], axis=0)
    s += np.floor_divide(dprev + dcur + 2, 4)
    out = np.concatenate([s, d], axis=0)
    return np.moveaxis(out, 0, axis)


def lift_inverse(w: np.ndarray, axis: int) -> np.ndarray:
    """Exact inverse of :func:`lift_forward`."""
    w = np.moveaxis(np.asarray(w, dtype=np.int64), axis, 0)
    n = w.shape[0]
    if n < 2:
        return np.moveaxis(w.copy(), 0, axis)
    ns = (n + 1) // 2
    s = w[:ns].copy()
    d = w[ns:].copy()
    nd = d.shape[0]
    dprev = np.concatenate([d[:1], d[:ns - 1]], axis=0)
    dcur = d[:ns] if nd >= ns else np.concatenate([d, d[-1:]], axis=0)
    s -= np.floor_divide(dprev + dcur + 2, 4)
    right = s[1:nd + 1] if ns > nd else np.concatenate(
        [s[1:], s[-1:]], axis=0)
    d += np.floor_divide(s[:nd] + right, 2)
    out = np.empty_like(w)
    out[0::2] = s
    out[1::2] = d
    return np.moveaxis(out, 0, axis)


def _corner_sizes(shape: Tuple[int, ...], levels: int
                  ) -> List[Tuple[int, ...]]:
    """Low-pass corner shape after each level (index 0 = input shape)."""
    sizes = [tuple(shape)]
    cur = tuple(shape)
    for _ in range(levels):
        cur = tuple((n + 1) // 2 if n > 1 else n for n in cur)
        sizes.append(cur)
    return sizes


class WaveletCoder:
    """Multi-level reversible 5/3 coder with a pointwise bound."""

    name = "wavelet-5/3"

    def __init__(self, levels: int = 3):
        if not 1 <= levels <= MAX_LEVELS:
            raise ValueError(f"levels must be in [1, {MAX_LEVELS}]")
        self.levels = levels

    def compress(self, frames: np.ndarray, error_bound: float) -> bytes:
        return self.encode(frames, error_bound)[0]

    def encode(self, frames: np.ndarray, error_bound: float
               ) -> Tuple[bytes, np.ndarray]:
        """``(payload, reconstruction)``.  The lifting is exactly
        invertible on integers, so :meth:`decompress` returns the
        pre-quantized grid ``q * 2eb``, which is the reconstruction."""
        header, streams, recon = self.quantize(frames, error_bound)
        return header + b"".join(encode_ints(s) for s in streams), recon

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
        q = np.rint(frames / (2 * eb)).astype(np.int64)

        sizes = _corner_sizes(frames.shape, self.levels)
        work = q.copy()
        details: List[np.ndarray] = []
        for lv in range(self.levels):
            cur = sizes[lv]
            nxt = sizes[lv + 1]
            block = work[:cur[0], :cur[1], :cur[2]].copy()
            for axis in range(3):
                block = lift_forward(block, axis)
            work[:cur[0], :cur[1], :cur[2]] = block
            mask = np.ones(cur, dtype=bool)
            mask[:nxt[0], :nxt[1], :nxt[2]] = False
            details.append(block[mask])
        coarse = work[:sizes[-1][0], :sizes[-1][1], :sizes[-1][2]]

        header = _WAVELET_MAGIC + struct.pack(
            _WHDR, *frames.shape, self.levels, eb)
        # fine-to-coarse order is irrelevant; keep level order stable
        return (header, [coarse.ravel()] + details,
                q.astype(np.float64, order="C") * (2 * eb))

    def decompress(self, data: bytes) -> np.ndarray:
        """Every subband decodes, and its count is checked against the
        header's shape, before the shape is allocated
        (:class:`~repro.entropy.coder.EntropyDecodeError` otherwise)."""
        if data[:4] != _WAVELET_MAGIC:
            raise ValueError("not a wavelet stream")
        T, H, W, levels, eb = struct.unpack_from(_WHDR, data, 4)
        check_header_float(eb, "error bound")
        pos = 4 + struct.calcsize(_WHDR)
        shape = (T, H, W)
        if not 1 <= levels <= MAX_LEVELS:
            raise EntropyDecodeError(
                f"wavelet header names {levels} levels; at most "
                f"{MAX_LEVELS} halve an axis")
        sizes = _corner_sizes(shape, levels)
        counts = [math.prod(sizes[-1])] + [
            math.prod(sizes[lv]) - math.prod(sizes[lv + 1])
            for lv in range(levels)]
        bands = []
        for expected in counts:
            band, pos = decode_ints(data, pos)
            if band.size != expected:
                raise EntropyDecodeError(
                    f"wavelet stream holds {band.size} coefficients where "
                    f"header shape {shape} implies {expected}")
            bands.append(band)
        coarse, details = bands[0], bands[1:]

        work = np.zeros(shape, dtype=np.int64)
        work[:sizes[-1][0], :sizes[-1][1],
             :sizes[-1][2]] = coarse.reshape(sizes[-1])
        for lv in range(levels - 1, -1, -1):
            cur = sizes[lv]
            nxt = sizes[lv + 1]
            block = work[:cur[0], :cur[1], :cur[2]].copy()
            mask = np.ones(cur, dtype=bool)
            mask[:nxt[0], :nxt[1], :nxt[2]] = False
            block[mask] = details[lv]
            for axis in (2, 1, 0):
                block = lift_inverse(block, axis)
            work[:cur[0], :cur[1], :cur[2]] = block
        return work.astype(np.float64) * (2 * eb)


class FAZLikeCompressor:
    """Auto-tuned modular coder: best of {wavelet, predictor}.

    Parameters
    ----------
    levels:
        Transform depth shared by both candidate modules.
    """

    name = "FAZ-like"

    def __init__(self, levels: int = 3):
        self.wavelet = WaveletCoder(levels=levels)
        self.predictor = SZLikeCompressor(max_level=levels)

    def compress(self, frames: np.ndarray, error_bound: float) -> bytes:
        """Compress with pointwise bound; keeps the smaller candidate."""
        return self.encode(frames, error_bound)[0]

    def encode(self, frames: np.ndarray, error_bound: float
               ) -> Tuple[bytes, np.ndarray]:
        """``(payload, reconstruction)`` of the smaller candidate.

        Both candidates are quantized, but only the one with the
        smaller estimated size is entropy coded.  When the estimates
        are too close to rank (or a non-default backend codes the
        bodies, which the estimate does not model), both are coded
        and the exact lengths decide, the wavelet winning ties.
        """
        cands = [(tag, *coder.quantize(frames, error_bound))
                 for tag, coder in ((_TAG_WAVELET, self.wavelet),
                                    (_TAG_PREDICTOR, self.predictor))]
        if get_backend(None).name == DEFAULT_BACKEND:
            est = [len(head) + sum(map(estimate_encoded_size, streams))
                   for _, head, streams, _ in cands]
            slack = ESTIMATE_ERROR_BYTES * sum(len(c[2]) for c in cands)
            if abs(est[0] - est[1]) > slack:
                cands = [cands[int(est[1] < est[0])]]
        coded = [(head + b"".join(map(encode_ints, streams)), tag, recon)
                 for tag, head, streams, recon in cands]
        payload, tag, recon = min(coded, key=lambda c: len(c[0]))
        return _MAGIC + bytes([tag]) + payload, recon

    def decompress(self, data: bytes) -> np.ndarray:
        if data[:4] != _MAGIC:
            raise ValueError("not a FAZ-like stream")
        tag = data[4]
        body = data[5:]
        if tag == _TAG_WAVELET:
            return self.wavelet.decompress(body)
        if tag == _TAG_PREDICTOR:
            return self.predictor.decompress(body)
        raise ValueError(f"unknown FAZ-like module tag {tag}")

    def chosen_module(self, data: bytes) -> str:
        """Which module an existing stream used (for reporting)."""
        if data[:4] != _MAGIC:
            raise ValueError("not a FAZ-like stream")
        return ("wavelet" if data[4] == _TAG_WAVELET else "predictor")
