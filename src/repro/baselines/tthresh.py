"""TTHRESH-analogue: HOSVD tensor compression with an L2 bound.

TTHRESH [5] compresses a multidimensional array by a higher-order SVD
(HOSVD): orthogonal factor matrices are computed from the SVD of each
mode unfolding, the data is rotated into the core-coefficient domain,
and the (rapidly decaying) core coefficients are coded progressively.
This module implements the same family for ``(T, H, W)`` stacks:

* mode-k factor matrices ``U_k`` from the unfolding SVDs, truncated to
  the smallest ranks whose discarded energy fits a share of the error
  budget (orthogonality makes discarded energy exactly the L2 error);
* uniform quantization of the core with the largest step whose
  *measured* reconstruction error still meets the bound (TTHRESH codes
  bitplanes; a searched uniform step plus an arithmetic coder is the
  same rate-distortion family with a simpler stream);
* factor matrices stored as float32 — their rounding error is covered
  by the verify-and-shrink loop, so the bound that is returned is the
  one actually measured against the decompressed output.

Unlike the pointwise-bounded predictors (:mod:`repro.baselines.szlike`),
the natural guarantee of an orthogonal-transform coder is the global L2
norm; :meth:`TTHRESHLikeCompressor.compress` therefore takes an RMSE
target, mirroring TTHRESH's own error metric.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

import numpy as np

from ..postprocess.coding import check_header_float, decode_ints, encode_ints

__all__ = ["TTHRESHLikeCompressor", "hosvd", "tucker_reconstruct"]

_MAGIC = b"TTH1"
_HDR = "<IIIIIId"  # shape (3), ranks (3), quant step


def _unfold(x: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding: mode axis first, rest flattened."""
    return np.moveaxis(x, mode, 0).reshape(x.shape[mode], -1)


def _mode_dot(x: np.ndarray, mat: np.ndarray, mode: int) -> np.ndarray:
    """Tensor-times-matrix along ``mode`` (contract x's mode axis)."""
    moved = np.moveaxis(x, mode, -1)
    out = moved @ mat.T
    return np.moveaxis(out, -1, mode)


def hosvd(x: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Full higher-order SVD: ``x = core x1 U0 x2 U1 x3 U2``.

    Returns the core tensor and the per-mode orthogonal factors.
    """
    x = np.asarray(x, dtype=np.float64)
    factors = []
    for mode in range(x.ndim):
        unf = _unfold(x, mode)
        # Left singular vectors only; economy SVD (HPC guide: prefer
        # full_matrices=False, the rest of U is never used).
        u, _, _ = np.linalg.svd(unf, full_matrices=False)
        factors.append(u)
    core = x
    for mode, u in enumerate(factors):
        core = _mode_dot(core, u.T, mode)
    return core, factors


def tucker_reconstruct(core: np.ndarray,
                       factors: List[np.ndarray]) -> np.ndarray:
    """Inverse of :func:`hosvd` for (possibly truncated) factors."""
    x = core
    for mode, u in enumerate(factors):
        x = _mode_dot(x, u, mode)
    return x


def _read_head(data: bytes) -> Tuple[tuple, int]:
    """``(ranks, step, factors)`` from a stream's head, and the offset
    of the coded core after it."""
    vals = struct.unpack_from(_HDR, data, 4)
    shape, ranks, step = vals[:3], vals[3:6], vals[6]
    check_header_float(step, "quantizer step")
    pos = 4 + struct.calcsize(_HDR)
    factors = []
    for n, r in zip(shape, ranks):
        u = np.frombuffer(data, dtype="<f4", count=n * r,
                          offset=pos).astype(np.float64).reshape(n, r)
        factors.append(u)
        pos += 4 * n * r
    return (ranks, step, factors), pos


def _reconstruct(ranks: Tuple[int, ...], step: float,
                 factors: List[np.ndarray], q: np.ndarray) -> np.ndarray:
    """Tucker product of the dequantized core with the stored factors.

    The encoder passes the fields it reads back from its own stream
    head, so its reconstruction and
    :meth:`TTHRESHLikeCompressor.decompress` are one computation on
    identical inputs.
    """
    core = (q.astype(np.float64) * step).reshape(ranks)
    return tucker_reconstruct(core, factors)


class TTHRESHLikeCompressor:
    """HOSVD transform coder with a measured L2 (RMSE) guarantee.

    Parameters
    ----------
    truncation_share:
        Fraction of the squared error budget spent on rank truncation
        (the rest goes to core quantization).
    """

    name = "TTHRESH-like"

    def __init__(self, truncation_share: float = 0.1):
        if not (0.0 <= truncation_share < 1.0):
            raise ValueError("truncation_share must be in [0, 1)")
        self.truncation_share = truncation_share

    # ------------------------------------------------------------------
    def compress(self, frames: np.ndarray, rmse_bound: float) -> bytes:
        """Compress so the decompressed RMSE is ``<= rmse_bound``.

        The guarantee is verified against the *actual* decode path
        (including float32 factor storage); the quantization step is
        shrunk until it holds.
        """
        return self.encode(frames, rmse_bound)[0]

    def encode(self, frames: np.ndarray, rmse_bound: float
               ) -> Tuple[bytes, np.ndarray]:
        """``(payload, reconstruction)``; the reconstruction runs
        :meth:`decompress`'s Tucker product on the same inputs."""
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 3:
            raise ValueError(f"expected (T, H, W), got {frames.shape}")
        if rmse_bound <= 0:
            raise ValueError("rmse_bound must be positive")
        tau2 = rmse_bound * rmse_bound * frames.size   # squared L2 budget

        core, factors = hosvd(frames)
        ranks = self._truncation_ranks(core, tau2 * self.truncation_share)
        core_t = core[tuple(slice(0, r) for r in ranks)]
        factors_t = [u[:, :r] for u, r in zip(factors, ranks)]
        trunc_err2 = float((core ** 2).sum() - (core_t ** 2).sum())

        quant_budget2 = max(tau2 - trunc_err2, 1e-300)
        # Start from the worst-case-safe step and grow it while the
        # measured error still fits; then refine downward if the float32
        # factor rounding pushed it over.
        step = 2.0 * np.sqrt(quant_budget2 / core_t.size)
        step = self._search_step(frames, core_t, factors_t, step, tau2)
        q = np.rint(core_t / step).astype(np.int64)

        header = _MAGIC + struct.pack(
            _HDR, *frames.shape, *ranks, step)
        parts = [header]
        for u in factors_t:
            parts.append(u.astype("<f4").tobytes())
        head = b"".join(parts)
        q = q.ravel()
        fields, _ = _read_head(head)
        return head + encode_ints(q), _reconstruct(*fields, q)

    # ------------------------------------------------------------------
    def decompress(self, data: bytes) -> np.ndarray:
        if data[:4] != _MAGIC:
            raise ValueError("not a TTHRESH-like stream")
        fields, pos = _read_head(data)
        q, _ = decode_ints(data, pos)
        return _reconstruct(*fields, q)

    # ------------------------------------------------------------------
    @staticmethod
    def _truncation_ranks(core: np.ndarray, budget2: float
                          ) -> Tuple[int, ...]:
        """Smallest per-mode ranks whose discarded energy <= budget2.

        Because the factors are orthogonal, the energy of a discarded
        mode-k slab is exactly its squared-sum contribution to the L2
        error; slabs are dropped greedily from the cheapest mode first.
        """
        ndim = core.ndim
        # slab energies per mode, from the last index inward
        energies = []
        for mode in range(ndim):
            sq = np.moveaxis(core, mode, 0) ** 2
            energies.append(sq.reshape(core.shape[mode], -1).sum(axis=1))
        ranks = list(core.shape)
        spent = 0.0
        # Greedy: repeatedly drop the smallest trailing slab across modes.
        while True:
            candidates = [(energies[m][ranks[m] - 1], m)
                          for m in range(ndim) if ranks[m] > 1]
            if not candidates:
                break
            e, m = min(candidates)
            if spent + e > budget2:
                break
            spent += e
            ranks[m] -= 1
            # energies of other modes change after truncation, but only
            # downward — the greedy drop stays safe (never exceeds the
            # budget) at the cost of slightly conservative ranks.
        return tuple(ranks)

    def _search_step(self, frames: np.ndarray, core_t: np.ndarray,
                     factors_t: List[np.ndarray], step: float,
                     tau2: float) -> float:
        """Largest quantization step whose measured error fits tau2."""
        f32 = [u.astype(np.float32).astype(np.float64) for u in factors_t]

        def err2(s: float) -> float:
            q = np.rint(core_t / s) * s
            rec = tucker_reconstruct(q, f32)
            return float(((frames - rec) ** 2).sum())

        # grow while safe
        grow = 0
        while err2(step * 2) <= tau2 and grow < 40:
            step *= 2
            grow += 1
        # shrink until safe (handles float32 factor rounding)
        shrink = 0
        while err2(step) > tau2 and shrink < 60:
            step *= 0.5
            shrink += 1
        if err2(step) > tau2:
            raise RuntimeError("could not satisfy RMSE bound")
        return step
