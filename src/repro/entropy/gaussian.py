"""Gaussian conditional entropy model ``p(y | mu, sigma)`` (Eqs. 1–2).

Each quantized latent element is modeled as
``N(mu_i, sigma_i^2) * U(-0.5, 0.5)`` — a Gaussian convolved with the
unit-width quantization noise — so its probability mass is the Gaussian
CDF difference across the rounding bin.  The hyperprior decoder supplies
``(mu, sigma)``.

For actual entropy coding, elements are binned by scale into a small
log-spaced scale table (64 bins, as in reference implementations) and
coded as mean-centered integer offsets.  The fractional part of the
mean is dropped when centering, a standard approximation that costs a
negligible fraction of a bit per element but keeps the decoder's tables
identical to the encoder's.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np
from scipy import special as _sp

from ..nn import Tensor, as_tensor
from ..nn import functional as F
from .backend import DEFAULT_BACKEND, get_backend
from .coder import pmf_to_cumulative
from .tablecoder import TableCache, get_table_cache

__all__ = ["SCALE_MIN", "build_scale_table", "gaussian_likelihood",
           "GaussianConditional"]

#: Lower bound on predicted scales (matches Ballé/Minnen reference code).
SCALE_MIN = 0.11

_LIKELIHOOD_FLOOR = 1e-9


def build_scale_table(levels: int = 64, smin: float = SCALE_MIN,
                      smax: float = 256.0) -> np.ndarray:
    """Log-spaced grid of representative scales for table-based coding."""
    return np.exp(np.linspace(math.log(smin), math.log(smax), levels))


def _std_normal_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + _sp.erf(x / math.sqrt(2.0)))


def gaussian_likelihood(y: Tensor, mu: Tensor, sigma: Tensor) -> Tensor:
    """Differentiable bin mass ``P(y - 0.5 < Y <= y + 0.5)`` (Eq. 2).

    ``sigma`` is lower-bounded at :data:`SCALE_MIN` with a
    gradient-friendly bound so the rate term stays well conditioned.
    """
    y, mu = as_tensor(y), as_tensor(mu)
    sigma = F.lower_bound(as_tensor(sigma), SCALE_MIN)
    inv = 1.0 / math.sqrt(2.0)
    upper = (y - mu + 0.5) / sigma
    lower = (y - mu - 0.5) / sigma
    cdf_u = (F.erf(upper * inv) + 1.0) * 0.5
    cdf_l = (F.erf(lower * inv) + 1.0) * 0.5
    return F.lower_bound(cdf_u - cdf_l, _LIKELIHOOD_FLOOR)


class GaussianConditional:
    """Rate model and entropy codec for hyperprior-conditioned latents."""

    def __init__(self, scale_table: np.ndarray = None):
        self.scale_table = (np.asarray(scale_table)
                            if scale_table is not None
                            else build_scale_table())

    # -- training-time rate ------------------------------------------------
    def bits(self, y: Tensor, mu: Tensor, sigma: Tensor) -> Tensor:
        """Total bit cost ``E[-log2 p(y | mu, sigma)]`` (scalar tensor)."""
        like = gaussian_likelihood(y, mu, sigma)
        return F.sum(F.log(like)) * (-1.0 / np.log(2.0))

    # -- coding -------------------------------------------------------------
    def _bin_indices(self, sigma: np.ndarray) -> np.ndarray:
        """Snap each scale to the nearest table entry (ceil convention)."""
        sigma = np.maximum(sigma, SCALE_MIN)
        return np.searchsorted(self.scale_table, sigma, side="left").clip(
            0, len(self.scale_table) - 1)

    def _offset_tables(self, L: int) -> np.ndarray:
        """Cumulative tables for offsets ``[-L, L]`` per scale bin.

        Memoized in the process
        :class:`~repro.entropy.tablecoder.TableCache`: the table
        depends only on ``(scale_table, L)``, which repeats identically
        across the windows and shards of a sweep, so the erf grid and
        quantization run once per distinct key instead of per call.
        """
        key = ("gauss-offsets", TableCache.digest(self.scale_table),
               int(L))
        return get_table_cache().get(
            key, lambda: self._build_offset_tables(L))

    def _build_offset_tables(self, L: int) -> np.ndarray:
        ks = np.arange(-L, L + 1, dtype=np.float64)
        sig = self.scale_table[:, None]
        pmf = (_std_normal_cdf((ks + 0.5) / sig)
               - _std_normal_cdf((ks - 0.5) / sig))
        pmf = np.maximum(pmf, _LIKELIHOOD_FLOOR)
        # fold tails into edges
        pmf[:, 0] += np.maximum(_std_normal_cdf((-L - 0.5) / sig[:, 0]), 0.0)
        pmf[:, -1] += np.maximum(1.0 - _std_normal_cdf((L + 0.5) / sig[:, 0]),
                                 0.0)
        tables = pmf_to_cumulative(pmf)
        tables.setflags(write=False)  # cached: shared across callers
        return tables

    def compress(self, y_int: np.ndarray, mu: np.ndarray,
                 sigma: np.ndarray,
                 backend=None) -> Tuple[bytes, Dict[str, int]]:
        """Encode rounded latents given the hyperprior's ``(mu, sigma)``.

        ``y_int``, ``mu`` and ``sigma`` must share one shape; the
        decoder must be driven with bit-identical ``mu``/``sigma``.
        ``backend`` selects the entropy coder (``None`` uses the
        calling thread's default); non-default choices are recorded in the
        header so :meth:`decompress` self-selects.
        """
        y_int = np.asarray(y_int)
        mu_round = np.rint(np.asarray(mu))
        offsets = (y_int - mu_round).astype(np.int64)
        L = int(max(1, np.abs(offsets).max() if offsets.size else 1))
        tables = self._offset_tables(L)
        contexts = self._bin_indices(np.asarray(sigma)).ravel()
        coder = get_backend(backend)
        data = coder.encode(offsets.ravel() + L, tables, contexts)
        header = {"L": L}
        if coder.name != DEFAULT_BACKEND:
            header["backend"] = coder.name
        return data, header

    def decompress(self, data: bytes, mu: np.ndarray, sigma: np.ndarray,
                   header: Dict[str, int]) -> np.ndarray:
        """Inverse of :meth:`compress`; returns rounded latents.

        Headers without a ``"backend"`` entry are legacy arithmetic
        streams and decode bit-identically through the default coder.
        """
        L = int(header["L"])
        tables = self._offset_tables(L)
        contexts = self._bin_indices(np.asarray(sigma)).ravel()
        coder = get_backend(header.get("backend", DEFAULT_BACKEND))
        symbols = coder.decode(data, tables, contexts)
        mu_round = np.rint(np.asarray(mu))
        offsets = symbols.reshape(mu_round.shape) - L
        return (mu_round + offsets).astype(np.float64)
