"""Non-parametric fully factorized density model for the hyper-latent.

Implements the univariate cumulative model of Ballé et al. (2018),
"Variational image compression with a scale hyperprior", Appendix 6.1 —
the paper cites it as "[4] the non-parametric, fully factorized density
model p(z)".  Each channel ``c`` owns a small monotone MLP whose output
passed through a sigmoid is the channel's CDF; the probability of a
quantized value is the CDF difference across the unit-width bin
(the ``* U(-0.5, 0.5)`` convolution of Eq. 1).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import Module, Parameter, Tensor, no_grad
from ..nn import functional as F
from .backend import DEFAULT_BACKEND, get_backend
from .coder import pmf_to_cumulative
from .tablecoder import TableCache, get_table_cache

__all__ = ["FactorizedDensity"]

_LIKELIHOOD_FLOOR = 1e-9


class FactorizedDensity(Module):
    """Learned factorized prior over a ``C``-channel latent.

    Parameters
    ----------
    channels:
        Number of latent channels (each gets its own density).
    filters:
        Hidden widths of the monotone CDF network.
    init_scale:
        Initial spread of the density; the default covers roughly
        ``[-init_scale, init_scale]``.
    """

    def __init__(self, channels: int, filters: Sequence[int] = (3, 3, 3),
                 init_scale: float = 10.0,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.channels = channels
        self.filters = tuple(filters)
        dims = (1,) + self.filters + (1,)
        self._K = len(dims) - 1
        scale = init_scale ** (1.0 / self._K)
        for k in range(self._K):
            r_in, r_out = dims[k], dims[k + 1]
            # softplus(H) ~ 1/(scale * r_out) keeps the initial CDF a
            # gentle sigmoid spanning +-init_scale.
            h0 = np.log(np.expm1(1.0 / scale / r_out))
            H = np.full((channels, r_out, r_in), h0)
            setattr(self, f"H{k}", Parameter(H))
            setattr(self, f"b{k}",
                    Parameter(rng.uniform(-0.5, 0.5, (channels, r_out, 1))))
            if k < self._K - 1:
                setattr(self, f"a{k}",
                        Parameter(np.zeros((channels, r_out, 1))))

    # ------------------------------------------------------------------
    def _logits(self, x: Tensor) -> Tensor:
        """Monotone network producing CDF logits.

        ``x``: tensor of shape ``(C, 1, M)`` — M samples per channel.
        """
        u = x
        for k in range(self._K):
            H = getattr(self, f"H{k}")
            b = getattr(self, f"b{k}")
            u = F.matmul(F.softplus(H), u) + b
            if k < self._K - 1:
                a = getattr(self, f"a{k}")
                u = u + F.tanh(a) * F.tanh(u)
        return u

    def cdf(self, x: Tensor) -> Tensor:
        """Channelwise CDF evaluated at ``x`` of shape ``(C, 1, M)``."""
        return F.sigmoid(self._logits(x))

    def likelihood(self, z: Tensor) -> Tensor:
        """``p(z̃)`` for (noisy or rounded) latents shaped ``(B, C, ...)``.

        Returns a tensor with the same shape as ``z``.
        """
        shape = z.shape
        B, C = shape[0], shape[1]
        if C != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {C}")
        m = int(np.prod(shape)) // (B * C)
        # (B, C, m) -> (C, 1, B*m)
        flat = F.reshape(z, (B, C, m))
        flat = F.swapaxes(flat, 0, 1)
        flat = F.reshape(flat, (C, 1, B * m))
        upper = self.cdf(flat + 0.5)
        lower = self.cdf(flat - 0.5)
        like = F.lower_bound(upper - lower, _LIKELIHOOD_FLOOR)
        like = F.reshape(like, (C, B, m))
        like = F.swapaxes(like, 0, 1)
        return F.reshape(like, shape)

    def bits(self, z: Tensor) -> Tensor:
        """Total bit cost ``E[-log2 p(z)]`` (a scalar tensor)."""
        like = self.likelihood(z)
        return F.sum(F.log(like)) * (-1.0 / np.log(2.0))

    # ------------------------------------------------------------------
    # Actual entropy coding of rounded hyper-latents
    # ------------------------------------------------------------------
    def _integer_cdf_tables(self, zmin: int, zmax: int) -> np.ndarray:
        """Quantized cumulative tables over ``[zmin, zmax]`` per channel.

        Memoized in the process
        :class:`~repro.entropy.tablecoder.TableCache` keyed on a digest
        of the model parameters plus the support bounds: the CDF
        network forward pass and quantization repeat identically for
        every window of a sweep, so they run once per distinct
        ``(weights, zmin, zmax)`` instead of per compress/decompress.
        """
        key = ("factorized-cdf",
               TableCache.digest(*(p.numpy()
                                   for _, p in self.named_parameters())),
               int(zmin), int(zmax))
        return get_table_cache().get(
            key, lambda: self._build_integer_cdf_tables(zmin, zmax))

    def _build_integer_cdf_tables(self, zmin: int, zmax: int) -> np.ndarray:
        support = np.arange(zmin, zmax + 1, dtype=np.float64)
        M = support.size
        with no_grad():
            grid = Tensor(np.broadcast_to(
                support, (self.channels, 1, M)).copy())
            upper = self.cdf(grid + 0.5).numpy()
            lower = self.cdf(grid - 0.5).numpy()
        pmf = np.maximum(upper - lower, _LIKELIHOOD_FLOOR)[:, 0, :]
        # Fold tail mass beyond the support into the edge bins so the
        # tables stay a proper distribution.
        lo_tail = lower[:, 0, 0]
        hi_tail = 1.0 - upper[:, 0, -1]
        pmf[:, 0] += np.maximum(lo_tail, 0.0)
        pmf[:, -1] += np.maximum(hi_tail, 0.0)
        tables = pmf_to_cumulative(pmf)
        tables.setflags(write=False)  # cached: shared across callers
        return tables

    def compress(self, z_int: np.ndarray,
                 backend=None) -> Tuple[bytes, Dict[str, int]]:
        """Losslessly encode rounded hyper-latents ``(B, C, H, W)``.

        Returns the byte stream plus the header needed to decode
        (support bounds and shape live in the caller's container).
        ``backend`` selects the entropy coder
        (:func:`repro.entropy.backend.get_backend`; ``None`` uses the
        calling thread's default); non-default choices are recorded in the
        header so :meth:`decompress` self-selects.
        """
        z_int = np.asarray(z_int)
        zmin = int(min(z_int.min(), 0))
        zmax = int(max(z_int.max(), 0))
        tables = self._integer_cdf_tables(zmin, zmax)
        B, C = z_int.shape[0], z_int.shape[1]
        m = z_int.size // (B * C)
        symbols = (z_int.reshape(B, C, m) - zmin).astype(np.int64)
        contexts = np.broadcast_to(np.arange(C)[None, :, None],
                                   (B, C, m)).ravel()
        coder = get_backend(backend)
        data = coder.encode(symbols.ravel(), tables, contexts)
        header = {"zmin": zmin, "zmax": zmax}
        if coder.name != DEFAULT_BACKEND:
            header["backend"] = coder.name
        return data, header

    def decompress(self, data: bytes, shape: Sequence[int],
                   header: Dict[str, int]) -> np.ndarray:
        """Inverse of :meth:`compress`.

        Headers without a ``"backend"`` entry are legacy arithmetic
        streams and decode bit-identically through the default coder.
        """
        shape = tuple(shape)
        B, C = shape[0], shape[1]
        m = int(np.prod(shape)) // (B * C)
        tables = self._integer_cdf_tables(header["zmin"], header["zmax"])
        contexts = np.broadcast_to(np.arange(C)[None, :, None],
                                   (B, C, m)).ravel()
        coder = get_backend(header.get("backend", DEFAULT_BACKEND))
        symbols = coder.decode(data, tables, contexts)
        return (symbols + header["zmin"]).reshape(shape).astype(np.float64)
