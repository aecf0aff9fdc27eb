"""Rule-based codecs: the six error-bounded coder families.

Each class binds one baseline compressor family
(:mod:`repro.baselines`) to the unified :class:`~repro.codecs.base.
Codec` contract.  The *only* divergence these families ever had — the
``error_bound`` (pointwise) vs ``rmse_bound`` (TTHRESH) keyword and the
raw-``bytes`` return — is normalized here once: the shared
:class:`RuleBasedCodec` base maps the native ``bound`` onto the
underlying keyword declared by :attr:`RuleBasedCodec.bound_arg` and
wraps the stream into a :class:`~repro.codecs.base.CodecResult` with
honest end-to-end accounting (``latent_bytes`` is exactly
``len(payload)``).

The reported reconstruction comes from the encoder side: each native
compressor's ``encode(frames, bound) -> (payload, reconstruction)``
returns the array its :meth:`decompress` would produce, so compress
never decodes the payload it just wrote.  The closed-loop predictors
(SZ, DPCM, FAZ's predictor) already hold that array; the open-loop
and transform coders (ZFP, MGARD, TTHRESH) run the decoder's own
synthesis function on the header fields read back from the stream and
the integer chunks they entropy-code.  The tests hold the
reconstruction bitwise equal to the decode.  Non-finite input is
rejected with one ``ValueError`` before any bound is normalized.
"""

from __future__ import annotations

import time
from typing import Optional, Type

import numpy as np

from ..baselines import (DPCMCompressor, FAZLikeCompressor,
                         MGARDLikeCompressor, SZLikeCompressor,
                         TTHRESHLikeCompressor, ZFPLikeCompressor)
from ..metrics import CompressionAccounting, nrmse
from .base import Bound, Codec, CodecCapabilities, CodecResult
from .registry import register_codec

__all__ = ["RuleBasedCodec", "SZCodec", "ZFPCodec", "TTHRESHCodec",
           "MGARDCodec", "DPCMCodec", "FAZCodec"]


def _require_finite(codec: str, frames) -> None:
    """Raise ``ValueError`` naming the first NaN/inf entry of ``frames``.

    The coders quantize ``x / eb`` to integers: a NaN or infinity has no
    bin, and numpy's float-to-int cast turns it into garbage that
    corrupts the predictions of its finite neighbours.
    """
    finite = np.isfinite(frames)
    if not finite.all():
        bad = np.flatnonzero(~finite)
        first = tuple(int(i) for i in np.unravel_index(bad[0],
                                                       finite.shape))
        raise ValueError(
            f"{codec} cannot compress non-finite input: {bad.size} of "
            f"{finite.size} values are NaN or infinite (first at index "
            f"{first})")


class RuleBasedCodec(Codec):
    """Shared adapter logic for the stateless rule-based coders."""

    #: native compressor class this codec drives
    impl_cls: Type = None
    #: keyword the native ``compress`` takes its bound under
    bound_arg: str = "error_bound"
    capabilities = CodecCapabilities(bound_kind="pointwise",
                                    requires_bound=True)

    def __init__(self, impl=None, *, original_dtype_bytes: int = 4,
                 **impl_kwargs):
        if impl is not None and impl_kwargs:
            raise ValueError("give either impl or constructor kwargs")
        if impl is None:
            self._spec_params = dict(impl_kwargs,
                                     original_dtype_bytes=original_dtype_bytes)
        self._impl = impl if impl is not None else self.impl_cls(
            **impl_kwargs)
        self.original_dtype_bytes = original_dtype_bytes

    @classmethod
    def wrap(cls, obj) -> Optional["RuleBasedCodec"]:
        """Adopt a native compressor instance (see ``as_codec``)."""
        if cls.impl_cls is not None and type(obj) is cls.impl_cls:
            return cls(impl=obj)
        return None

    # ------------------------------------------------------------------
    def native_bound(self, frames: np.ndarray,
                     bound: Optional[Bound] = None) -> Optional[float]:
        # reject non-finite data before an NRMSE target turns it into
        # a NaN bound and blames the bound
        _require_finite(self.name, frames)
        return super().native_bound(frames, bound)

    def compress(self, frames: np.ndarray, bound: Optional[float] = None,
                 *, seed: int = 0) -> CodecResult:
        frames = np.asarray(frames, dtype=np.float64)
        if bound is None:
            raise ValueError(
                f"{self.name} is an error-bounded coder and requires a "
                f"{self.capabilities.bound_kind} bound")
        if not 0.0 < bound < float("inf"):  # the decoders refuse the same
            raise ValueError(f"{self.name} needs a finite positive bound, "
                             f"got {bound!r}")
        _require_finite(self.name, frames)
        t0 = time.perf_counter()
        payload, recon = self._impl.encode(frames, **{self.bound_arg:
                                                      float(bound)})
        seconds = time.perf_counter() - t0
        acc = CompressionAccounting(
            original_bytes=frames.size * self.original_dtype_bytes,
            latent_bytes=len(payload))
        return CodecResult(codec=self.name, payload_bytes=payload,
                           reconstruction=recon, accounting=acc,
                           achieved_nrmse=nrmse(frames, recon),
                           seed=seed, encode_seconds=seconds)

    def decompress(self, payload: bytes) -> np.ndarray:
        return self._impl.decompress(payload)


# ----------------------------------------------------------------------
@register_codec("szlike")
class SZCodec(RuleBasedCodec):
    """SZ3 analogue: interpolation-predictive, pointwise-bounded."""

    impl_cls = SZLikeCompressor


@register_codec("zfplike")
class ZFPCodec(RuleBasedCodec):
    """ZFP analogue: blockwise transform coding, pointwise-bounded."""

    impl_cls = ZFPLikeCompressor


@register_codec("tthresh")
class TTHRESHCodec(RuleBasedCodec):
    """TTHRESH analogue: HOSVD transform coding, RMSE-bounded."""

    impl_cls = TTHRESHLikeCompressor
    bound_arg = "rmse_bound"
    capabilities = CodecCapabilities(bound_kind="rmse",
                                    requires_bound=True)


@register_codec("mgard")
class MGARDCodec(RuleBasedCodec):
    """MGARD analogue: multilevel hierarchy, pointwise, progressive."""

    impl_cls = MGARDLikeCompressor
    capabilities = CodecCapabilities(bound_kind="pointwise",
                                    requires_bound=True,
                                    progressive=True)

    def decompress(self, payload: bytes,
                   max_level: Optional[int] = None) -> np.ndarray:
        """Full decode, or a progressive view via ``max_level``."""
        return self._impl.decompress(payload, max_level=max_level)


@register_codec("dpcm")
class DPCMCodec(RuleBasedCodec):
    """Temporal DPCM predictor, pointwise-bounded."""

    impl_cls = DPCMCompressor
    min_frames = 1


@register_codec("fazlike")
class FAZCodec(RuleBasedCodec):
    """FAZ analogue: auto-tuned best-of {wavelet, predictor}."""

    impl_cls = FAZLikeCompressor
