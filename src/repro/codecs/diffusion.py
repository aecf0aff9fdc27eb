"""The paper's latent-diffusion compressor as a registered codec.

``get_codec("ours")`` wraps a :class:`~repro.pipeline.compressor.
LatentDiffusionCompressor`.  The codec payload is simply the
:class:`~repro.pipeline.blob.CompressedBlob` wire format.  An
untrained tiny/small-preset compressor is constructed when
none is supplied (useful for smoke tests); production use wraps a
trained compressor or loads one with :meth:`LatentDiffusionCodec.
from_bundle`.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..compression import VAEHyperprior
from ..config import small, tiny
from ..diffusion import ConditionalDDPM
from ..pipeline.blob import CompressedBlob
from ..pipeline.compressor import (CompressionResult,
                                   LatentDiffusionCompressor)
from .base import Bound, Codec, CodecCapabilities, CodecResult
from .registry import register_codec

__all__ = ["LatentDiffusionCodec"]

_PRESETS = {"tiny": tiny, "small": small}


@register_codec("ours")
class LatentDiffusionCodec(Codec):
    """Keyframe VAE + conditional latent diffusion (Sec. 3)."""

    capabilities = CodecCapabilities(bound_kind="l2", needs_training=True,
                                    learned=True)

    def __init__(self, compressor: Optional[LatentDiffusionCompressor]
                 = None, preset: str = "tiny"):
        if compressor is None:
            # preset-built (untrained, seeded init): spec-portable
            self._spec_params = {"preset": preset}
            cfg = _PRESETS[preset]()
            ddpm = ConditionalDDPM(cfg.diffusion)
            compressor = LatentDiffusionCompressor(
                VAEHyperprior(cfg.vae), ddpm, cfg.pipeline)
        self._impl = compressor

    @classmethod
    def wrap(cls, obj) -> Optional["LatentDiffusionCodec"]:
        if isinstance(obj, LatentDiffusionCompressor):
            return cls(compressor=obj)
        return None

    @classmethod
    def from_bundle(cls, path: str) -> "LatentDiffusionCodec":
        """Load a trained model bundle (see ``repro.pipeline.bundle``).

        The codec comes back *spec-portable* (it remembers the
        artifact path, so process-pool sweeps work).  A ``.npz``
        without an artifact manifest raises ``ValueError``.
        """
        from ..pipeline.artifacts import load_artifact
        codec = load_artifact(path)
        if not isinstance(codec, cls):
            raise ValueError(f"{path!r} is a {codec.name!r} "
                             f"artifact, not an 'ours' bundle")
        return codec

    # -- trained-state artifacts ----------------------------------------
    def artifact_state(self) -> dict:
        """Bundle-layout state (vae/ddpm/pca arrays + config JSON)."""
        from ..pipeline.bundle import compressor_state
        return compressor_state(self._impl)

    @classmethod
    def from_artifact_state(cls, state: dict) -> "LatentDiffusionCodec":
        """Construct directly from saved state — the config travels
        inside ``config_json``, so no throwaway preset model is built
        (the artifact-load fast path used by process-pool workers)."""
        from ..pipeline.bundle import compressor_from_state
        return cls(compressor=compressor_from_state(state))

    def load_artifact_state(self, state: dict) -> None:
        """Rebuild the wrapped compressor wholesale from saved state."""
        from ..pipeline.bundle import compressor_from_state
        self._impl = compressor_from_state(state)

    def artifact_params(self) -> dict:
        # the state embeds the full config (compressor_state), so no
        # constructor recipe is required; keep the preset if known
        params = getattr(self, "_spec_params", None)
        return dict(params) if params else {}

    # ------------------------------------------------------------------
    @property
    def compressor(self) -> LatentDiffusionCompressor:
        return self._impl

    @property
    def label(self) -> str:
        return "Ours"

    @property
    def window(self) -> int:
        return self._impl.config.window

    @property
    def min_frames(self) -> int:
        return self._impl.config.window

    # ------------------------------------------------------------------
    def native_bound(self, frames: np.ndarray,
                     bound: Optional[Bound] = None) -> Optional[float]:
        # the pipeline takes an NRMSE target's data range in float64,
        # whatever the input dtype (a float32 range can round)
        return super().native_bound(np.asarray(frames, dtype=np.float64),
                                    bound)

    def compress(self, frames: np.ndarray, bound: Optional[float] = None,
                 *, seed: int = 0) -> CodecResult:
        t0 = time.perf_counter()
        res: CompressionResult = self._impl.compress(
            frames, error_bound=bound, noise_seed=seed)
        seconds = time.perf_counter() - t0
        return CodecResult(codec=self.name,
                           reconstruction=res.reconstruction,
                           accounting=res.accounting,
                           achieved_nrmse=res.achieved_nrmse,
                           seed=seed, encode_seconds=seconds, detail=res)

    def decompress(self, payload: bytes) -> np.ndarray:
        return self._impl.decompress(CompressedBlob.from_bytes(payload))

    def decompress_blob(self, blob: CompressedBlob) -> np.ndarray:
        """Decode an in-memory blob without re-serializing it."""
        return self._impl.decompress(blob)
