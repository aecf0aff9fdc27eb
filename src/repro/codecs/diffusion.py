"""The paper's latent-diffusion compressor as a registered codec.

``get_codec("ours")`` wraps a :class:`~repro.pipeline.compressor.
LatentDiffusionCompressor`.  The codec payload is simply the
:class:`~repro.pipeline.blob.CompressedBlob` wire format.  An
untrained tiny/small-preset compressor is constructed when
none is supplied (useful for smoke tests); production use wraps a
trained compressor or loads one from a model artifact
(:func:`~repro.pipeline.artifacts.load_artifact`,
``Session(artifact=...)``, ``--codec-artifact``), whose state this
codec writes with every config inside (:meth:`LatentDiffusionCodec.
artifact_state`).
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import Dict, Optional

import numpy as np

from ..compression import VAEHyperprior
from ..config import ReproConfig, small, tiny
from ..diffusion import ConditionalDDPM
from ..pipeline.blob import CompressedBlob
from ..pipeline.compressor import (CompressionResult,
                                   LatentDiffusionCompressor)
from ..postprocess import ErrorBoundCorrector, ResidualPCA
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

    # -- trained-state artifacts ----------------------------------------
    def artifact_state(self) -> Dict[str, np.ndarray]:
        """The compressor as ``{name: array}``: ``vae/*`` and ``ddpm/*``
        weights, ``pca/basis`` when a corrector is fitted, and
        ``config_json`` (uint8-encoded JSON with every config plus
        schedule/dtype metadata)."""
        comp = self._impl
        cfg = {
            "vae": dataclasses.asdict(comp.vae.cfg),
            "diffusion": dataclasses.asdict(comp.ddpm.cfg),
            "pipeline": dataclasses.asdict(comp.config),
            "schedule_steps": comp.ddpm.schedule.steps,
            "original_dtype_bytes": comp.original_dtype_bytes,
        }
        arrays: Dict[str, np.ndarray] = {}
        for name, arr in comp.vae.state_dict().items():
            arrays[f"vae/{name}"] = arr
        for name, arr in comp.ddpm.state_dict().items():
            arrays[f"ddpm/{name}"] = arr
        if comp.corrector is not None:
            pca = comp.corrector.pca
            arrays["pca/basis"] = pca.basis
            cfg["pca"] = {"block": pca.block, "rank": pca.rank,
                          "coeff_quant_bits":
                              comp.corrector.coeff_quant_bits}
        arrays["config_json"] = np.frombuffer(
            json.dumps(cfg).encode(), dtype=np.uint8)
        return arrays

    @classmethod
    def from_artifact_state(cls, state: Dict[str, np.ndarray]
                            ) -> "LatentDiffusionCodec":
        """Inverse of :meth:`artifact_state`.  The config travels
        inside ``config_json``, so no throwaway preset model is built
        (the artifact-load fast path used by process-pool workers)."""
        cfg = json.loads(bytes(state["config_json"]).decode())
        config = ReproConfig.from_saved(cfg)
        vae = VAEHyperprior(config.vae)
        vae.load_state_dict({k[len("vae/"):]: state[k]
                             for k in state if k.startswith("vae/")})
        ddpm = ConditionalDDPM(config.diffusion)
        ddpm.load_state_dict({k[len("ddpm/"):]: state[k]
                              for k in state if k.startswith("ddpm/")})
        ddpm.set_schedule(int(cfg["schedule_steps"]))
        corrector = None
        if "pca/basis" in state:
            pca = ResidualPCA.from_state({
                "block": cfg["pca"]["block"], "rank": cfg["pca"]["rank"],
                "basis": state["pca/basis"]})
            corrector = ErrorBoundCorrector(
                pca, coeff_quant_bits=cfg["pca"]["coeff_quant_bits"])
        return cls(compressor=LatentDiffusionCompressor(
            vae, ddpm, config.pipeline, corrector=corrector,
            original_dtype_bytes=int(cfg["original_dtype_bytes"])))

    def artifact_params(self) -> dict:
        # the state embeds the full config (artifact_state), so no
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
