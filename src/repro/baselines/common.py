"""Shared machinery for the learned baselines.

All three learned baselines (CDC, GCD, VAE-SR) follow the same
storage pattern the paper contrasts with ours: a VAE+hyperprior codes
the latents of **every** frame, and a learned decoder reconstructs.
This module centralizes frame normalization, latent stream accounting
and the error-bound corrector's fit, so each baseline file only
implements its decoder and training loop.  Compression and its bound
go through the registered codecs (:mod:`repro.codecs.learned`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..pipeline.compressor import LatentDiffusionCompressor
from ..postprocess import ErrorBoundCorrector, ResidualPCA

__all__ = ["LearnedBaseline", "normalize_frames",
           "denormalize_frames", "stream_bytes"]

# Re-use the pipeline's exact per-frame normalization.
normalize_frames = LatentDiffusionCompressor._normalize_frames
denormalize_frames = LatentDiffusionCompressor._denormalize_frames

#: Fixed per-stream header cost charged to every baseline (geometry,
#: entropy-model headers) — matches the order of magnitude of our own
#: blob header so comparisons stay fair.
HEADER_BYTES = 64


def stream_bytes(streams: Dict) -> int:
    """Actual coded bytes of a VAE compress() stream bundle."""
    return len(streams["y_stream"]) + len(streams["z_stream"])


class LearnedBaseline:
    """Base class: every-frame latent storage + optional error bound."""

    name = "learned-baseline"

    #: attribute names of the trainable :class:`~repro.nn.Module`
    #: components; drives the generic :meth:`state_dict` /
    #: :meth:`load_state` persistence path (set by each subclass)
    _state_modules: Tuple[str, ...] = ()

    def __init__(self, original_dtype_bytes: int = 4):
        self.original_dtype_bytes = original_dtype_bytes
        self.corrector: Optional[ErrorBoundCorrector] = None

    # -- subclass interface ------------------------------------------------
    def _encode(self, frames_norm: np.ndarray
                ) -> Tuple[List[Dict], List[np.ndarray]]:
        """Entropy-code normalized ``(T, H, W)`` frames.

        Returns ``(streams, latents)``: the list of VAE stream bundles
        (dicts in the ``VAEHyperprior.compress`` format) that, together
        with the frame count and a noise seed, fully determine the
        decode, and the integer latents each bundle codes, as
        ``VAEHyperprior.compress`` returns them.
        """
        raise NotImplementedError

    def _synthesize(self, latents: List[np.ndarray], num_frames: int,
                    seed: int) -> np.ndarray:
        """Reconstruct normalized frames from :meth:`_encode` latents.

        Compress calls this on the latents it just coded and
        :meth:`_decode` on the latents it reads back, which are equal,
        so a serialized payload decodes to exactly the reconstruction
        reported at compression time.  It must depend only on the
        latents, the frame count and the seed — never on the original
        frames.
        """
        raise NotImplementedError

    def _decode(self, streams: List[Dict], num_frames: int,
                seed: int) -> np.ndarray:
        """The decompressor: entropy-decode the latents, then
        :meth:`_synthesize`."""
        latents = [self.vae.decompress_latents(s) for s in streams]
        return self._synthesize(latents, num_frames, seed)

    def _reconstruct(self, frames_norm: np.ndarray, seed: int
                     ) -> Tuple[np.ndarray, List[Dict]]:
        """Encode, then synthesize from the latents just coded (no
        entropy decode); returns ``(reconstruction_norm, streams)``."""
        streams, latents = self._encode(frames_norm)
        return (self._synthesize(latents, frames_norm.shape[0], seed),
                streams)

    # -- persistence ---------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Full trained state as flat ``{name: array}`` (real arrays,
        suitable for :mod:`repro.nn.serialization` / the artifact
        store).

        Keys are ``<module>/<param>`` for every module named in
        ``_state_modules``, plus ``corrector/basis`` and
        ``corrector/meta`` (block, rank, coeff_quant_bits) when a
        corrector is fitted.
        """
        state: Dict[str, np.ndarray] = {}
        for mod_name in self._state_modules:
            module = getattr(self, mod_name)
            for key, arr in module.state_dict().items():
                state[f"{mod_name}/{key}"] = arr
        if self.corrector is not None:
            pca = self.corrector.pca
            state["corrector/basis"] = pca.basis.copy()
            state["corrector/meta"] = np.asarray(
                [pca.block, pca.rank, self.corrector.coeff_quant_bits],
                dtype=np.int64)
        return state

    def load_state(self, state: Dict[str, np.ndarray]) -> None:
        """Restore :meth:`state_dict` output in place (strict)."""
        for mod_name in self._state_modules:
            prefix = f"{mod_name}/"
            sub = {k[len(prefix):]: v for k, v in state.items()
                   if k.startswith(prefix)}
            getattr(self, mod_name).load_state_dict(sub)
        if "corrector/basis" in state:
            block, rank, bits = (int(v) for v in state["corrector/meta"])
            pca = ResidualPCA.from_state({
                "block": block, "rank": rank,
                "basis": state["corrector/basis"]})
            self.corrector = ErrorBoundCorrector(pca,
                                                 coeff_quant_bits=bits)
        else:
            self.corrector = None

    # -- corrector ------------------------------------------------------------
    def fit_corrector(self, windows: Sequence[np.ndarray], block: int = 4,
                      rank: int = 8, max_windows: int = 4) -> None:
        residuals: List[np.ndarray] = []
        for wdw in list(windows)[:max_windows]:
            wdw = np.asarray(wdw, dtype=np.float64)
            norm, norms = normalize_frames(wdw)
            recon_norm, _ = self._reconstruct(norm, 0)
            residuals.append(wdw - denormalize_frames(recon_norm, norms))
        pca = ResidualPCA(block=block, rank=rank)
        pca.fit(np.concatenate(residuals, axis=0))
        self.corrector = ErrorBoundCorrector(pca)
