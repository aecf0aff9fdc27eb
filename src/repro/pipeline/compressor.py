"""The end-to-end latent-diffusion compressor (Figs. 1, Sec. 3).

Compression path, per temporal window of ``N`` frames:

1. per-frame normalization (zero mean, unit range — Sec. 4.3);
2. VAE-encode the *keyframes only*, round, and entropy-code them with
   the hyperprior (Sec. 3.1);
3. decode the keyframe latents back (bit-exact), min-max normalize
   them, and run the conditional latent diffusion sampler to generate
   the non-keyframe latents (Sec. 3.3);
4. VAE-decode the full latent window and denormalize — this *is* the
   decompressor's output, simulated at compression time;
5. run the PCA error-bound corrector on the residual (Sec. 3.5) and
   attach its payload.

The decompressor repeats steps 3-4 (deterministically: the blob
records the sampler, its chain and the schedule that chain was spaced
over, and each window's noise seed derives from a seed it stores) and
applies the correction payload, so the error bound established at
compression time is exactly preserved.  A model whose schedule is not
the blob's cannot run that chain, and decode refuses it
(:class:`ScheduleMismatchError`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..compression import VAEHyperprior, dequantize_minmax, minmax_normalize
from ..config import PipelineConfig
from ..diffusion import (ConditionalDDPM, KeyframeSpec,
                         generate_latents_batched, keyframe_spec)
from ..metrics import CompressionAccounting, nrmse
from ..postprocess import ErrorBoundCorrector
from .blob import CompressedBlob

__all__ = ["LatentDiffusionCompressor", "CompressionResult",
           "ScheduleMismatchError"]

#: Windows denoised per batched UNet forward.  Caps the working set of
#: the stacked sampler (noise + activation buffers scale with the batch)
#: while still amortizing model overhead across a shard sweep.
MAX_BATCH_WINDOWS = 16


class ScheduleMismatchError(ValueError):
    """A blob's chain was spaced over another schedule than the
    decoding model's (e.g. the model was fine-tuned after compress)."""


@dataclass
class CompressionResult:
    """Blob plus bookkeeping returned by :meth:`~LatentDiffusionCompressor.compress`."""

    blob: CompressedBlob
    accounting: CompressionAccounting
    reconstruction: np.ndarray      # the decompressor's exact output
    achieved_nrmse: float

    @property
    def ratio(self) -> float:
        return self.accounting.ratio


def window_starts(t: int, window: int) -> List[int]:
    """Window origins covering ``[0, t)``; the last window is shifted
    back so every frame is covered exactly once per decode pass."""
    if t < window:
        raise ValueError(f"need at least {window} frames, got {t}")
    starts = list(range(0, t - window + 1, window))
    if starts[-1] + window < t:
        starts.append(t - window)
    return starts


class LatentDiffusionCompressor:
    """Public compress/decompress API tying all stages together.

    Parameters
    ----------
    vae:
        Trained :class:`~repro.compression.VAEHyperprior`.
    ddpm:
        Trained :class:`~repro.diffusion.ConditionalDDPM` (already
        fine-tuned to its deployment step count, if applicable).
    config:
        Pipeline settings (window, keyframe strategy, sampler).
    corrector:
        Optional fitted :class:`~repro.postprocess.ErrorBoundCorrector`;
        required when compressing with an error bound.
    """

    def __init__(self, vae: VAEHyperprior, ddpm: ConditionalDDPM,
                 config: PipelineConfig,
                 corrector: Optional[ErrorBoundCorrector] = None,
                 original_dtype_bytes: int = 4):
        if config.window != ddpm.cfg.num_frames:
            raise ValueError(
                f"pipeline window {config.window} != diffusion num_frames "
                f"{ddpm.cfg.num_frames}")
        self.vae = vae
        self.ddpm = ddpm
        self.config = config
        self.corrector = corrector
        self.original_dtype_bytes = original_dtype_bytes
        self.vae.eval()
        self.ddpm.eval()

    # ------------------------------------------------------------------
    def spec(self) -> KeyframeSpec:
        return keyframe_spec(self.config.window,
                             self.config.keyframe_strategy,
                             interval=self.config.keyframe_interval)

    # ------------------------------------------------------------------
    def compress(self, frames: np.ndarray,
                 error_bound: Optional[float] = None,
                 noise_seed: int = 0) -> CompressionResult:
        """Compress a ``(T, H, W)`` frame stack.

        ``error_bound`` is the absolute L2 bound ``tau`` of Sec. 3.5
        (the ``"ours"`` codec converts any other
        :class:`~repro.bound.Bound` to it); without one, no correction
        payload is produced.
        """
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 3:
            raise ValueError(f"expected (T, H, W), got {frames.shape}")
        T, H, W = frames.shape
        spec = self.spec()
        cfg = self.config

        normalized, norms = self._normalize_frames(frames)
        starts = window_starts(T, cfg.window)
        # Batch the keyframes of every window into ONE entropy-coded
        # stream: coder termination and model headers are paid once,
        # not per window — this is where the keyframe-only storage
        # advantage over every-frame baselines materializes in bytes.
        key_frames = np.concatenate(
            [normalized[start:start + cfg.window][spec.cond_idx]
             for start in starts], axis=0)[:, None]      # (n_win*K,1,H,W)
        streams, y_int_all = self.vae.compress(key_frames)

        # windows cover [0, T) exactly, so every element of recon_norm is
        # written below — no need to zero-fill
        recon_norm = np.empty_like(normalized)
        schedule = self.ddpm.schedule.steps
        steps = min(cfg.sample_steps, schedule)
        recons = self._reconstruct_windows(y_int_all, spec, noise_seed,
                                           cfg.sampler, steps)
        for w_i, start in enumerate(starts):
            recon_norm[start:start + cfg.window] = recons[w_i]

        recon = self._denormalize_frames(recon_norm, norms)
        blob = CompressedBlob(
            shape=(T, H, W), window=cfg.window,
            keyframe_strategy=cfg.keyframe_strategy,
            keyframe_interval=cfg.keyframe_interval,
            sampler=cfg.sampler, sample_steps=steps,
            noise_seed=noise_seed, frame_norms=norms,
            y_stream=streams["y_stream"], z_stream=streams["z_stream"],
            y_header=streams["y_header"], z_header=streams["z_header"],
            y_shape=streams["y_shape"], z_shape=streams["z_shape"],
            entropy_backend=streams.get("entropy_backend", "arithmetic"),
            schedule_steps=schedule)

        if error_bound is not None:
            if self.corrector is None:
                raise ValueError(
                    "error-bounded compression requires a fitted corrector")
            res = self.corrector.correct(frames, recon, error_bound)
            blob.bound_payload = res.payload
            recon = res.corrected

        acc = CompressionAccounting(
            original_bytes=frames.size * self.original_dtype_bytes,
            latent_bytes=blob.latent_bytes(),
            guarantee_bytes=blob.guarantee_bytes())
        return CompressionResult(blob=blob, accounting=acc,
                                 reconstruction=recon,
                                 achieved_nrmse=nrmse(frames, recon))

    # ------------------------------------------------------------------
    def decompress(self, blob: CompressedBlob) -> np.ndarray:
        """Reconstruct frames from a blob (mirrors :meth:`compress`).

        Raises :class:`ScheduleMismatchError`, before any sampling, when
        the blob's chain was spaced over another schedule length than
        this model's."""
        schedule = self.ddpm.schedule.steps
        if blob.schedule_steps not in (None, schedule):
            raise ScheduleMismatchError(
                f"blob's {blob.sampler} chain was spaced over a "
                f"{blob.schedule_steps}-step schedule; this model's has "
                f"{schedule} steps")
        T, H, W = blob.shape
        spec = keyframe_spec(blob.window, blob.keyframe_strategy,
                             interval=blob.keyframe_interval)
        starts = window_starts(T, blob.window)
        y_int_all = self.vae.decompress_latents(blob.streams_dict())
        recon_norm = np.empty((T, H, W))
        recons = self._reconstruct_windows(y_int_all, spec, blob.noise_seed,
                                           blob.sampler, blob.chain_steps())
        for w_i, start in enumerate(starts):
            recon_norm[start:start + blob.window] = recons[w_i]
        recon = self._denormalize_frames(recon_norm, blob.frame_norms)
        if blob.bound_payload:
            if self.corrector is None:
                raise ValueError(
                    "blob carries an error-bound payload but no corrector "
                    "is attached")
            recon = self.corrector.apply(recon, blob.bound_payload)
        return recon

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _normalize_frames(frames: np.ndarray
                          ) -> Tuple[np.ndarray, np.ndarray]:
        mean = frames.mean(axis=(1, 2))
        rng_ = frames.max(axis=(1, 2)) - frames.min(axis=(1, 2))
        rng_ = np.where(rng_ < 1e-30, 1.0, rng_)
        norms = np.stack([mean, rng_], axis=1).astype(np.float32)
        out = (frames - norms[:, 0, None, None]) / norms[:, 1, None, None]
        return out, norms

    @staticmethod
    def _denormalize_frames(frames: np.ndarray,
                            norms: np.ndarray) -> np.ndarray:
        norms = np.asarray(norms, dtype=np.float64)
        return frames * norms[:, 1, None, None] + norms[:, 0, None, None]

    def _reconstruct_windows(self, y_int_all: np.ndarray,
                             spec: KeyframeSpec, base_seed: int,
                             sampler: str, steps: Optional[int]
                             ) -> np.ndarray:
        """Shared by compress (simulation) and decompress (real decode).

        ``sampler`` runs ``steps`` UNet steps (``None``: the model's
        whole schedule) per window batch.  Window ``w_i`` seeds its own
        generator with ``base_seed + w_i`` and min-max normalizes from
        its own keyframe latents; the UNet runs over stacked windows,
        in chunks of
        :data:`MAX_BATCH_WINDOWS`, one batched forward per chunk.  Two
        decodes under one chunking are bitwise equal, which is how
        decompress reproduces compress.  Under another chunking BLAS
        sums the batched GEMMs in another order, so the output can
        differ in its last bits, by far less than the margin the
        error-bound corrector reserves below ``tau`` (measured in
        :class:`~repro.postprocess.ErrorBoundCorrector`).
        """
        K, N = spec.num_cond, spec.n
        _, C, h, w = y_int_all.shape
        n_win = y_int_all.shape[0] // K
        out = None
        for w0 in range(0, n_win, MAX_BATCH_WINDOWS):
            w1 = min(w0 + MAX_BATCH_WINDOWS, n_win)
            nb = w1 - w0
            # min-max normalization constants derive from the keyframe
            # latents only, so the decoder reproduces them bit-exactly.
            cond = np.zeros((nb, N, C, h, w))
            bounds = []
            for b in range(nb):
                keys = y_int_all[(w0 + b) * K:(w0 + b + 1) * K]
                key_norm, lo, hi = minmax_normalize(keys)
                cond[b, spec.cond_idx] = key_norm
                bounds.append((lo, hi))
            rngs = [np.random.default_rng(base_seed + w0 + b)
                    for b in range(nb)]
            latents_norm = generate_latents_batched(
                self.ddpm, cond, spec, sampler=sampler, steps=steps,
                rngs=rngs)
            latents = np.empty_like(latents_norm)
            for b, (lo, hi) in enumerate(bounds):
                latents[b] = dequantize_minmax(latents_norm[b], lo, hi)
                # keyframes decode from their exact integer latents
                latents[b, spec.cond_idx] = \
                    y_int_all[(w0 + b) * K:(w0 + b + 1) * K]
            frames = self.vae.decode_latents(
                latents.reshape(nb * N, C, h, w))
            H, W = frames.shape[2], frames.shape[3]
            if out is None:
                out = np.empty((n_win, N, H, W))
            out[w0:w1] = frames[:, 0].reshape(nb, N, H, W)
        return out
