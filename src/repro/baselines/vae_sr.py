"""VAE-SR baseline [25]: VAE coding + super-resolution refinement.

The strongest learning-based baseline in the paper's comparison.  It
codes the latent of **every** frame with a (more aggressive) VAE +
hyperprior and sharpens the decoder output with a residual
super-resolution module — high fidelity, but it pays latent storage per
frame, which is exactly the cost the keyframe-diffusion scheme avoids.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..compression import RDLoss, VAEHyperprior
from ..config import VAEConfig
from ..nn import Conv2d, Module, Sequential, SiLU, Tensor, no_grad
from ..nn import functional as F
from ..nn.optim import Adam, clip_grad_norm
from .common import LearnedBaseline, normalize_frames

__all__ = ["VAESRCompressor", "SRModule"]


class SRModule(Module):
    """Residual refinement network (the "SR" stage of VAE-SR)."""

    def __init__(self, filters: int = 16,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.net = Sequential(
            Conv2d(1, filters, 3, padding=1, rng=rng), SiLU(),
            Conv2d(filters, filters, 3, padding=1, rng=rng), SiLU(),
            Conv2d(filters, 1, 3, padding=1, rng=rng))

    def forward(self, x: Tensor) -> Tensor:
        return x + self.net(x)


class VAESRCompressor(LearnedBaseline):
    """Every-frame VAE + hyperprior coding with SR refinement."""

    name = "VAE-SR"
    #: trained components persisted by state_dict()/load_state()
    _state_modules = ("vae", "sr")

    def __init__(self, vae_cfg: VAEConfig, sr_filters: int = 16,
                 seed: int = 0, original_dtype_bytes: int = 4):
        super().__init__(original_dtype_bytes)
        rng = np.random.default_rng(seed)
        self.vae = VAEHyperprior(vae_cfg, rng=rng)
        self.sr = SRModule(sr_filters, rng=rng)
        self.seed = seed

    # ------------------------------------------------------------------
    def train(self, windows: Sequence[np.ndarray], vae_iters: int = 200,
              sr_iters: int = 100, batch: int = 4, lr: float = 1e-3,
              lam: float = 1e-6) -> None:
        frames = np.concatenate(
            [normalize_frames(np.asarray(w))[0] for w in windows], axis=0)
        rng = np.random.default_rng((self.seed, 1))

        # stage 1: the VAE under the RD loss
        opt = Adam(self.vae.parameters(), lr=lr)
        loss_fn = RDLoss(lam=lam)
        self.vae.train()
        for _ in range(vae_iters):
            idx = rng.integers(0, frames.shape[0], size=batch)
            x = Tensor(frames[idx][:, None])
            opt.zero_grad()
            out = self.vae(x, rng=rng)
            loss_fn(x, out).loss.backward()
            clip_grad_norm(self.vae.parameters(), 1.0)
            opt.step()
        self.vae.eval()

        # stage 2: SR on the quantized-reconstruction residual
        opt = Adam(self.sr.parameters(), lr=lr)
        self.sr.train()
        for _ in range(sr_iters):
            idx = rng.integers(0, frames.shape[0], size=batch)
            x = frames[idx][:, None]
            y = self.vae.encode_latents(x)
            dec = Tensor(self.vae.decode_latents(y))
            opt.zero_grad()
            refined = self.sr(dec)
            loss = F.mse_loss(refined, Tensor(x))
            loss.backward()
            clip_grad_norm(self.sr.parameters(), 1.0)
            opt.step()
        self.sr.eval()

    # ------------------------------------------------------------------
    def _encode(self, frames_norm: np.ndarray) -> tuple:
        streams, y_int = self.vae.compress(frames_norm[:, None])
        return [streams], [y_int]

    def _synthesize(self, latents: list, num_frames: int,
                    seed: int) -> np.ndarray:
        dec = self.vae.decode_latents(latents[0])
        with no_grad():
            refined = self.sr(Tensor(dec)).numpy()
        return refined[:, 0]
