"""GCD baseline [20]: 3-D block-based data-space conditional diffusion.

GCD extends CDC from 2-D images to spatiotemporal blocks: a latent is
stored for every frame of every block, and a video-style diffusion
model denoises the whole block in the *data* domain with the upsampled
latents as per-frame conditioning channels.  Against our method it pays
twice — per-frame latent storage *and* full-resolution reverse
diffusion (Table 2 shows GCD as the slowest decoder).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..compression import RDLoss, VAEHyperprior
from ..config import DiffusionConfig, VAEConfig
from ..diffusion.schedule import NoiseSchedule
from ..diffusion.unet import DenoisingUNet
from ..nn import Tensor, no_grad
from ..nn import functional as F
from ..nn.optim import Adam, clip_grad_norm
from .common import LearnedBaseline, normalize_frames

__all__ = ["GCDCompressor"]

#: Byte budget for pre-drawing every window's noise when batching the
#: reverse process.  Above it, decode falls back to the sequential
#: per-window loop (bit-identical by construction).
GCD_NOISE_BYTES_MAX = 1 << 28


class GCDCompressor(LearnedBaseline):
    """Every-frame latents + data-space video diffusion decoder."""

    name = "GCD"
    #: trained components persisted by state_dict()/load_state()
    _state_modules = ("vae", "unet")

    def __init__(self, vae_cfg: VAEConfig, diff_cfg: DiffusionConfig,
                 seed: int = 0, original_dtype_bytes: int = 4):
        super().__init__(original_dtype_bytes)
        if vae_cfg.in_channels != 1:
            raise ValueError("GCD uses a single-channel per-frame VAE")
        rng = np.random.default_rng(seed)
        self.vae = VAEHyperprior(vae_cfg, rng=rng)
        self.upfactor = vae_cfg.downsample_factor
        self.window = diff_cfg.num_frames
        self.unet = DenoisingUNet(
            DiffusionConfig(
                latent_channels=1 + vae_cfg.latent_channels,
                base_channels=diff_cfg.base_channels,
                channel_mults=diff_cfg.channel_mults,
                time_embed_dim=diff_cfg.time_embed_dim,
                num_frames=diff_cfg.num_frames,
                train_steps=diff_cfg.train_steps,
                finetune_steps=diff_cfg.finetune_steps,
                num_groups=diff_cfg.num_groups),
            rng=rng, out_channels=1)
        self.schedule = NoiseSchedule(diff_cfg.train_steps,
                                      diff_cfg.beta_schedule)
        self.seed = seed

    # ------------------------------------------------------------------
    def _cond_window(self, y_int: np.ndarray) -> np.ndarray:
        """(N, C, h, w) latents -> (1, N, C, H, W) conditioning."""
        up = np.repeat(np.repeat(y_int, self.upfactor, axis=2),
                       self.upfactor, axis=3)
        return up[None]

    def _window_batches(self, windows: Sequence[np.ndarray]) -> np.ndarray:
        out = [normalize_frames(np.asarray(w))[0] for w in windows]
        for w in out:
            if w.shape[0] != self.window:
                raise ValueError(
                    f"training windows must have {self.window} frames")
        return np.stack(out)  # (W, N, H, W)

    # ------------------------------------------------------------------
    def train(self, windows: Sequence[np.ndarray], vae_iters: int = 200,
              diffusion_iters: int = 300, batch: int = 2, lr: float = 1e-3,
              lam: float = 1e-6) -> None:
        stacks = self._window_batches(windows)
        frames = stacks.reshape(-1, *stacks.shape[2:])
        rng = np.random.default_rng((self.seed, 1))

        # stage 1: per-frame VAE
        opt = Adam(self.vae.parameters(), lr=lr)
        loss_fn = RDLoss(lam=lam)
        self.vae.train()
        for _ in range(vae_iters):
            idx = rng.integers(0, frames.shape[0], size=4)
            x = Tensor(frames[idx][:, None])
            opt.zero_grad()
            out = self.vae(x, rng=rng)
            loss_fn(x, out).loss.backward()
            clip_grad_norm(self.vae.parameters(), 1.0)
            opt.step()
        self.vae.eval()

        # stage 2: conditional video diffusion in data space
        opt = Adam(self.unet.parameters(), lr=lr)
        self.unet.train()
        for _ in range(diffusion_iters):
            idx = rng.integers(0, stacks.shape[0],
                               size=min(batch, stacks.shape[0]))
            x0 = stacks[idx][:, :, None]              # (B, N, 1, H, W)
            B = x0.shape[0]
            conds = []
            for b in range(B):
                y = self.vae.encode_latents(x0[b])
                conds.append(self._cond_window(y)[0])
            cond = np.stack(conds)                    # (B, N, C, H, W)
            t = int(rng.integers(1, self.schedule.steps + 1))
            eps = rng.standard_normal(x0.shape)
            x_t = self.schedule.q_sample(x0, t, eps)
            inp = np.concatenate([x_t, cond], axis=2)
            out = self.unet(Tensor(inp), t)
            loss = F.mse_loss(out, Tensor(eps))
            opt.zero_grad()
            loss.backward()
            clip_grad_norm(self.unet.parameters(), 1.0)
            opt.step()
        self.unet.eval()

    # ------------------------------------------------------------------
    def _encode(self, frames_norm: np.ndarray) -> tuple:
        from ..pipeline.compressor import window_starts
        streams, latents = [], []
        for start in window_starts(frames_norm.shape[0], self.window):
            chunk = frames_norm[start:start + self.window]
            s, y_int = self.vae.compress(chunk[:, None])
            streams.append(s)
            latents.append(y_int)
        return streams, latents

    def _synthesize(self, latents: list, num_frames: int,
                    seed: int) -> np.ndarray:
        from ..pipeline.compressor import window_starts
        rng = np.random.default_rng(seed)
        starts = window_starts(num_frames, self.window)
        conds = np.concatenate([self._cond_window(y) for y in latents],
                               axis=0)              # (W, N, C, h, w)
        W = conds.shape[0]
        h, w = conds.shape[3:]
        steps = self.schedule.steps
        # All windows share one rng, so batching them needs every draw
        # hoisted up front *in the sequential order*: per window, the
        # init noise first, then the per-step noise (none at t == 1).
        noise_bytes = W * steps * self.window * h * w * 8
        if noise_bytes > GCD_NOISE_BYTES_MAX:
            return self._decode_sequential(conds, starts, num_frames, rng)
        x = np.empty((W, self.window, 1, h, w))
        step_noise = np.empty((steps - 1, W, self.window, 1, h, w))
        for b in range(W):
            rng.standard_normal(out=x[b])
            for s in range(steps - 1):
                rng.standard_normal(out=step_noise[s, b])
        # Conditioning channels are constant across steps: write them
        # into the preallocated UNet input once.
        inp = np.empty((W, self.window, 1 + conds.shape[2], h, w))
        inp[:, :, 1:] = conds
        for t in range(steps, 0, -1):
            inp[:, :, :1] = x
            with no_grad():
                eps_hat = self.unet(Tensor(inp), t).numpy()
            noise = step_noise[steps - t] if t > 1 else None
            x = self.schedule.posterior_step(x, t, eps_hat, noise,
                                             clip_x0=(-1.5, 1.5))
        recon = np.empty((num_frames, h, w))
        for b, start in enumerate(starts):
            recon[start:start + self.window] = x[b, :, 0]
        return recon

    def _decode_sequential(self, conds: np.ndarray, starts: list,
                           num_frames: int,
                           rng: np.random.Generator) -> np.ndarray:
        """Legacy per-window reverse loop (memory-bounded fallback)."""
        h, w = conds.shape[3:]
        recon = np.empty((num_frames, h, w))
        for b, start in enumerate(starts):
            cond = conds[b:b + 1]
            x = rng.standard_normal((1, self.window, 1, h, w))
            for t in range(self.schedule.steps, 0, -1):
                inp = np.concatenate([x, cond], axis=2)
                with no_grad():
                    eps_hat = self.unet(Tensor(inp), t).numpy()
                if t > 1:
                    noise = rng.standard_normal(x.shape)
                    x = self.schedule.posterior_step(x, t, eps_hat, noise,
                                                     clip_x0=(-1.5, 1.5))
                else:
                    x = self.schedule.posterior_step(x, t, eps_hat, None,
                                                     clip_x0=(-1.5, 1.5))
            recon[start:start + self.window] = x[0, :, 0]
        return recon
