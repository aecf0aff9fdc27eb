"""CDC baseline [38]: conditional diffusion compression in data space.

CDC encodes an image into a quantized latent (stored for **every**
image) and reconstructs by running a conditional diffusion model in the
*data* domain, with the latent as side information.  Two
parameterizations are evaluated in the paper: CDC-X predicts the clean
signal directly, CDC-eps predicts the added noise.

To apply CDC to spatiotemporal stacks the paper "treats three
consecutive frames as a three-channel input"; this implementation does
the same.  Because the reverse process runs at full spatial resolution,
decoding is far slower than our latent-space diffusion — the effect
Table 2 quantifies.
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

__all__ = ["CDCCompressor"]


class CDCCompressor(LearnedBaseline):
    """Data-space conditional diffusion compressor (X or eps variant).

    Parameters
    ----------
    parameterization:
        ``"x"`` — the denoiser outputs the clean signal estimate;
        ``"eps"`` — it outputs the noise estimate (DDPM standard).
    """

    GROUP = 3  # consecutive frames treated as channels
    #: trained components persisted by state_dict()/load_state()
    _state_modules = ("vae", "unet")

    def __init__(self, vae_cfg: VAEConfig, diff_cfg: DiffusionConfig,
                 parameterization: str = "eps", seed: int = 0,
                 original_dtype_bytes: int = 4):
        super().__init__(original_dtype_bytes)
        if parameterization not in ("x", "eps"):
            raise ValueError(
                f"unknown parameterization {parameterization!r}")
        if vae_cfg.in_channels != self.GROUP:
            raise ValueError(
                f"CDC requires a {self.GROUP}-channel VAE config")
        self.parameterization = parameterization
        rng = np.random.default_rng(seed)
        self.vae = VAEHyperprior(vae_cfg, rng=rng)
        self.upfactor = vae_cfg.downsample_factor
        # data-space UNet input: GROUP data channels + latent channels
        self.unet = DenoisingUNet(
            DiffusionConfig(
                latent_channels=self.GROUP + vae_cfg.latent_channels,
                base_channels=diff_cfg.base_channels,
                channel_mults=diff_cfg.channel_mults,
                time_embed_dim=diff_cfg.time_embed_dim,
                num_frames=1,  # CDC is purely 2-D: window length 1
                train_steps=diff_cfg.train_steps,
                finetune_steps=diff_cfg.finetune_steps,
                num_groups=diff_cfg.num_groups),
            rng=rng, out_channels=self.GROUP)
        self.schedule = NoiseSchedule(diff_cfg.train_steps,
                                      diff_cfg.beta_schedule)
        self.seed = seed

    # ------------------------------------------------------------------
    def name_tag(self) -> str:
        return f"CDC-{'X' if self.parameterization == 'x' else 'eps'}"

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.name_tag()

    # ------------------------------------------------------------------
    def _group(self, frames_norm: np.ndarray) -> np.ndarray:
        """(T, H, W) -> (G, 3, H, W), padding by edge repetition."""
        T = frames_norm.shape[0]
        pad = (-T) % self.GROUP
        if pad:
            frames_norm = np.concatenate(
                [frames_norm, np.repeat(frames_norm[-1:], pad, axis=0)],
                axis=0)
        G = frames_norm.shape[0] // self.GROUP
        return frames_norm.reshape(G, self.GROUP, *frames_norm.shape[1:])

    def _cond_channels(self, y_int: np.ndarray) -> np.ndarray:
        """Upsample latents to data resolution for concat conditioning."""
        up = np.repeat(np.repeat(y_int, self.upfactor, axis=2),
                       self.upfactor, axis=3)
        return up

    def _denoise(self, x_t: np.ndarray, cond: np.ndarray,
                 t: int) -> np.ndarray:
        """One network evaluation; returns eps_hat regardless of param."""
        inp = np.concatenate([x_t, cond], axis=1)[:, None]  # (B,1,C,H,W)
        with no_grad():
            out = self.unet(Tensor(inp), t).numpy()[:, 0]
        return self._eps_from_out(x_t, out, t)

    def _eps_from_out(self, x_t: np.ndarray, out: np.ndarray,
                      t: int) -> np.ndarray:
        """Convert the network output to an eps estimate."""
        if self.parameterization == "eps":
            return out
        # x-parameterization: convert the x0 estimate to an eps estimate
        i = t - 1
        sab = self.schedule.sqrt_alpha_bars[i]
        somab = max(self.schedule.sqrt_one_minus_alpha_bars[i], 1e-12)
        return (x_t - sab * out) / somab

    # ------------------------------------------------------------------
    def train(self, windows: Sequence[np.ndarray], vae_iters: int = 200,
              diffusion_iters: int = 300, batch: int = 4, lr: float = 1e-3,
              lam: float = 1e-6) -> None:
        frames = np.concatenate(
            [normalize_frames(np.asarray(w))[0] for w in windows], axis=0)
        groups = self._group(frames)
        rng = np.random.default_rng((self.seed, 1))

        # stage 1: VAE on 3-channel groups
        opt = Adam(self.vae.parameters(), lr=lr)
        loss_fn = RDLoss(lam=lam)
        self.vae.train()
        for _ in range(vae_iters):
            idx = rng.integers(0, groups.shape[0], size=batch)
            x = Tensor(groups[idx])
            opt.zero_grad()
            out = self.vae(x, rng=rng)
            loss_fn(x, out).loss.backward()
            clip_grad_norm(self.vae.parameters(), 1.0)
            opt.step()
        self.vae.eval()

        # stage 2: conditional diffusion in data space
        opt = Adam(self.unet.parameters(), lr=lr)
        self.unet.train()
        for _ in range(diffusion_iters):
            idx = rng.integers(0, groups.shape[0], size=batch)
            x0 = groups[idx]
            y = self.vae.encode_latents(x0)
            cond = self._cond_channels(y)
            t = int(rng.integers(1, self.schedule.steps + 1))
            eps = rng.standard_normal(x0.shape)
            x_t = self.schedule.q_sample(x0, t, eps)
            inp = np.concatenate([x_t, cond], axis=1)[:, None]
            out = self.unet(Tensor(inp), t)
            out2d = F.reshape(out, x0.shape)
            target = eps if self.parameterization == "eps" else x0
            loss = F.mse_loss(out2d, Tensor(target))
            opt.zero_grad()
            loss.backward()
            clip_grad_norm(self.unet.parameters(), 1.0)
            opt.step()
        self.unet.eval()

    # ------------------------------------------------------------------
    def _encode(self, frames_norm: np.ndarray) -> tuple:
        streams, y_int = self.vae.compress(self._group(frames_norm))
        return [streams], [y_int]

    def _synthesize(self, latents: list, num_frames: int,
                    seed: int) -> np.ndarray:
        y_int = latents[0]
        cond = self._cond_channels(y_int)
        shape = (y_int.shape[0], self.GROUP, *cond.shape[2:])
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape)
        # Preallocate the UNet input once: conditioning channels never
        # change across steps, only the x_t slice is rewritten.  The
        # per-step noise buffer is likewise reused (standard_normal's
        # ``out=`` draws the identical stream).
        B = shape[0]
        inp = np.empty((B, 1, self.GROUP + cond.shape[1], *shape[2:]))
        inp[:, 0, self.GROUP:] = cond
        noise = np.empty_like(x)
        for t in range(self.schedule.steps, 0, -1):
            inp[:, 0, :self.GROUP] = x
            with no_grad():
                out = self.unet(Tensor(inp), t).numpy()[:, 0]
            eps_hat = self._eps_from_out(x, out, t)
            if t > 1:
                rng.standard_normal(out=noise)
                x = self.schedule.posterior_step(x, t, eps_hat, noise,
                                                 clip_x0=(-1.5, 1.5))
            else:
                x = self.schedule.posterior_step(x, t, eps_hat, None,
                                                 clip_x0=(-1.5, 1.5))
        return x.reshape(-1, *shape[2:])[:num_frames]
