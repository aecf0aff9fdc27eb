"""Denoising UNet with factorized space-time attention (Sec. 3.2).

Adapted from the video-diffusion architecture of Ho et al. [15] as the
paper describes: per-frame 2-D convolutional residual blocks with
timestep conditioning, and factorized attention at the bottleneck —
spatial self-attention within each frame followed by temporal
self-attention across frames at every spatial location.  Input/output
channels equal the VAE latent depth (the paper's change "from 3 to 64";
configurable here).

Input layout is ``(B, N, C, H, W)`` — windows of ``N`` latent frames.
Convolutions run on the flattened ``(B*N, C, H, W)`` view; attention
restores the 5-D view.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..config import DiffusionConfig
from ..nn import (Conv2d, GroupNorm, LayerNorm, Linear, Module, ModuleList,
                  Parameter, SiLU, Tensor)
from ..nn import functional as F
from .embeddings import sinusoidal_embedding

__all__ = ["DenoisingUNet", "ResBlock", "SpaceTimeAttention"]


class ResBlock(Module):
    """GroupNorm → SiLU → conv, twice, with a timestep shift in between."""

    def __init__(self, in_ch: int, out_ch: int, time_dim: int, groups: int,
                 rng: np.random.Generator):
        super().__init__()
        g_in = min(groups, in_ch)
        g_out = min(groups, out_ch)
        while in_ch % g_in:
            g_in -= 1
        while out_ch % g_out:
            g_out -= 1
        self.norm1 = GroupNorm(g_in, in_ch)
        self.conv1 = Conv2d(in_ch, out_ch, 3, padding=1, rng=rng)
        self.time_proj = Linear(time_dim, out_ch, rng=rng)
        self.norm2 = GroupNorm(g_out, out_ch)
        self.conv2 = Conv2d(out_ch, out_ch, 3, padding=1, rng=rng)
        self.skip = (Conv2d(in_ch, out_ch, 1, rng=rng)
                     if in_ch != out_ch else None)

    def forward(self, x: Tensor, temb: Tensor) -> Tensor:
        """``x``: (B*N, C, H, W); ``temb``: (B*N, time_dim)."""
        h = self.conv1(F.silu(self.norm1(x)))
        shift = self.time_proj(F.silu(temb))
        shift = F.reshape(shift, (shift.shape[0], shift.shape[1], 1, 1))
        h = h + shift
        h = self.conv2(F.silu(self.norm2(h)))
        skip = self.skip(x) if self.skip is not None else x
        return h + skip


class _SelfAttention(Module):
    """Single-head self-attention over token sequences ``(B', L, C)``."""

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.norm = LayerNorm(dim)
        self.qkv = Linear(dim, 3 * dim, rng=rng)
        self.proj = Linear(dim, dim, rng=rng)

    def forward(self, tokens: Tensor) -> Tensor:
        h = self.norm(tokens)
        qkv = self.qkv(h)
        q, k, v = F.split(qkv, 3, axis=-1)
        out = F.scaled_dot_product_attention(q, k, v)
        return tokens + self.proj(out)


class TemporalAttention(Module):
    """Temporal-only attention used at every UNet resolution.

    Spatial mixing at the outer levels is already provided by the
    convolutions; what those levels lack is any cross-frame pathway, so
    each gets attention along the frame axis (the cheap half of the
    factorized pattern — ``(H·W)`` sequences of length ``N``).
    """

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.temporal = _SelfAttention(dim, rng)

    def forward(self, x: Tensor, batch: int, frames: int) -> Tensor:
        BN, C, H, W = x.shape
        if BN != batch * frames:
            raise ValueError(f"got {BN} rows, expected {batch}*{frames}")
        x5 = F.reshape(x, (batch, frames, C, H, W))
        tok = F.temporal_tokens(x5)
        tok = self.temporal(tok)
        x5 = F.untokenize_temporal(tok, (batch, frames, C, H, W))
        return F.reshape(x5, (BN, C, H, W))


class SpaceTimeAttention(Module):
    """Factorized attention: spatial within frames, then temporal.

    Operates on the flattened conv layout and needs ``(B, N)`` to
    recover the 5-D view (the paper's reshapes to ``N x (H·W) x C`` and
    ``(H·W) x N x C`` respectively).
    """

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.spatial = _SelfAttention(dim, rng)
        self.temporal = _SelfAttention(dim, rng)

    def forward(self, x: Tensor, batch: int, frames: int) -> Tensor:
        BN, C, H, W = x.shape
        if BN != batch * frames:
            raise ValueError(f"got {BN} rows, expected {batch}*{frames}")
        x5 = F.reshape(x, (batch, frames, C, H, W))
        tok = F.spatial_tokens(x5)              # (B*N, HW, C)
        tok = self.spatial(tok)
        x5 = F.untokenize_spatial(tok, (batch, frames, C, H, W))
        tok = F.temporal_tokens(x5)             # (B*H*W, N, C)
        tok = self.temporal(tok)
        x5 = F.untokenize_temporal(tok, (batch, frames, C, H, W))
        return F.reshape(x5, (BN, C, H, W))


class DenoisingUNet(Module):
    """ε_θ(y_t^N, t): predicts per-frame noise for a latent window."""

    def __init__(self, cfg: DiffusionConfig,
                 rng: Optional[np.random.Generator] = None,
                 out_channels: Optional[int] = None):
        """``out_channels`` overrides the output depth (default: equal
        to the input ``latent_channels``) — used by data-space baselines
        whose input concatenates conditioning channels that are not
        predicted."""
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.cfg = cfg
        self.out_channels = out_channels or cfg.latent_channels
        tdim = cfg.time_embed_dim
        chs = [cfg.base_channels * m for m in cfg.channel_mults]
        self.channels = chs

        self.time_mlp = _TimeMLP(tdim, rng)
        # Learned frame-position embedding: temporal attention is
        # permutation-equivariant, so without this the network could not
        # distinguish keyframe positions from generated positions.
        self.frame_embed = Parameter(
            rng.normal(0.0, 0.02, size=(cfg.num_frames, tdim)))
        self.conv_in = Conv2d(cfg.latent_channels, chs[0], 3, padding=1,
                              rng=rng)

        self.down_res = ModuleList()
        self.down_tattn = ModuleList()
        self.downsamples = ModuleList()
        for i, ch in enumerate(chs):
            self.down_res.append(
                ResBlock(ch, ch, tdim, cfg.num_groups, rng))
            self.down_tattn.append(TemporalAttention(ch, rng))
            if i < len(chs) - 1:
                self.downsamples.append(
                    Conv2d(ch, chs[i + 1], 3, stride=2, padding=1, rng=rng))

        self.mid_res1 = ResBlock(chs[-1], chs[-1], tdim, cfg.num_groups, rng)
        self.mid_attn = SpaceTimeAttention(chs[-1], rng)
        self.mid_res2 = ResBlock(chs[-1], chs[-1], tdim, cfg.num_groups, rng)

        self.up_res = ModuleList()
        self.up_tattn = ModuleList()
        self.upsamples = ModuleList()
        for i in reversed(range(len(chs))):
            self.up_res.append(
                ResBlock(2 * chs[i], chs[i], tdim, cfg.num_groups, rng))
            self.up_tattn.append(TemporalAttention(chs[i], rng))
            if i > 0:
                self.upsamples.append(
                    Conv2d(chs[i], chs[i - 1], 3, padding=1, rng=rng))

        g = min(cfg.num_groups, chs[0])
        while chs[0] % g:
            g -= 1
        self.out_norm = GroupNorm(g, chs[0])
        self.out_conv = Conv2d(chs[0], self.out_channels, 3, padding=1,
                               rng=rng)

    # ------------------------------------------------------------------
    def forward(self, y_t: Tensor, t) -> Tensor:
        """Predict noise for a window.

        Parameters
        ----------
        y_t:
            ``(B, N, C, H, W)`` noisy window (keyframes spliced clean).
        t:
            scalar int or ``(B,)`` integer array of timesteps.
        """
        B, N, C, H, W = y_t.shape
        t = np.atleast_1d(np.asarray(t, dtype=np.int64))
        if t.size == 1:
            t = np.repeat(t, B)
        if t.size != B:
            raise ValueError(f"need {B} timesteps, got {t.size}")

        if N != self.cfg.num_frames:
            raise ValueError(
                f"window length {N} != configured num_frames "
                f"{self.cfg.num_frames}")
        temb = self.time_mlp(Tensor(
            sinusoidal_embedding(t, self.cfg.time_embed_dim)))  # (B, tdim)
        # broadcast per frame and add the frame-position embedding
        temb = F.reshape(temb, (B, 1, self.cfg.time_embed_dim))
        temb = temb + F.reshape(self.frame_embed,
                                (1, N, self.cfg.time_embed_dim))
        temb = F.reshape(temb, (B * N, self.cfg.time_embed_dim))

        x = F.reshape(y_t, (B * N, C, H, W))
        x = self.conv_in(x)

        skips: List[Tensor] = []
        for i in range(len(self.channels)):
            x = self.down_res[i](x, temb)
            x = self.down_tattn[i](x, B, N)
            skips.append(x)
            if i < len(self.channels) - 1:
                x = self.downsamples[i](x)

        x = self.mid_res1(x, temb)
        x = self.mid_attn(x, B, N)
        x = self.mid_res2(x, temb)

        for j, i in enumerate(reversed(range(len(self.channels)))):
            x = F.concat([x, skips[i]], axis=1)
            x = self.up_res[j](x, temb)
            x = self.up_tattn[j](x, B, N)
            if i > 0:
                x = F.upsample_nearest2d(x, 2)
                x = self.upsamples[j](x)

        x = self.out_conv(F.silu(self.out_norm(x)))
        return F.reshape(x, (B, N, self.out_channels, H, W))


class _TimeMLP(Module):
    """Two-layer MLP refining the sinusoidal embedding."""

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.fc1 = Linear(dim, dim * 2, rng=rng)
        self.fc2 = Linear(dim * 2, dim, rng=rng)

    def forward(self, emb: Tensor) -> Tensor:
        return self.fc2(F.silu(self.fc1(emb)))
