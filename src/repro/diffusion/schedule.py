"""Noise schedules and forward-process arithmetic (Eqs. 3-4).

``NoiseSchedule`` precomputes every per-step quantity the training loss
and the samplers need.  Timesteps are 1-based as in the paper
(``t ∈ {1, …, T}``); index 0 of the internal arrays corresponds to
``t = 1``.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

__all__ = ["NoiseSchedule", "linear_betas", "cosine_betas"]


def linear_betas(steps: int, beta_start: float = 1e-4,
                 beta_end: float = 0.02, ref_steps: int = 1000) -> np.ndarray:
    """DDPM linear schedule, shortened by ᾱ-curve subsampling.

    For ``steps == ref_steps`` this is the classic (1e-4, 0.02) ramp.
    Shorter chains sample the *reference* cumulative-noise curve ᾱ at
    ``steps`` evenly spaced positions and re-derive betas via
    ``β_t = 1 - ᾱ_t / ᾱ_{t-1}``.  The endpoint noise level therefore
    matches the 1000-step schedule exactly — naive beta rescaling would
    push ``β_T -> 1`` and make ``1/sqrt(ᾱ_T)`` blow up, which is what
    breaks direct training at {128, 32, 8, 2, 1} steps (Sec. 4.6).
    """
    if steps >= ref_steps:
        return np.linspace(beta_start, beta_end, steps)
    ref = np.linspace(beta_start, beta_end, ref_steps)
    ab_ref = np.cumprod(1.0 - ref)
    pos = np.linspace(0, ref_steps - 1, steps).round().astype(int)
    ab = ab_ref[pos]
    prev = np.concatenate([[1.0], ab[:-1]])
    betas = 1.0 - ab / prev
    return np.clip(betas, 1e-8, 0.999)


def cosine_betas(steps: int, s: float = 0.008) -> np.ndarray:
    """Nichol & Dhariwal cosine schedule."""
    ts = np.linspace(0, 1, steps + 1)
    f = np.cos((ts + s) / (1 + s) * math.pi / 2) ** 2
    alpha_bar = f / f[0]
    betas = 1.0 - alpha_bar[1:] / alpha_bar[:-1]
    return np.clip(betas, 0.0, 0.999)


class NoiseSchedule:
    """Precomputed forward/reverse process constants for ``T`` steps."""

    def __init__(self, steps: int, kind: str = "linear"):
        if steps < 1:
            raise ValueError("steps must be >= 1")
        if kind == "linear":
            betas = linear_betas(steps)
        elif kind == "cosine":
            betas = cosine_betas(steps)
        else:
            raise ValueError(f"unknown schedule kind {kind!r}")
        self.steps = steps
        self.kind = kind
        self._derive(betas, np.cumprod(1.0 - betas))

    def _derive(self, betas: np.ndarray, alpha_bars: np.ndarray) -> None:
        """Every per-step array, from the betas and their cumulative
        products ``ᾱ``."""
        self.betas = betas
        self.alphas = 1.0 - betas
        self.alpha_bars = alpha_bars
        self.sqrt_alpha_bars = np.sqrt(self.alpha_bars)
        self.sqrt_one_minus_alpha_bars = np.sqrt(1.0 - self.alpha_bars)
        prev = np.concatenate([[1.0], self.alpha_bars[:-1]])
        self.alpha_bars_prev = prev
        # DDPM posterior variance \tilde beta_t
        self.posterior_variance = (
            betas * (1.0 - prev) / np.maximum(1.0 - self.alpha_bars, 1e-12))
        # Per-step scalars of the posterior mean / predict_x0, hoisted so
        # the samplers touch no per-call scalar arithmetic.  Each entry
        # replicates the former inline expression op-for-op (same
        # multiply/divide order), so sampling output is bit-identical.
        denom = np.maximum(1.0 - self.alpha_bars, 1e-12)
        self.posterior_coef_x0 = np.sqrt(prev) * betas / denom
        self.posterior_coef_yt = np.sqrt(self.alphas) * (1.0 - prev) / denom
        self.posterior_sigma = np.sqrt(self.posterior_variance)
        self.predict_x0_denom = np.maximum(self.sqrt_alpha_bars, 1e-12)

    # -- 1-based step accessors -----------------------------------------
    def _idx(self, t: int) -> int:
        if not (1 <= t <= self.steps):
            raise ValueError(f"t={t} outside [1, {self.steps}]")
        return t - 1

    def alpha_bar(self, t: int) -> float:
        return float(self.alpha_bars[self._idx(t)])

    def q_sample(self, y0: np.ndarray, t: int,
                 eps: np.ndarray) -> np.ndarray:
        """Forward jump (Eq. 4): ``y_t = sqrt(ᾱ_t) y_0 + sqrt(1-ᾱ_t) ε``."""
        i = self._idx(t)
        return (self.sqrt_alpha_bars[i] * y0
                + self.sqrt_one_minus_alpha_bars[i] * eps)

    def predict_x0(self, y_t: np.ndarray, t: int,
                   eps_hat: np.ndarray) -> np.ndarray:
        """Invert Eq. 4 to estimate the clean signal from ε̂."""
        i = self._idx(t)
        return ((y_t - self.sqrt_one_minus_alpha_bars[i] * eps_hat)
                / self.predict_x0_denom[i])

    def posterior_step(self, y_t: np.ndarray, t: int, eps_hat: np.ndarray,
                       noise: Optional[np.ndarray],
                       clip_x0: Optional[Tuple[float, float]] = None
                       ) -> np.ndarray:
        """One ancestral reverse step ``y_t -> y_{t-1}`` (DDPM).

        ``clip_x0`` optionally clamps the implied clean-signal estimate
        before forming the posterior mean — the standard stabilizer for
        samplers operating in a bounded (min-max normalized) space.
        ``noise`` may be ``None`` at ``t == 1``, where it is unused.
        """
        i = self._idx(t)
        x0 = self.predict_x0(y_t, t, eps_hat)
        if clip_x0 is not None:
            x0 = np.clip(x0, clip_x0[0], clip_x0[1])
        mean = (self.posterior_coef_x0[i] * x0
                + self.posterior_coef_yt[i] * y_t)
        if t == 1:
            return mean
        return mean + self.posterior_sigma[i] * noise

    def ddim_step(self, y_t: np.ndarray, t: int, t_prev: int,
                  eps_hat: np.ndarray,
                  clip_x0: Optional[Tuple[float, float]] = None
                  ) -> np.ndarray:
        """Deterministic DDIM step ``y_t -> y_{t_prev}`` (η = 0).

        ``t_prev`` may be 0, meaning "jump to the clean sample".  With
        ``clip_x0`` the implied noise direction is recomputed from the
        clamped estimate so the update stays on-manifold.
        """
        i = self._idx(t)
        x0 = self.predict_x0(y_t, t, eps_hat)
        if clip_x0 is not None:
            x0 = np.clip(x0, clip_x0[0], clip_x0[1])
            eps_hat = ((y_t - self.sqrt_alpha_bars[i] * x0)
                       / max(self.sqrt_one_minus_alpha_bars[i], 1e-12))
        if t_prev == 0:
            return x0
        j = self._idx(t_prev)
        return (self.sqrt_alpha_bars[j] * x0
                + self.sqrt_one_minus_alpha_bars[j] * eps_hat)

    def spaced_timesteps(self, num: int) -> np.ndarray:
        """Descending sub-sequence of timesteps for few-step sampling:
        ``min(num, steps)`` distinct timesteps from ``steps`` down to 1."""
        num = min(num, self.steps)
        ts = np.unique(np.linspace(1, self.steps, num).round().astype(int))
        return ts[::-1]

    def respaced(self, timesteps: np.ndarray) -> "NoiseSchedule":
        """The reverse chain over a descending subset of timesteps
        (Nichol & Dhariwal, "Improved Denoising Diffusion Probabilistic
        Models", Sec. 4): its step ``k`` is timestep ``timesteps[-k]``,
        with ``ᾱ`` taken there and ``β′_k = 1 - ᾱ_k / ᾱ_{k-1}``
        (``ᾱ_0 = 1``), so :meth:`posterior_step` jumps straight between
        the kept timesteps.  The whole schedule is ``self``, arrays and
        all."""
        if len(timesteps) == self.steps:
            return self
        alpha_bars = self.alpha_bars[np.sort(timesteps) - 1]
        prev = np.concatenate([[1.0], alpha_bars[:-1]])
        chain = NoiseSchedule.__new__(NoiseSchedule)
        chain.steps, chain.kind = len(timesteps), self.kind
        chain._derive(1.0 - alpha_bars / prev, alpha_bars)
        return chain
