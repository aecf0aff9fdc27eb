"""DPM-Solver++(2M) sampler for keyframe-conditioned generation.

A second-order multistep ODE solver (Lu et al.) over the model's
probability-flow ODE.  Where DDIM is the first-order exponential
integrator, DPM-Solver++(2M) reuses the previous step's clean-signal
prediction to cancel the leading error term — at *zero* extra network
evaluations — which typically buys DDIM-quality samples in roughly half
the steps.  Included as an ablation against the paper's protocol
(fine-tune the model to a short ancestral chain): see
``benchmarks/bench_ablations.py``.

Notation (VP diffusion): ``α_t = sqrt(ᾱ_t)``, ``σ_t = sqrt(1 − ᾱ_t)``,
log-SNR ``λ_t = log(α_t / σ_t)``.  The data-prediction update from
``s`` to ``t`` with ``h = λ_t − λ_s`` is::

    y_t = (σ_t / σ_s) y_s − α_t (e^{−h} − 1) D

where ``D`` is the (possibly extrapolated) clean-signal estimate.  As
everywhere else in this package, the clean keyframe latents are
spliced back in after every update so conditioning never degrades.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .conditioning import KeyframeSpec, splice
from .ddpm import ConditionalDDPM
from .sampler import DEFAULT_CLIP, _init_windows_batched

__all__ = ["dpm_solver_sample"]


def _lambda(alpha_bar: float) -> float:
    """log-SNR ``λ = log(α/σ) = 0.5 log(ᾱ / (1−ᾱ))``."""
    ab = min(max(alpha_bar, 1e-12), 1.0 - 1e-12)
    return 0.5 * math.log(ab / (1.0 - ab))


def dpm_solver_sample(model: ConditionalDDPM, cond_window: np.ndarray,
                      spec: KeyframeSpec, steps: int,
                      rng: Optional[np.random.Generator] = None,
                      clip_x0: Optional[Tuple[float, float]] = DEFAULT_CLIP
                      ) -> np.ndarray:
    """DPM-Solver++(2M) over ``steps`` spaced timesteps.

    Parameters mirror :func:`repro.diffusion.sampler.ddim_sample`; the
    final update jumps straight to the clean estimate (``t = 0``).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    rng = rng or np.random.default_rng(0)
    sched = model.schedule
    ts = sched.spaced_timesteps(steps)
    y = _init_windows_batched(cond_window, spec, [rng] * len(cond_window))

    def x0_at(y_t: np.ndarray, t: int) -> np.ndarray:
        eps_hat = model.predict_noise(y_t, t)
        x0 = sched.predict_x0(y_t, t, eps_hat)
        if clip_x0 is not None:
            x0 = np.clip(x0, clip_x0[0], clip_x0[1])
        return x0

    prev_x0: Optional[np.ndarray] = None
    prev_h: Optional[float] = None
    for i, t in enumerate(ts):
        t = int(t)
        x0 = x0_at(y, t)
        t_next = int(ts[i + 1]) if i + 1 < len(ts) else 0
        if t_next == 0:
            y = splice(x0, cond_window, spec)
            break
        ab_s = sched.alpha_bar(t)
        ab_t = sched.alpha_bar(t_next)
        lam_s, lam_t = _lambda(ab_s), _lambda(ab_t)
        h = lam_t - lam_s
        sigma_s = math.sqrt(1.0 - ab_s)
        sigma_t = math.sqrt(1.0 - ab_t)
        alpha_t = math.sqrt(ab_t)

        if prev_x0 is None or prev_h is None or prev_h == 0.0:
            d = x0  # first step: first-order (DPM-Solver++(1) == DDIM)
        else:
            r = prev_h / h
            d = (1.0 + 1.0 / (2.0 * r)) * x0 - (1.0 / (2.0 * r)) * prev_x0
        y = (sigma_t / sigma_s) * y - alpha_t * math.expm1(-h) * d
        y = splice(y, cond_window, spec)
        prev_x0, prev_h = x0, h
    return y
