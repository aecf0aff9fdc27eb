"""Reverse-process samplers for keyframe-conditioned generation.

Decompression starts "from a noisy input (except for the keyframes
themselves) and progressively performs denoising to generate plausible
intermediate frames" (Sec. 1).  After every denoising update the clean
keyframe latents are spliced back in, so the conditioning information
never degrades.

Two samplers are provided:

* :func:`ancestral_sample` — the stochastic DDPM chain over ``steps``
  timesteps spaced over the model's schedule (all ``T`` by default),
  its posterior steps respaced to jump between them (Nichol &
  Dhariwal): the short chain the paper decodes with (Sec. 4.6,
  Table 2), without fine-tuning the model to it;
* :func:`ddim_sample` — the deterministic DDIM chain over a spaced
  subset of steps.

Each runs its ``*_batched`` twin with one generator shared by every row
of the ``(B, ...)`` window: a shared generator draws the same sequence
as one full-shape draw, so the result is bitwise the single-window
chain.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .conditioning import KeyframeSpec, splice
from .ddpm import ConditionalDDPM

__all__ = ["ancestral_sample", "ddim_sample", "generate_latents",
           "ancestral_sample_batched", "ddim_sample_batched",
           "generate_latents_batched", "DEFAULT_CLIP"]

#: Clean-signal clamp used during sampling.  The pipeline min-max
#: normalizes latent windows to [-1, 1] from the *keyframe* latents, so
#: generated frames may legitimately exceed the box slightly; a 1.5
#: margin stabilizes undertrained models without biasing trained ones.
DEFAULT_CLIP: Tuple[float, float] = (-1.5, 1.5)


def ancestral_sample(model: ConditionalDDPM, cond_window: np.ndarray,
                     spec: KeyframeSpec,
                     rng: Optional[np.random.Generator] = None,
                     clip_x0: Optional[Tuple[float, float]] = DEFAULT_CLIP,
                     steps: Optional[int] = None) -> np.ndarray:
    """Stochastic reverse process over ``steps`` spaced timesteps
    (``None``: the model's whole schedule).

    ``cond_window`` is a ``(B, N, C, H, W)`` array whose keyframe
    entries hold the decoded keyframe latents (other entries are
    ignored).
    """
    rng = rng or np.random.default_rng(0)
    return ancestral_sample_batched(model, cond_window, spec,
                                    [rng] * len(cond_window),
                                    clip_x0=clip_x0, steps=steps)


def ddim_sample(model: ConditionalDDPM, cond_window: np.ndarray,
                spec: KeyframeSpec, steps: int,
                rng: Optional[np.random.Generator] = None,
                clip_x0: Optional[Tuple[float, float]] = DEFAULT_CLIP
                ) -> np.ndarray:
    """Deterministic DDIM chain over ``steps`` spaced timesteps."""
    rng = rng or np.random.default_rng(0)
    return ddim_sample_batched(model, cond_window, spec, steps,
                               [rng] * len(cond_window), clip_x0=clip_x0)


def _init_windows_batched(cond_windows: np.ndarray, spec: KeyframeSpec,
                          rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Batched start state, one noise stream per window: Gaussian
    noise on the generated frames, keyframes clean.

    Each window's generator draws exactly the values (and in the order)
    a single-window start state would, so the stacked start state is
    bit-for-bit the ``W`` sequential ones.  The full batched *chain*
    matches a sequential run only to BLAS rounding (GEMM summation
    order depends on the batch extent, ~1e-15 per step).
    """
    noise = np.empty_like(cond_windows)
    for b, rng in enumerate(rngs):
        noise[b] = rng.standard_normal(cond_windows.shape[1:])
    return splice(noise, cond_windows, spec)


def ancestral_sample_batched(model: ConditionalDDPM,
                             cond_windows: np.ndarray, spec: KeyframeSpec,
                             rngs: Sequence[np.random.Generator],
                             clip_x0: Optional[Tuple[float, float]]
                             = DEFAULT_CLIP,
                             steps: Optional[int] = None) -> np.ndarray:
    """Stochastic reverse process over ``W`` stacked windows at once.

    ``cond_windows`` is ``(W, N, C, H, W')`` with one rng per window;
    the UNet runs a single batched forward per step, amortizing model
    overhead across the whole shard sweep.  The per-step noise buffer is
    reused across steps (``standard_normal(out=...)``).

    The chain visits ``schedule.spaced_timesteps(steps)`` (every
    timestep when ``steps`` is ``None`` or at least the schedule's
    length): the UNet sees each original timestep, and the posterior
    step is the :meth:`~repro.diffusion.schedule.NoiseSchedule.respaced`
    chain's, which is the schedule itself when nothing is skipped.
    """
    if steps is not None and steps < 1:
        raise ValueError("steps must be >= 1")
    cond_windows = np.asarray(cond_windows, dtype=np.float64)
    if len(rngs) != cond_windows.shape[0]:
        raise ValueError(
            f"need {cond_windows.shape[0]} rngs, got {len(rngs)}")
    sched = model.schedule
    ts = sched.spaced_timesteps(sched.steps if steps is None else steps)
    chain = sched.respaced(ts)
    y = _init_windows_batched(cond_windows, spec, rngs)
    noise = np.empty_like(y)
    for k, t in zip(range(len(ts), 0, -1), ts):
        eps_hat = model.predict_noise(y, int(t))
        if k > 1:
            for b, rng in enumerate(rngs):
                rng.standard_normal(out=noise[b])
            y_next = chain.posterior_step(y, k, eps_hat, noise,
                                          clip_x0=clip_x0)
        else:
            y_next = chain.posterior_step(y, k, eps_hat, None,
                                          clip_x0=clip_x0)
        y = splice(y_next, cond_windows, spec)
    return y


def ddim_sample_batched(model: ConditionalDDPM, cond_windows: np.ndarray,
                        spec: KeyframeSpec, steps: int,
                        rngs: Sequence[np.random.Generator],
                        clip_x0: Optional[Tuple[float, float]] = DEFAULT_CLIP
                        ) -> np.ndarray:
    """Deterministic DDIM chain over ``W`` stacked windows at once."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    cond_windows = np.asarray(cond_windows, dtype=np.float64)
    if len(rngs) != cond_windows.shape[0]:
        raise ValueError(
            f"need {cond_windows.shape[0]} rngs, got {len(rngs)}")
    sched = model.schedule
    ts = sched.spaced_timesteps(steps)
    y = _init_windows_batched(cond_windows, spec, rngs)
    for i, t in enumerate(ts):
        t_prev = int(ts[i + 1]) if i + 1 < len(ts) else 0
        eps_hat = model.predict_noise(y, int(t))
        y_next = sched.ddim_step(y, int(t), t_prev, eps_hat, clip_x0=clip_x0)
        y = splice(y_next, cond_windows, spec)
    return y


def generate_latents_batched(model: ConditionalDDPM,
                             cond_windows: np.ndarray, spec: KeyframeSpec,
                             sampler: str = "ddim",
                             steps: Optional[int] = None,
                             rngs: Sequence[np.random.Generator] = ()
                             ) -> np.ndarray:
    """Batched twin of :func:`generate_latents` for stacked windows.

    Samplers without a batched formulation (``dpm``) fall back to the
    sequential per-window loop, which is bit-identical by construction.
    """
    cond_windows = np.asarray(cond_windows, dtype=np.float64)
    if sampler == "ancestral":
        return ancestral_sample_batched(model, cond_windows, spec, rngs,
                                        steps=steps)
    if sampler == "ddim":
        n = steps if steps is not None else model.schedule.steps
        return ddim_sample_batched(model, cond_windows, spec, n, rngs)
    outs = [generate_latents(model, cond_windows[b:b + 1], spec,
                             sampler=sampler, steps=steps, rng=rngs[b])
            for b in range(cond_windows.shape[0])]
    return np.concatenate(outs, axis=0)


def generate_latents(model: ConditionalDDPM, cond_window: np.ndarray,
                     spec: KeyframeSpec, sampler: str = "ddim",
                     steps: Optional[int] = None,
                     rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Dispatch helper used by the pipeline.

    ``steps`` defaults to the model's full schedule length.
    """
    if sampler == "ancestral":
        return ancestral_sample(model, cond_window, spec, rng=rng,
                                steps=steps)
    if sampler == "ddim":
        n = steps if steps is not None else model.schedule.steps
        return ddim_sample(model, cond_window, spec, n, rng=rng)
    if sampler == "dpm":
        from .dpm_solver import dpm_solver_sample
        n = steps if steps is not None else model.schedule.steps
        return dpm_solver_sample(model, cond_window, spec, n, rng=rng)
    raise ValueError(f"unknown sampler {sampler!r}")
