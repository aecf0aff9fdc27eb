"""Two-stage training protocol (Sec. 3.4) plus corrector fitting.

Stage 1 trains the VAE with hyperprior on individual frames under the
rate-distortion loss (Eq. 8) with the paper's step-decay LR and
λ-doubling schedules.  Stage 2 freezes the encoder and trains the
conditional latent diffusion model (Algorithm 1), optionally followed
by few-step fine-tuning (Sec. 4.6).  Finally the PCA residual basis is
fitted on training-set reconstruction residuals so the deployed
compressor can enforce error bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..compression import RDLoss, VAEHyperprior
from ..compression.quantization import minmax_normalize
from ..config import ReproConfig
from ..diffusion import EMA, ConditionalDDPM, finetune_steps, keyframe_spec
from ..nn import Tensor, no_grad
from ..nn.optim import Adam, StepLR, clip_grad_norm
from ..postprocess import ErrorBoundCorrector, ResidualPCA
from .compressor import LatentDiffusionCompressor

__all__ = ["TrainingConfig", "TwoStageTrainer"]


def _normalize_window(window: np.ndarray) -> np.ndarray:
    """Per-frame zero-mean / unit-range normalization.

    Must match ``LatentDiffusionCompressor._normalize_frames`` exactly —
    the VAE and diffusion model are trained in this normalized domain
    and the compressor feeds them the same transform at inference.
    """
    out, _ = LatentDiffusionCompressor._normalize_frames(
        np.asarray(window, dtype=np.float64))
    return out


@dataclass
class TrainingConfig:
    """Iteration counts and optimizer settings for both stages.

    Defaults are test-scale; the paper-scale values are recorded in the
    comments (Sec. 4.3).
    """

    vae_iters: int = 200           # paper: 500_000
    vae_lr: float = 1e-3           # paper: 1e-3
    vae_lr_decay_every: int = 80   # paper: 100_000 (x0.5)
    vae_batch: int = 4             # paper: 16
    lam: float = 1e-6              # paper: 1e-5 doubled at 250K; raw bit
    #                                sums scale with crop size, so small
    #                                crops need a smaller lambda
    diffusion_iters: int = 400     # paper: 500_000
    diffusion_lr: float = 1e-3     # paper: 1e-4
    diffusion_batch: int = 4       # paper: 64
    finetune_iters: int = 50       # paper: 200_000
    grad_clip: float = 1.0
    ema_decay: float = 0.0         # 0 = off; e.g. 0.999 to sample from
    #                                an EMA of the diffusion weights
    log_every: int = 0             # 0 = silent


@dataclass
class TrainingHistory:
    vae_losses: List[float] = field(default_factory=list)
    diffusion_losses: List[float] = field(default_factory=list)
    finetune_losses: List[float] = field(default_factory=list)


class TwoStageTrainer:
    """Drives stage-1 (VAE) and stage-2 (diffusion) training."""

    def __init__(self, config: ReproConfig, train_cfg: TrainingConfig,
                 seed: int = 0):
        self.config = config
        self.train_cfg = train_cfg
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.vae = VAEHyperprior(config.vae, rng=rng)
        self.ddpm = ConditionalDDPM(config.diffusion, rng=rng)
        self.history = TrainingHistory()

    # ------------------------------------------------------------------
    def train_vae(self, windows: Sequence[np.ndarray],
                  on_step: Optional[Callable[[int, float], None]] = None
                  ) -> None:
        """Stage 1: rate–distortion training on random frames."""
        tc = self.train_cfg
        frames = np.concatenate([_normalize_window(w) for w in windows],
                                axis=0)  # (F, H, W), normalized domain
        rng = np.random.default_rng((self.seed, 1))
        opt = Adam(self.vae.parameters(), lr=tc.vae_lr)
        sched = StepLR(opt, step_size=tc.vae_lr_decay_every, gamma=0.5)
        loss_fn = RDLoss(lam=tc.lam)
        self.vae.train()
        for it in range(tc.vae_iters):
            idx = rng.integers(0, frames.shape[0], size=tc.vae_batch)
            batch = Tensor(frames[idx][:, None])
            opt.zero_grad()
            out = self.vae(batch, rng=rng)
            res = loss_fn(batch, out)
            res.loss.backward()
            clip_grad_norm(self.vae.parameters(), tc.grad_clip)
            opt.step()
            sched.step()
            self.history.vae_losses.append(res.loss.item())
            if on_step:
                on_step(it, res.loss.item())
        self.vae.eval()

    # ------------------------------------------------------------------
    def _latent_windows(self, windows: Sequence[np.ndarray]) -> np.ndarray:
        """Encode windows with the frozen VAE into normalized latents."""
        outs = []
        for wdw in windows:
            y = self.vae.encode_latents(_normalize_window(wdw)[:, None])
            y_norm, _, _ = minmax_normalize(y)
            outs.append(y_norm)
        return np.stack(outs)  # (W, N, C, h, w)

    def train_diffusion(self, windows: Sequence[np.ndarray],
                        on_step: Optional[Callable[[int, float], None]] = None
                        ) -> None:
        """Stage 2: Algorithm 1 on frozen-encoder latents."""
        tc = self.train_cfg
        spec = keyframe_spec(self.config.pipeline.window,
                             self.config.pipeline.keyframe_strategy,
                             interval=self.config.pipeline.keyframe_interval)
        latents = self._latent_windows(windows)
        rng = np.random.default_rng((self.seed, 2))
        opt = Adam(self.ddpm.parameters(), lr=tc.diffusion_lr)
        ema = (EMA(self.ddpm, decay=tc.ema_decay)
               if tc.ema_decay > 0 else None)
        self.ddpm.train()
        for it in range(tc.diffusion_iters):
            idx = rng.integers(0, latents.shape[0],
                               size=min(tc.diffusion_batch,
                                        latents.shape[0]))
            loss = self.ddpm.training_loss(latents[idx], spec, rng)
            opt.zero_grad()
            loss.backward()
            clip_grad_norm(self.ddpm.parameters(), tc.grad_clip)
            opt.step()
            if ema is not None:
                ema.update()
            self.history.diffusion_losses.append(loss.item())
            if on_step:
                on_step(it, loss.item())
        if ema is not None:
            # sample from the averaged weights, as diffusion codebases do
            ema.copy_to()
        self.ddpm.eval()

    def finetune_diffusion(self, windows: Sequence[np.ndarray],
                           steps: Optional[int] = None) -> None:
        """Few-step fine-tuning (Sec. 4.6)."""
        tc = self.train_cfg
        steps = steps or self.config.diffusion.finetune_steps
        spec = keyframe_spec(self.config.pipeline.window,
                             self.config.pipeline.keyframe_strategy,
                             interval=self.config.pipeline.keyframe_interval)
        latents = self._latent_windows(windows)
        rng = np.random.default_rng((self.seed, 3))
        batches = (latents[rng.integers(0, latents.shape[0],
                                        size=min(tc.diffusion_batch,
                                                 latents.shape[0]))]
                   for _ in range(tc.finetune_iters))
        self.ddpm.train()
        finetune_steps(self.ddpm, steps, batches, spec,
                       lr=tc.diffusion_lr * 0.1, rng=rng,
                       grad_clip=tc.grad_clip,
                       on_step=lambda i, l:
                       self.history.finetune_losses.append(l))
        self.ddpm.eval()

    # ------------------------------------------------------------------
    def fit_corrector(self, windows: Sequence[np.ndarray],
                      max_windows: int = 4) -> ErrorBoundCorrector:
        """Fit the PCA residual basis on training reconstructions."""
        pcfg = self.config.pipeline
        compressor = LatentDiffusionCompressor(self.vae, self.ddpm, pcfg)
        residuals = []
        for wdw in list(windows)[:max_windows]:
            wdw = np.asarray(wdw)
            res = compressor.compress(wdw)
            residuals.append(wdw - res.reconstruction)
        pca = ResidualPCA(block=pcfg.pca_block, rank=pcfg.pca_rank)
        pca.fit(np.concatenate(residuals, axis=0))
        return ErrorBoundCorrector(pca,
                                   coeff_quant_bits=pcfg.coeff_quant_bits)

    def build_compressor(self, windows: Sequence[np.ndarray],
                         original_dtype_bytes: int = 4
                         ) -> LatentDiffusionCompressor:
        """Assemble the deployable compressor (with fitted corrector)."""
        corrector = self.fit_corrector(windows)
        return LatentDiffusionCompressor(
            self.vae, self.ddpm, self.config.pipeline, corrector=corrector,
            original_dtype_bytes=original_dtype_bytes)

    # ------------------------------------------------------------------
    # stage-boundary checkpointing
    # ------------------------------------------------------------------
    def save_checkpoint(self, path: str) -> None:
        """Persist trainer state (weights + configs + loss history).

        Checkpoints sit at stage boundaries — the natural protocol is
        ``train_vae -> save``, then ``from_checkpoint -> train_diffusion``
        (possibly on another machine): stage 2 only needs the frozen
        stage-1 encoder, exactly as in Sec. 3.4.
        """
        import dataclasses
        import json
        cfg = {
            "vae": dataclasses.asdict(self.config.vae),
            "diffusion": dataclasses.asdict(self.config.diffusion),
            "pipeline": dataclasses.asdict(self.config.pipeline),
            "train": dataclasses.asdict(self.train_cfg),
            "seed": self.seed,
            "schedule_steps": self.ddpm.schedule.steps,
        }
        arrays = {f"vae/{k}": v for k, v in self.vae.state_dict().items()}
        arrays.update({f"ddpm/{k}": v
                       for k, v in self.ddpm.state_dict().items()})
        arrays["history/vae"] = np.asarray(self.history.vae_losses)
        arrays["history/diffusion"] = np.asarray(
            self.history.diffusion_losses)
        arrays["history/finetune"] = np.asarray(
            self.history.finetune_losses)
        arrays["config_json"] = np.frombuffer(
            json.dumps(cfg).encode(), dtype=np.uint8)
        np.savez_compressed(path, **arrays)

    @classmethod
    def from_checkpoint(cls, path: str) -> "TwoStageTrainer":
        """Rebuild a trainer (weights, configs, history) from disk."""
        import json
        with np.load(path) as archive:
            cfg = json.loads(bytes(archive["config_json"]).decode())
            trainer = cls(ReproConfig.from_saved(cfg),
                          TrainingConfig(**cfg["train"]),
                          seed=int(cfg["seed"]))
            trainer.vae.load_state_dict(
                {k[len("vae/"):]: archive[k] for k in archive.files
                 if k.startswith("vae/")})
            trainer.ddpm.load_state_dict(
                {k[len("ddpm/"):]: archive[k] for k in archive.files
                 if k.startswith("ddpm/")})
            trainer.ddpm.set_schedule(int(cfg["schedule_steps"]))
            trainer.history.vae_losses = list(archive["history/vae"])
            trainer.history.diffusion_losses = list(
                archive["history/diffusion"])
            trainer.history.finetune_losses = list(
                archive["history/finetune"])
        return trainer
