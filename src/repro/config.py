"""Model/pipeline size configurations.

Three presets are provided:

* :func:`tiny` — used by the unit/integration tests (seconds to train);
* :func:`small` — used by the examples and benchmark harness (minutes);
* :func:`paper` — records the full-scale hyperparameters of Sec. 4.3
  for documentation (latent 64 channels, 256x256 crops, N = 16,
  T = 1000 fine-tuned to 32).  Training it requires the GPU substrate
  the paper used; it is exposed so the configuration itself is testable
  and the scaling path is explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

__all__ = ["VAEConfig", "DiffusionConfig", "PipelineConfig", "ReproConfig",
           "tiny", "small", "paper"]


@dataclass(frozen=True)
class VAEConfig:
    """Architecture of the frame VAE and its hyperprior (Sec. 3.1)."""

    in_channels: int = 1
    latent_channels: int = 8     # paper: 64
    base_filters: int = 16
    num_down: int = 2            # stride-2 stages; paper effectively 4
    hyper_filters: int = 8
    hyper_down: int = 1          # stride-2 stages inside the hyperprior
    kernel_size: int = 5
    activation: str = "silu"     # | "gdn" (Ballé divisive normalization)

    def __post_init__(self):
        if self.num_down < 1:
            raise ValueError("num_down must be >= 1")
        if self.kernel_size % 2 == 0:
            raise ValueError("kernel_size must be odd")
        if self.activation not in ("silu", "gdn"):
            raise ValueError(
                f"activation must be 'silu' or 'gdn', "
                f"got {self.activation!r}")

    @property
    def downsample_factor(self) -> int:
        return 2 ** self.num_down


@dataclass(frozen=True)
class DiffusionConfig:
    """Architecture/training of the latent diffusion module (Sec. 3.2-3.4)."""

    latent_channels: int = 8     # must match VAEConfig.latent_channels
    base_channels: int = 16
    channel_mults: Tuple[int, ...] = (1, 2)
    time_embed_dim: int = 32
    num_frames: int = 8          # paper: N = 16
    train_steps: int = 64        # paper: T = 1000
    finetune_steps: int = 8      # paper: 32
    beta_schedule: str = "linear"
    num_groups: int = 4          # GroupNorm groups

    def __post_init__(self):
        if self.train_steps < 1:
            raise ValueError("train_steps must be >= 1")
        if self.num_frames < 1:
            # num_frames == 1 degenerates to a per-image model; the CDC
            # baseline uses exactly that.
            raise ValueError("num_frames must be >= 1")


@dataclass(frozen=True)
class PipelineConfig:
    """End-to-end compressor settings (Sec. 3.3, 3.5, 4.4-4.5)."""

    window: int = 8              # frames per diffusion window; paper 16
    keyframe_interval: int = 3   # paper's best trade-off (Fig. 4)
    keyframe_strategy: str = "interpolation"  # | "prediction" | "mixed"
    sample_steps: int = 8        # denoising steps at decode time (DDIM)
    # The paper's fast decode trains at T=1000 and *fine-tunes the model
    # to a short schedule*, then runs that short chain — i.e. ancestral
    # sampling over the fine-tuned schedule.  "ddim" instead skips steps
    # of the long schedule without retraining.
    sampler: str = "ancestral"   # | "ddim" | "dpm"
    pca_block: int = 8           # spatial block edge for residual PCA
    pca_rank: int = 32           # retained PCA basis size
    coeff_quant_bits: int = 10   # quantizer resolution for coefficients

    def __post_init__(self):
        if self.keyframe_strategy not in ("interpolation", "prediction",
                                          "mixed"):
            raise ValueError(
                f"unknown keyframe strategy {self.keyframe_strategy!r}")
        if self.keyframe_interval < 1:
            raise ValueError("keyframe_interval must be >= 1")
        if self.window < 2:
            raise ValueError("window must be >= 2")


@dataclass(frozen=True)
class ReproConfig:
    """Bundle of all three configs with consistency checks."""

    vae: VAEConfig = field(default_factory=VAEConfig)
    diffusion: DiffusionConfig = field(default_factory=DiffusionConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)

    def __post_init__(self):
        if self.vae.latent_channels != self.diffusion.latent_channels:
            raise ValueError(
                "VAE and diffusion latent_channels must match "
                f"({self.vae.latent_channels} vs "
                f"{self.diffusion.latent_channels})")
        if self.pipeline.window != self.diffusion.num_frames:
            raise ValueError(
                "pipeline window must equal diffusion num_frames "
                f"({self.pipeline.window} vs {self.diffusion.num_frames})")

    @classmethod
    def from_saved(cls, saved: dict) -> "ReproConfig":
        """Rebuild from the ``vae``/``diffusion``/``pipeline`` dicts a
        model artifact or a training checkpoint saved
        (``dataclasses.asdict`` through JSON, which turned
        ``channel_mults`` into a list); other keys are ignored.  A
        pipeline config saved before the unread ``error_bound`` field
        was removed still carries it (as ``null``); it is dropped."""
        diffusion = dict(saved["diffusion"])
        diffusion["channel_mults"] = tuple(diffusion["channel_mults"])
        pipeline = {k: v for k, v in saved["pipeline"].items()
                    if k != "error_bound"}
        return cls(vae=VAEConfig(**saved["vae"]),
                   diffusion=DiffusionConfig(**diffusion),
                   pipeline=PipelineConfig(**pipeline))


def tiny() -> ReproConfig:
    """Second-scale configuration for tests."""
    return ReproConfig(
        vae=VAEConfig(latent_channels=4, base_filters=8, num_down=2,
                      hyper_filters=4, kernel_size=3),
        diffusion=DiffusionConfig(latent_channels=4, base_channels=8,
                                  channel_mults=(1, 2), time_embed_dim=16,
                                  num_frames=6, train_steps=16,
                                  finetune_steps=4, num_groups=2),
        pipeline=PipelineConfig(window=6, keyframe_interval=3,
                                sample_steps=4, pca_block=4, pca_rank=8),
    )


def small() -> ReproConfig:
    """Minute-scale configuration for examples and benchmarks."""
    return ReproConfig(
        vae=VAEConfig(latent_channels=8, base_filters=16, num_down=2,
                      hyper_filters=8, kernel_size=5),
        diffusion=DiffusionConfig(latent_channels=8, base_channels=16,
                                  channel_mults=(1, 2), time_embed_dim=32,
                                  num_frames=8, train_steps=64,
                                  finetune_steps=8, num_groups=4),
        pipeline=PipelineConfig(window=8, keyframe_interval=3,
                                sample_steps=8, pca_block=8, pca_rank=16),
    )


def paper() -> ReproConfig:
    """Full-scale hyperparameters from Sec. 4.3 (documentation/record)."""
    return ReproConfig(
        vae=VAEConfig(latent_channels=64, base_filters=128, num_down=4,
                      hyper_filters=64, hyper_down=2, kernel_size=5),
        diffusion=DiffusionConfig(latent_channels=64, base_channels=128,
                                  channel_mults=(1, 2, 4), time_embed_dim=512,
                                  num_frames=16, train_steps=1000,
                                  finetune_steps=32, num_groups=32),
        pipeline=PipelineConfig(window=16, keyframe_interval=3,
                                sample_steps=32, pca_block=16, pca_rank=64),
    )
