"""Configuration preset and validation tests."""

import dataclasses
import json

import pytest

from repro.config import (DiffusionConfig, PipelineConfig, ReproConfig,
                          VAEConfig, paper, small, tiny)


class TestPresets:
    @pytest.mark.parametrize("factory", [tiny, small, paper])
    def test_presets_are_internally_consistent(self, factory):
        cfg = factory()  # __post_init__ validates cross-links
        assert cfg.vae.latent_channels == cfg.diffusion.latent_channels
        assert cfg.pipeline.window == cfg.diffusion.num_frames

    def test_paper_records_section43(self):
        """The paper() preset matches Sec. 4.3 verbatim."""
        cfg = paper()
        assert cfg.vae.latent_channels == 64
        assert cfg.diffusion.num_frames == 16
        assert cfg.diffusion.train_steps == 1000
        assert cfg.diffusion.finetune_steps == 32
        assert cfg.pipeline.keyframe_interval == 3

    def test_tiny_smaller_than_small(self):
        assert tiny().vae.latent_channels < small().vae.latent_channels
        assert tiny().diffusion.train_steps <= small().diffusion.train_steps


class TestFromSaved:
    """``ReproConfig.from_saved`` is the one reader of configs that a
    model artifact or a training checkpoint saved as JSON."""

    @pytest.mark.parametrize("factory", [tiny, small, paper])
    def test_json_roundtrip(self, factory):
        cfg = factory()
        saved = json.loads(json.dumps(
            {k: dataclasses.asdict(getattr(cfg, k))
             for k in ("vae", "diffusion", "pipeline")}
            | {"schedule_steps": 4}))
        assert ReproConfig.from_saved(saved) == cfg

    def test_retired_error_bound_dropped(self):
        saved = {k: dataclasses.asdict(getattr(tiny(), k))
                 for k in ("vae", "diffusion", "pipeline")}
        saved["pipeline"]["error_bound"] = None
        assert ReproConfig.from_saved(saved) == tiny()

    def test_inconsistent_configs_refused(self):
        saved = {k: dataclasses.asdict(getattr(tiny(), k))
                 for k in ("vae", "diffusion", "pipeline")}
        saved["pipeline"]["window"] = 5
        with pytest.raises(ValueError, match="window"):
            ReproConfig.from_saved(saved)


class TestValidation:
    def test_vae_rejects_bad_values(self):
        with pytest.raises(ValueError):
            VAEConfig(num_down=0)
        with pytest.raises(ValueError):
            VAEConfig(kernel_size=4)

    def test_vae_downsample_factor(self):
        assert VAEConfig(num_down=3).downsample_factor == 8

    def test_diffusion_rejects_bad_values(self):
        with pytest.raises(ValueError):
            DiffusionConfig(train_steps=0)
        with pytest.raises(ValueError):
            DiffusionConfig(num_frames=0)

    def test_pipeline_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PipelineConfig(keyframe_strategy="nope")
        with pytest.raises(ValueError):
            PipelineConfig(keyframe_interval=0)
        with pytest.raises(ValueError):
            PipelineConfig(window=1)

    def test_bundle_rejects_channel_mismatch(self):
        with pytest.raises(ValueError):
            ReproConfig(vae=VAEConfig(latent_channels=8),
                        diffusion=DiffusionConfig(latent_channels=4))

    def test_bundle_rejects_window_mismatch(self):
        with pytest.raises(ValueError):
            ReproConfig(
                vae=VAEConfig(latent_channels=8),
                diffusion=DiffusionConfig(latent_channels=8, num_frames=8),
                pipeline=PipelineConfig(window=6))
