"""Shared trained artifacts for the benchmark harness.

Every table/figure bench shares these session-scoped fixtures so the
(CPU-trained) models are built once per run.  Scale: the paper trains
64-channel models on 256x256 crops on A100s for 500K iterations; this
harness uses the ``tiny`` configuration on 16x16 synthetic fields for a
few hundred iterations — absolute numbers shrink accordingly, the
qualitative orderings are what the benches assert (see EXPERIMENTS.md).
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
from typing import Dict, List, Optional

import numpy as np
import pytest

from repro import TrainingConfig, TwoStageTrainer, tiny
from repro.baselines import CDCCompressor, GCDCompressor, VAESRCompressor
from repro.codecs import get_codec
from repro.config import DiffusionConfig, VAEConfig
from repro.data import DATASETS
from repro.data.base import train_test_windows

OUT_DIR = pathlib.Path(__file__).parent / "out"

# shared geometry for all benches
T, H, W = 36, 16, 16
WINDOW = 6

VAE1 = VAEConfig(in_channels=1, latent_channels=4, base_filters=8,
                 num_down=2, hyper_filters=4, kernel_size=3)
VAE3 = VAEConfig(in_channels=3, latent_channels=4, base_filters=8,
                 num_down=2, hyper_filters=4, kernel_size=3)
DIFF = DiffusionConfig(latent_channels=4, base_channels=8,
                       channel_mults=(1, 2), time_embed_dim=16,
                       num_frames=WINDOW, train_steps=16, finetune_steps=4,
                       num_groups=2)

TRAIN_CFG = TrainingConfig(vae_iters=300, diffusion_iters=800,
                           finetune_iters=0, vae_batch=4, diffusion_batch=4,
                           lam=1e-6, vae_lr_decay_every=120)


def save_json(name: str, payload) -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, default=float))
    return path


def _git_rev() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             cwd=pathlib.Path(__file__).parent,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def host_facts() -> Dict[str, object]:
    """Revision, host and toolchain a bench record was measured on."""
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = None     # NumPy < 1.26, or a build without BLAS metadata
    return {"git_rev": _git_rev(), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas}


def dataset_frames(key: str) -> np.ndarray:
    cls = DATASETS[key]
    ds = cls(t=T, h=H, w=W, seed=11)
    var = 1 if key == "s3d" else 0  # product-like species for S3D
    return ds.frames(var)


def split(frames: np.ndarray):
    return train_test_windows(frames, window=WINDOW, train_fraction=0.5,
                              stride=1)


def train_ours(frames: np.ndarray, seed: int = 0, config=None,
               train_cfg: TrainingConfig = None):
    import dataclasses
    cfg = config or tiny()
    # private copy: some benches tweak the trainer's config in place
    train_cfg = dataclasses.replace(train_cfg or TRAIN_CFG)
    train, _ = split(frames)
    trainer = TwoStageTrainer(cfg, train_cfg, seed=seed)
    trainer.train_vae(train)
    trainer.train_diffusion(train)
    return trainer, trainer.build_compressor(train)


@pytest.fixture(scope="session")
def frames_by_dataset() -> Dict[str, np.ndarray]:
    return {k: dataset_frames(k) for k in ("e3sm", "s3d", "jhtdb")}


@pytest.fixture(scope="session")
def ours_by_dataset(frames_by_dataset):
    out = {}
    for key, frames in frames_by_dataset.items():
        _, comp = train_ours(frames, seed=0)
        out[key] = comp
    return out


@pytest.fixture(scope="session")
def vaesr_by_dataset(frames_by_dataset):
    out = {}
    for key, frames in frames_by_dataset.items():
        train, _ = split(frames)
        m = VAESRCompressor(VAE1, sr_filters=8, seed=0)
        m.train(train, vae_iters=200, sr_iters=60)
        m.fit_corrector(train, max_windows=2)
        out[key] = m
    return out


@pytest.fixture(scope="session")
def cdc_pair_e3sm(frames_by_dataset):
    """CDC-eps and CDC-X trained on E3SM (speed + RD benches)."""
    train, _ = split(frames_by_dataset["e3sm"])
    models = {}
    for param in ("eps", "x"):
        m = CDCCompressor(VAE3, DIFF, parameterization=param, seed=0)
        m.train(train, vae_iters=150, diffusion_iters=200)
        m.fit_corrector(train, max_windows=2)
        models[param] = m
    return models


@pytest.fixture(scope="session")
def gcd_e3sm(frames_by_dataset):
    train, _ = split(frames_by_dataset["e3sm"])
    m = GCDCompressor(VAE1, DIFF, seed=0)
    m.train(train, vae_iters=150, diffusion_iters=150)
    m.fit_corrector(train, max_windows=2)
    return m


@pytest.fixture(scope="session")
def rule_based():
    """The two rule-based families Fig. 3 plots, from the registry."""
    return {codec.label: codec.impl
            for codec in (get_codec("szlike"), get_codec("zfplike"))}
