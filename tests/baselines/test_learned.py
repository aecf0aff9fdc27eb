"""Learned baseline (CDC / GCD / VAE-SR) tests — tiny training budgets.

The baselines hold the models; they compress through their registered
codecs (:func:`repro.codecs.as_codec`).
"""

import numpy as np
import pytest

from repro.baselines import (CDCCompressor, GCDCompressor, VAESRCompressor)
from repro.bound import Bound
from repro.codecs import as_codec
from repro.config import DiffusionConfig, VAEConfig
from repro.data import E3SMSynthetic
from repro.data.base import train_test_windows

VAE1 = VAEConfig(in_channels=1, latent_channels=4, base_filters=8,
                 num_down=2, hyper_filters=4, kernel_size=3)
VAE3 = VAEConfig(in_channels=3, latent_channels=4, base_filters=8,
                 num_down=2, hyper_filters=4, kernel_size=3)
DIFF = DiffusionConfig(latent_channels=4, base_channels=8,
                       channel_mults=(1, 2), time_embed_dim=16,
                       num_frames=6, train_steps=8, finetune_steps=2,
                       num_groups=2)


@pytest.fixture(scope="module")
def data():
    ds = E3SMSynthetic(t=24, h=16, w=16, seed=1)
    frames = ds.normalized_frames(0) * 3.0
    train, _ = train_test_windows(frames, window=6, train_fraction=0.5,
                                  stride=3)
    return frames, train


class TestVAESR:
    @pytest.fixture(scope="class")
    def model(self, data):
        _, train = data
        m = VAESRCompressor(VAE1, sr_filters=8, seed=0)
        m.train(train, vae_iters=60, sr_iters=30)
        m.fit_corrector(train, max_windows=2)
        return m

    def test_compress_roundtrip(self, model, data):
        frames, _ = data
        res = as_codec(model).compress(frames)
        assert res.reconstruction.shape == frames.shape
        assert res.ratio > 1.0
        assert np.isfinite(res.achieved_nrmse)

    def test_error_bound(self, model, data):
        frames, _ = data
        res = as_codec(model).compress_bounded(frames,
                                               bound=Bound.nrmse(0.05))
        assert res.achieved_nrmse <= 0.05 * (1 + 1e-9)
        assert res.accounting.guarantee_bytes > 0

    def test_bound_without_corrector_raises(self, data):
        frames, _ = data
        m = VAESRCompressor(VAE1, seed=0)
        with pytest.raises(ValueError):
            as_codec(m).compress_bounded(frames, bound=Bound.nrmse(0.1))

    def test_bad_input_shape(self, model):
        with pytest.raises(ValueError):
            as_codec(model).compress(np.zeros((4, 4)))


class TestCDC:
    @pytest.fixture(scope="class")
    def model(self, data):
        _, train = data
        m = CDCCompressor(VAE3, DIFF, parameterization="eps", seed=0)
        m.train(train, vae_iters=40, diffusion_iters=40)
        return m

    def test_compress_roundtrip(self, model, data):
        frames, _ = data
        res = as_codec(model).compress(frames)
        assert res.reconstruction.shape == frames.shape
        assert res.ratio > 1.0
        assert np.all(np.isfinite(res.reconstruction))

    def test_frame_padding_path(self, model, data):
        frames, _ = data
        res = as_codec(model).compress(frames[:7])  # 7 % 3 != 0
        assert res.reconstruction.shape == (7, 16, 16)

    def test_x_parameterization(self, data):
        frames, train = data
        m = CDCCompressor(VAE3, DIFF, parameterization="x", seed=0)
        m.train(train, vae_iters=30, diffusion_iters=30)
        res = as_codec(m).compress(frames)
        assert np.all(np.isfinite(res.reconstruction))
        assert m.name == "CDC-X"

    def test_invalid_parameterization(self):
        with pytest.raises(ValueError):
            CDCCompressor(VAE3, DIFF, parameterization="bogus")

    def test_requires_3channel_vae(self):
        with pytest.raises(ValueError):
            CDCCompressor(VAE1, DIFF)

    def test_name(self, model):
        assert model.name == "CDC-eps"


class TestGCD:
    @pytest.fixture(scope="class")
    def model(self, data):
        _, train = data
        m = GCDCompressor(VAE1, DIFF, seed=0)
        m.train(train, vae_iters=40, diffusion_iters=30)
        return m

    def test_compress_roundtrip(self, model, data):
        frames, _ = data
        res = as_codec(model).compress(frames)
        assert res.reconstruction.shape == frames.shape
        assert res.ratio > 1.0
        assert np.all(np.isfinite(res.reconstruction))

    def test_requires_1channel_vae(self):
        with pytest.raises(ValueError):
            GCDCompressor(VAE3, DIFF)

    def test_bad_window_training(self, model):
        with pytest.raises(ValueError):
            model.train([np.zeros((4, 16, 16))], vae_iters=1,
                        diffusion_iters=1)


class TestStorageScaling:
    def test_every_frame_storage_grows_with_frames(self, data):
        """The core contrast of the paper: baselines code every frame,
        so latent bytes grow ~linearly in T even for static content."""
        frames, train = data
        m = VAESRCompressor(VAE1, seed=0)
        m.train(train, vae_iters=30, sr_iters=10)
        short = as_codec(m).compress(frames[:6])
        full = as_codec(m).compress(frames[:24])
        ratio = (full.accounting.latent_bytes
                 / max(short.accounting.latent_bytes, 1))
        assert ratio > 2.5  # ~4x frames -> much more latent storage
