"""End-to-end compressor integration tests (tiny config).

A single trained trainer/compressor is shared module-wide — training is
the expensive part and the tests here probe different properties of the
same artifact.
"""

import numpy as np
import pytest

from repro import (CompressedBlob, LatentDiffusionCompressor,
                   TrainingConfig, TwoStageTrainer, nrmse, tiny)
from repro.bound import Bound
from repro.data import E3SMSynthetic
from repro.data.base import train_test_windows
from repro.pipeline import CodecEngine
from repro.pipeline.compressor import window_starts

CFG = tiny()


def _tau(frames, target: float) -> float:
    """The L2 ``tau`` (Sec. 3.5) of an NRMSE target (Eq. 12)."""
    return Bound.nrmse(target).to("l2", frames=frames).value


class TestWindowStarts:
    def test_exact_division(self):
        assert window_starts(12, 6) == [0, 6]

    def test_overlapping_tail(self):
        assert window_starts(14, 6) == [0, 6, 8]

    def test_single(self):
        assert window_starts(6, 6) == [0]

    def test_too_short(self):
        with pytest.raises(ValueError):
            window_starts(4, 6)


class TestCompressDecompress:
    def test_roundtrip_without_bound(self, trained):
        _, compressor, frames, _ = trained
        res = compressor.compress(frames)
        recon = compressor.decompress(res.blob)
        np.testing.assert_allclose(recon, res.reconstruction, atol=1e-9)

    def test_roundtrip_through_bytes(self, trained):
        """Serialize -> deserialize -> decompress gives identical output."""
        _, compressor, frames, _ = trained
        res = compressor.compress(frames, error_bound=_tau(frames, 0.05))
        blob2 = CompressedBlob.from_bytes(res.blob.to_bytes())
        recon = compressor.decompress(blob2)
        np.testing.assert_allclose(recon, res.reconstruction, atol=1e-9)

    def test_compression_actually_compresses(self, trained):
        _, compressor, frames, _ = trained
        res = compressor.compress(frames)
        assert res.ratio > 1.0

    def test_error_bound_honored(self, trained):
        _, compressor, frames, _ = trained
        target = 0.02
        res = compressor.compress(frames, error_bound=_tau(frames, target))
        assert res.achieved_nrmse <= target * (1 + 1e-9)
        # and the decoded stream matches
        recon = compressor.decompress(res.blob)
        assert nrmse(frames, recon) <= target * (1 + 1e-9)

    def test_absolute_l2_bound(self, trained):
        _, compressor, frames, _ = trained
        res_plain = compressor.compress(frames)
        err = np.linalg.norm(frames - res_plain.reconstruction)
        tau = 0.5 * err
        res = compressor.compress(frames, error_bound=tau)
        achieved = np.linalg.norm(frames - res.reconstruction)
        assert achieved <= tau * (1 + 1e-9)

    def test_tighter_bound_lower_ratio(self, trained):
        _, compressor, frames, _ = trained
        loose = compressor.compress(frames, error_bound=_tau(frames, 0.05))
        tight = compressor.compress(frames, error_bound=_tau(frames, 0.005))
        assert tight.ratio < loose.ratio
        assert tight.achieved_nrmse <= 0.005 * (1 + 1e-9)

    def test_keyframes_dominate_quality(self, trained):
        """Keyframe frames reconstruct at least as well on average as
        generated frames (they skip the generative stage)."""
        _, compressor, frames, _ = trained
        res = compressor.compress(frames)
        spec = compressor.spec()
        w = CFG.pipeline.window
        key_err, gen_err = [], []
        for start in window_starts(frames.shape[0], w):
            chunk_err = np.sqrt(((frames[start:start + w]
                                  - res.reconstruction[start:start + w]) ** 2
                                 ).mean(axis=(1, 2)))
            key_err.extend(chunk_err[spec.cond_idx])
            gen_err.extend(chunk_err[spec.gen_idx])
        assert np.mean(key_err) <= np.mean(gen_err) * 1.5

    def test_invalid_inputs(self, trained):
        _, compressor, frames, _ = trained
        with pytest.raises(ValueError):
            compressor.compress(frames[0])  # 2-D
        with pytest.raises(TypeError):  # tau is the only bound here
            compressor.compress(frames, error_bound=1.0, nrmse_bound=0.1)

    def test_bound_without_corrector_raises(self, trained):
        trainer, _, frames, _ = trained
        bare = LatentDiffusionCompressor(trainer.vae, trainer.ddpm,
                                         CFG.pipeline)
        with pytest.raises(ValueError):
            bare.compress(frames, error_bound=_tau(frames, 0.01))

    def test_window_mismatch_raises(self, trained):
        trainer, _, _, _ = trained
        from dataclasses import replace
        bad = replace(CFG.pipeline, window=CFG.pipeline.window + 2)
        with pytest.raises(ValueError):
            LatentDiffusionCompressor(trainer.vae, trainer.ddpm, bad)


class TestAccounting:
    def test_bytes_split(self, trained):
        _, compressor, frames, _ = trained
        res = compressor.compress(frames, error_bound=_tau(frames, 0.02))
        acc = res.accounting
        assert acc.latent_bytes > 0
        assert acc.guarantee_bytes > 0
        assert acc.compressed_bytes == res.blob.total_bytes()
        assert acc.original_bytes == frames.size * 4

    def test_ratio_definition(self, trained):
        _, compressor, frames, _ = trained
        res = compressor.compress(frames)
        assert res.ratio == pytest.approx(
            frames.size * 4 / res.blob.total_bytes())


class TestTrainingImproves:
    def test_trained_beats_untrained(self, trained):
        """The trained pipeline reconstructs better than random weights."""
        trainer, compressor, frames, _ = trained
        res_trained = compressor.compress(frames)
        untrained = TwoStageTrainer(
            CFG, TrainingConfig(vae_iters=1, diffusion_iters=1,
                                finetune_iters=0), seed=9)
        bare = LatentDiffusionCompressor(untrained.vae, untrained.ddpm,
                                         CFG.pipeline)
        res_bare = bare.compress(frames)
        assert res_trained.achieved_nrmse < res_bare.achieved_nrmse


class TestParallel:
    """Window-parallel batches through the engine (the deprecated
    ``repro.pipeline.parallel`` shim over it has been removed)."""

    def test_parallel_matches_serial(self, trained):
        _, compressor, frames, _ = trained
        stacks = [frames, frames * 0.5 + 1.0]
        serial = CodecEngine(compressor, max_workers=1).compress(stacks)
        parallel = CodecEngine(compressor, max_workers=2).compress(stacks)
        for a, b in zip(serial.results, parallel.results):
            np.testing.assert_allclose(a.reconstruction, b.reconstruction,
                                       atol=1e-12)
            assert a.detail.blob.to_bytes() == b.detail.blob.to_bytes()

    def test_invalid_workers(self, trained):
        _, compressor, frames, _ = trained
        with pytest.raises(ValueError):
            CodecEngine(compressor, max_workers=0).compress([frames])
