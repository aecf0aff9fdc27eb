"""Failure-injection tests: corrupted streams, mismatched models."""

import numpy as np
import pytest

from repro import CompressedBlob, LatentDiffusionCompressor, tiny
from repro.bound import Bound
from repro.postprocess import ErrorBoundCorrector, ResidualPCA


def _tau(frames, target: float) -> float:
    """The L2 ``tau`` (Sec. 3.5) of an NRMSE target (Eq. 12)."""
    return Bound.nrmse(target).to("l2", frames=frames).value


CFG = tiny()


class TestCorruptedStreams:
    def test_truncated_blob_raises(self, trained):
        _, compressor, frames, _ = trained
        data = compressor.compress(frames).blob.to_bytes()
        with pytest.raises(Exception):
            CompressedBlob.from_bytes(data[:20])

    def test_garbage_magic_raises(self, trained):
        _, compressor, frames, _ = trained
        data = bytearray(compressor.compress(frames).blob.to_bytes())
        data[0:4] = b"JUNK"
        with pytest.raises(ValueError):
            CompressedBlob.from_bytes(bytes(data))

    def test_corrupted_latent_stream_decodes_differently_or_raises(
            self, trained):
        """Flipping payload bytes must never silently return the
        original reconstruction."""
        _, compressor, frames, _ = trained
        res = compressor.compress(frames)
        blob = CompressedBlob.from_bytes(res.blob.to_bytes())
        corrupted = bytearray(blob.y_stream)
        if len(corrupted) > 4:
            corrupted[len(corrupted) // 2] ^= 0xFF
        blob.y_stream = bytes(corrupted)
        try:
            recon = compressor.decompress(blob)
            assert not np.allclose(recon, res.reconstruction)
        except (ValueError, IndexError, OverflowError):
            pass  # detected corruption is equally acceptable

    def test_corrupted_bound_payload_detected_or_diverges(self, trained):
        """Corrupting the coded correction must either raise or change
        the output — never silently reproduce the bounded result."""
        _, compressor, frames, _ = trained
        res = compressor.compress(frames, error_bound=_tau(frames, 0.05))
        blob = CompressedBlob.from_bytes(res.blob.to_bytes())
        payload = bytearray(blob.bound_payload)
        # hit the coded-integer section, not the geometry header
        idx = max(len(payload) - 8, 60)
        for i in range(idx, min(idx + 4, len(payload))):
            payload[i] ^= 0xA5
        blob.bound_payload = bytes(payload)
        try:
            recon = compressor.decompress(blob)
            assert not np.allclose(recon, res.reconstruction)
        except Exception:
            pass  # detected corruption is equally acceptable


class TestModelMismatch:
    def test_wrong_corrector_block_raises(self, trained):
        trainer, compressor, frames, _ = trained
        res = compressor.compress(frames, error_bound=_tau(frames, 0.05))
        wrong_pca = ResidualPCA(block=CFG.pipeline.pca_block + 1,
                                rank=4).fit(np.zeros((4, 16, 16)) +
                                            np.random.default_rng(0)
                                            .normal(size=(4, 16, 16)))
        bad = LatentDiffusionCompressor(
            trainer.vae, trainer.ddpm, CFG.pipeline,
            corrector=ErrorBoundCorrector(wrong_pca))
        with pytest.raises(ValueError):
            bad.decompress(res.blob)

    def test_decompress_without_corrector_raises(self, trained):
        trainer, compressor, frames, _ = trained
        res = compressor.compress(frames, error_bound=_tau(frames, 0.05))
        bare = LatentDiffusionCompressor(trainer.vae, trainer.ddpm,
                                         CFG.pipeline)
        with pytest.raises(ValueError):
            bare.decompress(res.blob)

    def test_decompress_is_deterministic(self, trained):
        """Two decodes of the same blob are bit-identical (the paper's
        bound argument depends on this)."""
        _, compressor, frames, _ = trained
        blob = compressor.compress(frames).blob
        a = compressor.decompress(blob)
        b = compressor.decompress(blob)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_different_blob_same_bound(self, trained):
        _, compressor, frames, _ = trained
        tau = _tau(frames, 0.05)
        r1 = compressor.compress(frames, error_bound=tau, noise_seed=1)
        r2 = compressor.compress(frames, error_bound=tau, noise_seed=2)
        assert r1.achieved_nrmse <= 0.05 * (1 + 1e-9)
        assert r2.achieved_nrmse <= 0.05 * (1 + 1e-9)
        # reconstructions differ (different sampling noise) but both
        # decode consistently
        np.testing.assert_allclose(
            compressor.decompress(r1.blob), r1.reconstruction, atol=1e-9)
