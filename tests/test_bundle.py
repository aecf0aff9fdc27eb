"""Model-bundle persistence tests (save_bundle / load_bundle)."""

import numpy as np
import pytest

from repro.cli import load_bundle, save_bundle
from repro.compression import VAEHyperprior
from repro.config import (DiffusionConfig, PipelineConfig, ReproConfig,
                          VAEConfig)
from repro.diffusion import ConditionalDDPM
from repro.pipeline import LatentDiffusionCompressor
from repro.postprocess import ErrorBoundCorrector, ResidualPCA


def _compressor(activation="silu", with_corrector=False, seed=0):
    rng = np.random.default_rng(seed)
    vae_cfg = VAEConfig(latent_channels=4, base_filters=8, num_down=2,
                        hyper_filters=4, kernel_size=3,
                        activation=activation)
    diff_cfg = DiffusionConfig(latent_channels=4, base_channels=8,
                               channel_mults=(1,), time_embed_dim=16,
                               num_frames=4, train_steps=8,
                               finetune_steps=2, num_groups=2)
    pipe_cfg = PipelineConfig(window=4, keyframe_interval=3,
                              sample_steps=2, pca_block=4, pca_rank=4)
    vae = VAEHyperprior(vae_cfg, rng=rng)
    ddpm = ConditionalDDPM(diff_cfg, rng=rng)
    corrector = None
    if with_corrector:
        pca = ResidualPCA(block=4, rank=4).fit(
            rng.standard_normal((4, 16, 16)))
        corrector = ErrorBoundCorrector(pca, coeff_quant_bits=8)
    return LatentDiffusionCompressor(vae, ddpm, pipe_cfg,
                                     corrector=corrector)


class TestBundleRoundtrip:
    @pytest.mark.parametrize("activation", ["silu", "gdn"])
    def test_weights_and_config_survive(self, tmp_path, activation):
        comp = _compressor(activation=activation)
        path = str(tmp_path / "model.npz")
        save_bundle(path, comp)
        restored = load_bundle(path)
        assert restored.vae.cfg.activation == activation
        for (n0, a0), (n1, a1) in zip(
                sorted(comp.vae.state_dict().items()),
                sorted(restored.vae.state_dict().items())):
            assert n0 == n1
            np.testing.assert_array_equal(a0, a1)
        for (n0, a0), (n1, a1) in zip(
                sorted(comp.ddpm.state_dict().items()),
                sorted(restored.ddpm.state_dict().items())):
            assert n0 == n1
            np.testing.assert_array_equal(a0, a1)

    def test_corrector_survives(self, tmp_path):
        comp = _compressor(with_corrector=True)
        path = str(tmp_path / "model.npz")
        save_bundle(path, comp)
        restored = load_bundle(path)
        assert restored.corrector is not None
        np.testing.assert_array_equal(restored.corrector.pca.basis,
                                      comp.corrector.pca.basis)
        assert restored.corrector.coeff_quant_bits == 8

    def test_no_corrector_loads_none(self, tmp_path):
        comp = _compressor(with_corrector=False)
        path = str(tmp_path / "model.npz")
        save_bundle(path, comp)
        assert load_bundle(path).corrector is None

    def test_restored_compressor_is_functional(self, tmp_path):
        """A loaded (untrained) bundle must still round-trip bytes."""
        comp = _compressor(seed=3)
        path = str(tmp_path / "model.npz")
        save_bundle(path, comp)
        restored = load_bundle(path)
        frames = np.random.default_rng(1).standard_normal((4, 16, 16))
        res = comp.compress(frames)
        out = restored.decompress(res.blob)
        np.testing.assert_allclose(out, res.reconstruction, atol=1e-9)

    def test_gdn_bundle_reconstruction_matches(self, tmp_path):
        comp = _compressor(activation="gdn", seed=4)
        path = str(tmp_path / "model.npz")
        save_bundle(path, comp)
        restored = load_bundle(path)
        frames = np.random.default_rng(2).standard_normal((4, 16, 16))
        r0 = comp.compress(frames)
        r1 = restored.compress(frames)
        np.testing.assert_allclose(r1.reconstruction, r0.reconstruction,
                                   atol=1e-9)
        assert r1.blob.to_bytes() == r0.blob.to_bytes()


class TestBundleFormats:
    """save_bundle writes codec artifacts, the only format that
    loads."""

    def test_new_bundles_are_artifacts(self, tmp_path):
        from repro.pipeline.artifacts import is_artifact, read_manifest
        comp = _compressor(with_corrector=True, seed=6)
        path = str(tmp_path / "model.npz")
        save_bundle(path, comp)
        assert is_artifact(path)
        manifest = read_manifest(path)
        assert manifest.codec == "ours"
        assert len(manifest.state_hash) == 64

    def test_pre_manifest_bundle_is_refused(self, tmp_path, capsys):
        """A pre-artifact .npz (state arrays, no manifest) gets a typed
        error naming the file from every loader, never a KeyError."""
        from repro.api import Session, SessionError
        from repro.cli import main
        from repro.codecs import LatentDiffusionCodec
        from repro.pipeline.bundle import compressor_state
        comp = _compressor(with_corrector=True, seed=5)
        legacy = str(tmp_path / "legacy.npz")
        # the historical save_bundle layout: bare state arrays
        np.savez_compressed(legacy, **compressor_state(comp))
        with pytest.raises(ValueError, match="legacy.npz"):
            load_bundle(legacy)
        with pytest.raises(ValueError, match="legacy.npz"):
            LatentDiffusionCodec.from_bundle(legacy)
        with pytest.raises(ValueError, match="legacy.npz"):
            Session(model=legacy).compress(np.zeros((4, 16, 16)))
        with pytest.raises(SessionError, match="legacy.npz"):
            Session().info(legacy)
        assert main(["info", legacy]) == 2
        assert "legacy.npz" in capsys.readouterr().err

    def test_saved_config_with_retired_error_bound_loads(self):
        """States saved while PipelineConfig had an (unread)
        ``error_bound`` field carry it as null; it is dropped."""
        import json

        from repro.pipeline.bundle import (compressor_from_state,
                                           compressor_state)
        comp = _compressor(with_corrector=True, seed=5)
        state = compressor_state(comp)
        cfg = json.loads(bytes(state["config_json"]).decode())
        assert "error_bound" not in cfg["pipeline"]
        cfg["pipeline"]["error_bound"] = None
        state["config_json"] = np.frombuffer(json.dumps(cfg).encode(),
                                             dtype=np.uint8)
        restored = compressor_from_state(state)
        assert restored.config == comp.config
        frames = np.random.default_rng(8).standard_normal((4, 16, 16))
        r0 = comp.compress(frames, error_bound=20.0, noise_seed=2)
        r1 = restored.compress(frames, error_bound=20.0, noise_seed=2)
        assert r1.blob.to_bytes() == r0.blob.to_bytes()

    def test_artifact_bundle_is_process_portable(self, tmp_path):
        """Bundles written today feed process-pool sweeps directly."""
        from repro.codecs import LatentDiffusionCodec
        comp = _compressor(seed=7)
        path = str(tmp_path / "model.npz")
        save_bundle(path, comp)
        codec = LatentDiffusionCodec.from_bundle(path)
        spec = codec.to_spec()
        assert spec["artifact"] == path
        clone = codec.from_spec(spec)
        frames = np.random.default_rng(3).standard_normal((4, 16, 16))
        a = codec.compress(frames, seed=4)
        b = clone.compress(frames, seed=4)
        assert a.payload == b.payload


class TestExamplesSmoke:
    def test_rulebased_comparison_example_runs(self, capsys):
        """The no-training example must run end to end."""
        import examples.rulebased_comparison as ex
        ex.main()
        out = capsys.readouterr().out
        assert "FAZ-like auto-tuning chose" in out
        assert "progressive recovery" in out
