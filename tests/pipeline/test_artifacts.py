"""Codec-agnostic artifact layer: store, manifests, round-trips.

The acceptance bar: any trained codec persists to a content-addressed
``.npz`` artifact whose reload reproduces compression *byte-for-byte*,
with provenance (codec spec, training config, dataset spec, state
hash) riding along in the manifest.
"""

import os

import numpy as np
import pytest

from repro import TrainingConfig, TwoStageTrainer, tiny
from repro.bound import Bound
from repro.codecs import Codec, get_codec
from repro.codecs.diffusion import LatentDiffusionCodec
from repro.config import VAEConfig
from repro.data import E3SMSynthetic
from repro.data.base import train_test_windows
from repro.nn.serialization import state_digest
from repro.pipeline.artifacts import (ArtifactManifest, ArtifactStore,
                                      decode_params, encode_params,
                                      is_artifact, load_artifact,
                                      read_manifest, save_artifact)


def _trained_vae_sr(seed=0, **train_kwargs):
    codec = get_codec("vae-sr")
    rng = np.random.default_rng(seed)
    wins = [rng.normal(size=(4, 8, 8)).cumsum(axis=0) for _ in range(2)]
    codec.train(wins, vae_iters=train_kwargs.pop("vae_iters", 2),
                sr_iters=train_kwargs.pop("sr_iters", 2))
    return codec, wins


class TestSaveLoadArtifact:
    def test_roundtrip_byte_identical(self, tmp_path):
        codec, _ = _trained_vae_sr()
        path = str(tmp_path / "m.npz")
        manifest = save_artifact(path, codec)
        assert is_artifact(path)
        clone = load_artifact(path)
        frames = np.linspace(0, 1, 4 * 8 * 8).reshape(4, 8, 8)
        a = codec.compress(frames, None, seed=3)
        b = clone.compress(frames, None, seed=3)
        assert a.payload == b.payload
        assert manifest.state_hash == state_digest(codec.artifact_state())

    def test_corrector_survives(self, tmp_path):
        codec, wins = _trained_vae_sr(seed=1)
        codec.fit_corrector(wins)
        path = str(tmp_path / "m.npz")
        save_artifact(path, codec)
        clone = load_artifact(path)
        frames = wins[0] * 1.1
        a = codec.compress_bounded(frames, bound=Bound.nrmse(0.05),
                                   seed=2)
        b = clone.compress_bounded(frames, bound=Bound.nrmse(0.05),
                                   seed=2)
        assert a.payload == b.payload
        assert a.achieved_nrmse <= 0.05 * (1 + 1e-9)

    def test_save_makes_trained_codec_spec_portable(self, tmp_path):
        codec, _ = _trained_vae_sr()
        with pytest.raises(TypeError, match="trained"):
            codec.to_spec()
        save_artifact(str(tmp_path / "m.npz"), codec)
        spec = codec.to_spec()
        assert spec == {"codec": "vae-sr",
                        "artifact": str(tmp_path / "m.npz")}

    def test_retraining_invalidates_artifact_ref(self, tmp_path):
        codec, wins = _trained_vae_sr()
        save_artifact(str(tmp_path / "m.npz"), codec)
        codec.train(wins, vae_iters=1, sr_iters=1)
        with pytest.raises(TypeError):
            codec.to_spec()

    def test_corrupt_state_detected(self, tmp_path):
        codec, _ = _trained_vae_sr()
        path = str(tmp_path / "m.npz")
        save_artifact(path, codec)
        # tamper: re-save with one array zeroed but the old manifest
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        key = next(k for k in arrays if k.startswith("state/vae/"))
        arrays[key] = np.zeros_like(arrays[key])
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="corrupt"):
            load_artifact(path)
        load_artifact(path, verify=False)  # explicit opt-out still works

    def test_suffixless_path_records_real_file(self, tmp_path):
        """np.savez appends .npz; the recorded artifact ref (and so
        to_spec / process workers) must point at the real file."""
        codec, _ = _trained_vae_sr()
        manifest = save_artifact(str(tmp_path / "model"), codec)
        real = str(tmp_path / "model.npz")
        assert os.path.exists(real)
        assert codec.to_spec()["artifact"] == real
        clone = Codec.from_spec(codec.to_spec())
        frames = np.linspace(0, 1, 4 * 8 * 8).reshape(4, 8, 8)
        assert clone.compress(frames, None, seed=1).payload == \
            codec.compress(frames, None, seed=1).payload
        assert manifest.state_hash == read_manifest(real).state_hash

    def test_non_artifact_rejected(self, tmp_path):
        path = str(tmp_path / "plain.npz")
        np.savez_compressed(path, x=np.arange(3))
        assert not is_artifact(path)
        with pytest.raises(ValueError, match="manifest"):
            load_artifact(path)
        with pytest.raises(ValueError, match="manifest"):
            read_manifest(path)

    def test_model_free_codec_refuses(self, tmp_path):
        with pytest.raises(TypeError, match="no trainable state"):
            save_artifact(str(tmp_path / "m.npz"), get_codec("szlike"))

    def test_provenance_recorded(self, tmp_path):
        codec, _ = _trained_vae_sr()
        path = str(tmp_path / "m.npz")
        save_artifact(path, codec,
                      training={"vae_iters": 2, "seed": 0},
                      dataset={"name": "e3sm", "t": 8})
        m = read_manifest(path)
        assert m.codec == "vae-sr"
        assert m.training == {"vae_iters": 2, "seed": 0}
        assert m.dataset == {"name": "e3sm", "t": 8}
        assert m.spec["codec"] == "vae-sr"
        assert m.key == f"vae-sr-{m.state_hash[:16]}"


class TestParamsCodec:
    def test_config_dataclass_roundtrip(self):
        params = {"vae_cfg": VAEConfig(in_channels=1, latent_channels=4,
                                       base_filters=8, num_down=2,
                                       hyper_filters=4, kernel_size=3),
                  "seed": 3}
        encoded = encode_params(params)
        assert encoded["vae_cfg"]["__config__"] == "VAEConfig"
        decoded = decode_params(encoded)
        assert decoded == params

    def test_plain_values_pass_through(self):
        params = {"a": 1, "b": "x", "c": [1, 2]}
        assert decode_params(encode_params(params)) == params


class TestArtifactStore:
    def test_put_get_roundtrip(self, tmp_path):
        codec, _ = _trained_vae_sr()
        store = ArtifactStore(tmp_path / "store")
        key = store.put(codec, training={"vae_iters": 2})
        assert key in store
        assert store.keys() == [key]
        clone = store.get(key)
        frames = np.linspace(0, 1, 4 * 8 * 8).reshape(4, 8, 8)
        a = codec.compress(frames, None, seed=5)
        b = clone.compress(frames, None, seed=5)
        assert a.payload == b.payload

    def test_put_is_idempotent_and_content_addressed(self, tmp_path):
        codec, _ = _trained_vae_sr()
        store = ArtifactStore(tmp_path / "store")
        k1 = store.put(codec)
        k2 = store.put(codec)
        assert k1 == k2
        assert len(store) == 1
        assert codec.codec_id in k1
        # a differently-trained codec lands under a different key
        other, _ = _trained_vae_sr(seed=5)
        k3 = store.put(other)
        assert k3 != k1
        assert len(store) == 2

    def test_unknown_key_lists_stored(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(KeyError, match="empty store"):
            store.path_for("nope")
        codec, _ = _trained_vae_sr()
        key = store.put(codec)
        with pytest.raises(KeyError, match=key):
            store.path_for("nope")

    def test_index_records_provenance(self, tmp_path):
        import json
        codec, _ = _trained_vae_sr()
        store = ArtifactStore(tmp_path / "store")
        key = store.put(codec, dataset={"name": "toy"})
        with open(store.index_path) as fh:
            index = json.load(fh)
        assert index[key]["codec"] == "vae-sr"
        assert index[key]["dataset"] == {"name": "toy"}
        assert os.path.exists(os.path.join(store.root,
                                           index[key]["path"]))


class TestTrainerCheckpointToArtifact:
    """Satellite: TwoStageTrainer.save_checkpoint state reloaded
    through the ArtifactStore is bit-identical (compress output
    byte-equal before/after)."""

    @pytest.fixture(scope="class")
    def trained_trainer(self):
        frames = E3SMSynthetic(t=24, h=16, w=16, seed=4).frames(0)
        train = train_test_windows(frames, window=6, stride=3)[0]
        cfg = TrainingConfig(vae_iters=4, diffusion_iters=4,
                             finetune_iters=0, lam=1e-6)
        trainer = TwoStageTrainer(tiny(), cfg, seed=11)
        trainer.train_vae(train)
        trainer.train_diffusion(train)
        return trainer, train, frames

    def test_checkpoint_artifact_roundtrip_bit_identical(
            self, trained_trainer, tmp_path):
        trainer, train, frames = trained_trainer
        ckpt = str(tmp_path / "stage2.npz")
        trainer.save_checkpoint(ckpt)

        reference = trainer.build_compressor(train)
        tau = Bound.nrmse(0.05).to("l2", frames=frames).value
        res_ref = reference.compress(frames, error_bound=tau,
                                     noise_seed=3)

        # resume the checkpoint on a "different machine", export the
        # deployable codec into a store, reload, compress: byte-equal
        resumed = TwoStageTrainer.from_checkpoint(ckpt)
        store = ArtifactStore(tmp_path / "store")
        key = resumed.export_artifact(store, train,
                                      dataset={"name": "e3sm"})
        codec = store.get(key)
        res = codec.compressor.compress(frames, error_bound=tau,
                                        noise_seed=3)
        assert res.blob.to_bytes() == res_ref.blob.to_bytes()
        np.testing.assert_array_equal(res.reconstruction,
                                      res_ref.reconstruction)

    def test_export_manifest_carries_training_provenance(
            self, trained_trainer, tmp_path):
        trainer, train, _ = trained_trainer
        path = str(tmp_path / "ours.npz")
        manifest = trainer.export_artifact(path, train,
                                           dataset={"name": "e3sm"})
        assert manifest.codec == "ours"
        assert manifest.training["vae_iters"] == 4
        assert manifest.training["seed"] == 11
        assert manifest.dataset == {"name": "e3sm"}
        # and the exported codec is spec-portable / engine-shippable
        codec = Codec.load_artifact(path)
        assert isinstance(codec, LatentDiffusionCodec)
        assert codec.to_spec()["artifact"] == path
