"""Archive sniffing/loader tests across every container format,
including the read-only legacy layouts (frozen fixtures) and
pre-manifest model bundles."""

import numpy as np
import pytest

from repro.api import ARCHIVE_KINDS, Archive, SessionError, sniff_kind
from repro.codecs import get_codec, pack_envelope
from repro.pipeline.plan import ShardEntry, pack_shard_archive

from ..pipeline.test_legacy_archives import legacy_archive


@pytest.fixture(scope="module")
def szlike_payload():
    frames = np.random.default_rng(0).normal(size=(4, 8, 8)).cumsum(0)
    res = get_codec("szlike").compress(frames, 0.01)
    return res.payload


@pytest.fixture(scope="module")
def ours_blob():
    """A real pipeline blob (untrained tiny preset — smoke quality)."""
    frames = np.random.default_rng(1).normal(size=(12, 16, 16)).cumsum(0)
    return get_codec("ours").compress(frames).blob


class TestSniffing:
    def test_envelope(self, szlike_payload):
        data = pack_envelope("szlike", szlike_payload)
        assert sniff_kind(data) == "envelope"
        archive = Archive.open(data)
        assert archive.kind == "envelope"
        assert archive.codecs() == ["szlike"]
        name, payload = archive.envelope()
        assert (name, payload) == ("szlike", szlike_payload)

    def test_shard(self, szlike_payload):
        env = pack_envelope("szlike", szlike_payload)
        data = pack_shard_archive([
            ShardEntry("x/v0/t0000-0004", 0, 0, 4, env)])
        archive = Archive.open(data)
        assert archive.kind == "shard"
        assert archive.codecs() == ["szlike"]
        assert archive.describe()["variables"] == [0]

    def test_multivar_v2(self):
        archive = Archive.open(legacy_archive("ldmv-v2-szlike"))
        assert archive.kind == "multivar"
        assert archive.codecs() == ["szlike"]

    def test_multivar_v1_legacy(self):
        """Version-1 container: blob entries only, pre-codec-registry."""
        data = legacy_archive("ldmv-v1-ours")
        # the v1 wire format has no entry-kind byte
        assert data[4] == 1
        archive = Archive.open(data)
        assert archive.kind == "multivar"
        assert archive.codecs() == ["ours"]
        assert [m.key for m in archive.index()] == ["var0", "var1"]

    def test_stream_v2(self):
        archive = Archive.open(legacy_archive("ldsa-v2-szlike"))
        assert archive.kind == "stream"
        assert archive.codecs() == ["szlike"]

    def test_stream_v1_legacy(self):
        data = legacy_archive("ldsa-v1-ours")
        assert data[4] == 1
        archive = Archive.open(data)
        assert archive.kind == "stream"
        assert archive.codecs() == ["ours"]
        # chunk frame counts come from the blob headers
        assert max(m.t1 for m in archive.index()) == 12

    def test_blob(self, ours_blob):
        archive = Archive.open(ours_blob.to_bytes())
        assert archive.kind == "blob"
        assert archive.codecs() == ["ours"]
        assert archive.blob().shape == ours_blob.shape

    def test_model_npz_is_not_an_archive(self, tmp_path):
        path = tmp_path / "model.npz"
        np.savez_compressed(path, weights=np.zeros(3))
        data = path.read_bytes()
        assert sniff_kind(data) == "model"
        with pytest.raises(SessionError, match="not an archive"):
            Archive.open(data)

    def test_unrecognized_magic(self):
        with pytest.raises(SessionError, match="unrecognized container"):
            Archive.open(b"JUNKJUNKJUNK")

    def test_kinds_cover_every_container(self):
        assert set(ARCHIVE_KINDS) == {"blob", "envelope", "multivar",
                                      "stream", "shard"}


class TestArchiveIO:
    def test_save_open_roundtrip(self, tmp_path, szlike_payload):
        data = pack_envelope("szlike", szlike_payload)
        archive = Archive.open(data)
        path = tmp_path / "a.cdx"
        archive.save(path)
        again = Archive.open(path)
        assert again == archive
        assert again.to_bytes() == data
        assert len(again) == len(data)

    def test_open_passes_archives_through(self, szlike_payload):
        archive = Archive.open(pack_envelope("szlike", szlike_payload))
        assert Archive.open(archive) is archive

    def test_wrong_kind_accessor(self, szlike_payload):
        archive = Archive.open(pack_envelope("szlike", szlike_payload))
        with pytest.raises(SessionError, match="not 'blob'"):
            archive.blob()


class TestLegacyBundles:
    def test_pre_manifest_bundle_detected_by_info(self, tmp_path,
                                                  trained_compressor):
        """Legacy (pre-manifest) bundles are neither archives nor
        model artifacts — Session.info and Archive.open refuse them."""
        from repro.api import Session
        from repro.codecs import LatentDiffusionCodec
        path = tmp_path / "legacy.npz"
        np.savez_compressed(path, **LatentDiffusionCodec(
            compressor=trained_compressor).artifact_state())
        with pytest.raises(SessionError, match="legacy.npz.*no manifest"):
            Session().info(path)
        with pytest.raises(SessionError, match="not an archive"):
            Archive.open(path.read_bytes())

    def test_artifact_detected_by_info(self, tmp_path,
                                       trained_compressor):
        from repro.api import Session
        from repro.codecs import LatentDiffusionCodec
        from repro.pipeline.artifacts import save_artifact
        path = tmp_path / "artifact.npz"
        save_artifact(path, LatentDiffusionCodec(
            compressor=trained_compressor))
        info = Session().info(path)
        assert info["kind"] == "artifact"
        assert info["manifest"].codec == "ours"


@pytest.fixture(scope="module")
def trained_compressor():
    """An untrained tiny compressor is enough: bundle layout, not
    rate-distortion, is under test."""
    from repro.codecs import get_codec
    return get_codec("ours").compressor
