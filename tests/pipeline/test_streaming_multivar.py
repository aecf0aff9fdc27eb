"""Streaming and multi-variable pipeline tests (use the shared trained
tiny pipeline from conftest).  Both sources are written as shard
archives: one named member per variable, one member per chunk."""

import numpy as np
import pytest

from repro.api import Session
from repro.codecs import as_codec, get_codec, pack_envelope
from repro.data import E3SMSynthetic
from repro.pipeline import (CompressedBlob, MultiVariableCompressor,
                            ShardEntry, StreamingCompressor,
                            pack_shard_archive, read_members)

from .test_legacy_archives import legacy_archive

WINDOW = 6  # == tiny().pipeline.window


def _mapping_archive(result) -> bytes:
    """A mapping archive of per-variable results, each member wrapped
    with the codec that wrote it."""
    return pack_shard_archive([
        ShardEntry(name, i, 0, 0, pack_envelope(r.codec, r.payload))
        for i, (name, r) in enumerate(result.results.items())])


def _stream(compressor, frames, **kw):
    """The frames written by a session's stream path."""
    with Session(codec=as_codec(compressor), executor="serial") as s:
        return s.compress(iter(frames), **kw)


class TestCodecBackedContainers:
    """Streaming/multivar drive any registry codec, not just ours."""

    def _frames(self):
        ds = E3SMSynthetic(t=20, h=16, w=16, seed=9)
        return ds.normalized_frames(0) * 2.0

    def test_streaming_with_rule_based_codec(self):
        frames = self._frames()
        sc = StreamingCompressor("szlike", chunk_windows=6)
        archive = _stream("szlike", frames, nrmse_bound=0.05,
                          chunk_windows=6)
        assert archive.stats["frames"] == frames.shape[0]
        assert {m.codec for m in archive.index()} == {"szlike"}
        recon = np.concatenate(list(sc.decompress_stream(
            archive.to_bytes())))
        assert recon.shape == frames.shape
        assert archive.stats["ratio"] > 1.0
        # per-chunk NRMSE bound holds through the codec normalization
        from repro.metrics import nrmse
        assert nrmse(frames, recon) <= 0.05 * (1 + 1e-9)

    def test_streaming_codec_mismatch_rejected(self):
        frames = self._frames()
        archive = _stream("szlike", frames, nrmse_bound=0.05,
                          chunk_windows=6)
        other = StreamingCompressor("mgard", chunk_windows=6)
        with pytest.raises(ValueError, match="szlike"):
            list(other.decompress_stream(archive.data))

    def test_multivar_with_codec_names(self):
        ds = E3SMSynthetic(t=12, h=16, w=16, seed=3, num_vars=2)
        stacks = {f"v{i}": ds.normalized_frames(i) * (2.0 + i)
                  for i in range(2)}
        mv = MultiVariableCompressor(
            {"v0": "szlike", "v1": "dpcm"}, max_workers=2)
        result = mv.compress(stacks, nrmse_bound=0.05)
        assert result.worst_nrmse() <= 0.05 * (1 + 1e-9)
        archive = _mapping_archive(result)
        assert [(m.key, name) for m, name, _ in read_members(archive)] \
            == [("v0", "szlike"), ("v1", "dpcm")]
        out = mv.decompress(archive)
        for name, stack in stacks.items():
            assert out[name].shape == stack.shape

    def test_multivar_parallel_matches_serial(self, trained):
        _, compressor, _, _ = trained
        ds = E3SMSynthetic(t=12, h=16, w=16, seed=3, num_vars=2)
        stacks = {f"v{i}": ds.normalized_frames(i) * (2.0 + i)
                  for i in range(2)}
        serial = MultiVariableCompressor(compressor, max_workers=1) \
            .compress(stacks, nrmse_bound=0.05)
        parallel = MultiVariableCompressor(compressor, max_workers=2) \
            .compress(stacks, nrmse_bound=0.05)
        for name in stacks:
            assert serial.results[name].payload == \
                parallel.results[name].payload


class TestStreamingCompressor:
    def test_roundtrip_matches_batch_chunks(self, trained):
        """Streamed decode equals per-chunk batch compression."""
        _, compressor, frames, _ = trained
        sc = StreamingCompressor(compressor, chunk_windows=2)
        archive = _stream(compressor, frames, chunk_windows=2)
        assert archive.stats["frames"] == frames.shape[0]
        recon = np.concatenate(list(sc.decompress_stream(archive.data)))
        assert recon.shape == frames.shape
        # each chunk is an independent blob; its decode must equal the
        # batch pipeline run on that chunk with the same seed
        _, name, payload = next(read_members(archive.data))
        assert name == "ours"
        blob0 = CompressedBlob.from_bytes(payload)
        direct = compressor.compress(
            frames[:blob0.shape[0]], noise_seed=blob0.noise_seed)
        np.testing.assert_allclose(recon[:blob0.shape[0]],
                                   direct.reconstruction, atol=1e-9)

    def test_chunk_partition_no_loss_no_overlap(self, trained):
        _, compressor, frames, _ = trained
        sc = StreamingCompressor(compressor, chunk_windows=1)
        results = list(sc.compress_iter(iter(frames)))
        starts = [r.start_frame for r in results]
        lengths = [r.num_frames for r in results]
        assert starts[0] == 0
        for s, prev_s, prev_n in zip(starts[1:], starts, lengths):
            assert s == prev_s + prev_n
        assert sum(lengths) == frames.shape[0]
        # every chunk holds at least one full window
        assert all(n >= WINDOW for n in lengths)

    def test_tail_shorter_than_chunk_is_absorbed(self, trained):
        """36 frames, chunk=12: tail rule keeps final chunk >= window."""
        _, compressor, frames, _ = trained
        sc = StreamingCompressor(compressor, chunk_windows=2)
        lengths = [r.num_frames for r in sc.compress_iter(iter(frames))]
        assert sum(lengths) == frames.shape[0]
        assert lengths[-1] >= WINDOW

    def test_stream_shorter_than_window_raises(self, trained):
        _, compressor, frames, _ = trained
        sc = StreamingCompressor(compressor)
        with pytest.raises(ValueError):
            list(sc.compress_iter(iter(frames[:WINDOW - 1])))

    def test_rejects_non_2d_frames(self, trained):
        _, compressor, frames, _ = trained
        sc = StreamingCompressor(compressor)
        with pytest.raises(ValueError):
            list(sc.compress_iter(iter([frames])))  # one 3-D "frame"

    def test_rejects_bad_chunk_windows(self, trained):
        _, compressor, _, _ = trained
        with pytest.raises(ValueError):
            StreamingCompressor(compressor, chunk_windows=0)

    def test_per_chunk_error_bound_holds(self, trained):
        _, compressor, frames, _ = trained
        sc = StreamingCompressor(compressor, chunk_windows=2)
        bound = 0.05
        recon_chunks = []
        taus = []
        pos = 0
        for res in sc.compress_iter(iter(frames), nrmse_bound=bound):
            chunk = frames[pos:pos + res.num_frames]
            pos += res.num_frames
            assert res.achieved_nrmse <= bound * (1 + 1e-9)
            rng_ = chunk.max() - chunk.min()
            taus.append(bound * rng_ * np.sqrt(chunk.size))
            recon_chunks.append(sc.compressor.decompress(res.blob))
        recon = np.concatenate(recon_chunks)
        global_l2 = float(np.linalg.norm(frames - recon))
        assert global_l2 <= np.sqrt(np.sum(np.square(taus))) * (1 + 1e-9)

    def test_archive_serialization_roundtrip(self, trained, tmp_path):
        _, compressor, frames, _ = trained
        sc = StreamingCompressor(compressor, chunk_windows=2)
        archive = _stream(compressor, frames, chunk_windows=2)
        path = archive.save(tmp_path / "stream.shrd")
        assert len(archive.index()) == archive.stats["chunks"]
        # a path decodes one member at a time, like the in-memory form
        np.testing.assert_array_equal(
            np.concatenate(list(sc.decompress_stream(path))),
            np.concatenate(list(sc.decompress_stream(archive.data))))
        assert archive.stats["ratio"] > 1.0

    def test_archive_rejects_corruption(self):
        sc = StreamingCompressor("szlike")
        with pytest.raises(ValueError):
            list(sc.decompress_stream(b"XXXX" + b"\x00" * 16))
        assert list(sc.decompress_stream(pack_shard_archive([]))) == []


class TestMultiVariableCompressor:
    def _stacks(self):
        ds = E3SMSynthetic(t=12, h=16, w=16, seed=3, num_vars=2)
        return {f"v{i}": ds.normalized_frames(i) * (2.0 + i)
                for i in range(2)}

    def test_compress_mapping_roundtrip(self, trained):
        _, compressor, _, _ = trained
        mv = MultiVariableCompressor(compressor)
        stacks = self._stacks()
        result = mv.compress(stacks)
        assert set(result.variables) == set(stacks)
        assert result.ratio > 1.0
        out = mv.decompress(_mapping_archive(result))
        for name, stack in stacks.items():
            assert out[name].shape == stack.shape

    def test_compress_array_with_names(self, trained):
        _, compressor, _, _ = trained
        mv = MultiVariableCompressor(compressor)
        stacks = self._stacks()
        arr = np.stack(list(stacks.values()))
        result = mv.compress(arr, names=list(stacks))
        assert set(result.variables) == set(stacks)
        # aggregate accounting sums the parts
        acc = result.accounting()
        assert acc.original_bytes == sum(
            r.accounting.original_bytes for r in result.results.values())

    def test_default_names(self, trained):
        _, compressor, _, _ = trained
        mv = MultiVariableCompressor(compressor)
        arr = np.stack(list(self._stacks().values()))
        result = mv.compress(arr)
        assert result.variables == ["var0", "var1"]

    def test_per_variable_bound(self, trained):
        _, compressor, _, _ = trained
        mv = MultiVariableCompressor(compressor)
        result = mv.compress(self._stacks(), nrmse_bound=0.05)
        assert result.worst_nrmse() <= 0.05 * (1 + 1e-9)

    def test_archive_serialization(self, trained):
        _, compressor, _, _ = trained
        mv = MultiVariableCompressor(compressor)
        result = mv.compress(self._stacks())
        out = mv.decompress(_mapping_archive(result))
        assert set(out) == set(self._stacks())

    def test_per_variable_mapping_missing_raises(self, trained):
        _, compressor, _, _ = trained
        mv = MultiVariableCompressor({"v0": compressor})
        with pytest.raises(KeyError):
            mv.compress(self._stacks())

    def test_rejects_bad_inputs(self, trained):
        _, compressor, _, _ = trained
        mv = MultiVariableCompressor(compressor)
        with pytest.raises(ValueError):
            mv.compress(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            mv.compress(np.zeros((1, 12, 16, 16)), names=["a", "b"])
        with pytest.raises(ValueError):
            mv.compress(self._stacks(), names=["a", "b"])
        with pytest.raises(ValueError):
            MultiVariableCompressor({})
        with pytest.raises(ValueError):
            mv.decompress(b"junkjunk")


class TestSessionMultivarDecode:
    """``Session.decompress`` reads every mapping member through the
    checksummed member index, as ``MultiVariableCompressor.decompress``
    does, and returns what it returns.  New members are all envelopes;
    raw blob members exist only in legacy ``LDMV`` archives."""

    def _stacks(self):
        return TestMultiVariableCompressor()._stacks()

    def _session(self, compressor):
        from repro.api import Session
        from repro.codecs import as_codec
        return Session(codec=as_codec(compressor), executor="serial")

    def test_blob_and_envelope_members_match_parsed_decode(self, trained):
        _, compressor, _, _ = trained
        mv = MultiVariableCompressor({"v0": compressor, "v1": "szlike"})
        wire = _mapping_archive(mv.compress(self._stacks(),
                                            nrmse_bound=0.05))
        ref = mv.decompress(wire)
        with self._session(compressor) as session:
            full = session.decompress(wire)
            assert list(full) == ["v0", "v1"]
            for name in ref:
                np.testing.assert_array_equal(full[name], ref[name])
            # expect_codec covers the pipeline codec's members too
            from repro.api import SessionError
            with pytest.raises(SessionError, match="'ours'"):
                session.decompress(wire, expect_codec="szlike")

    def test_v1_blob_archive_still_decodes(self):
        ours = get_codec("ours")
        data = legacy_archive("ldmv-v1-ours")
        ref = MultiVariableCompressor(ours).decompress(data)
        assert list(ref) == ["var0", "var1"]
        with self._session(ours) as session:
            full = session.decompress(data)
        assert list(full) == list(ref)
        for name in ref:
            np.testing.assert_array_equal(full[name], ref[name])
