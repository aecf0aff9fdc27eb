"""Streaming and multi-variable pipeline tests (use the shared trained
tiny pipeline from conftest).  Both sources are written as shard
archives: one named member per variable, one member per chunk."""

import hashlib

import numpy as np
import pytest

from repro.api import Bound, Session
from repro.codecs import as_codec, get_codec, pack_envelope
from repro.data import E3SMSynthetic, get_dataset
from repro.pipeline import (CompressedBlob, MultiVariableCompressor,
                            ShardEntry, StreamingCompressor,
                            pack_shard_archive, read_members)
from repro.pipeline.engine import SEED_STRIDE
from repro.pipeline.multivar import VAR_SEED_STRIDE

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
        mv = MultiVariableCompressor({"v0": "szlike", "v1": "dpcm"})
        result = mv.compress(stacks, bound=Bound.nrmse(0.05))
        assert result.worst_nrmse() <= 0.05 * (1 + 1e-9)
        archive = _mapping_archive(result)
        assert [(m.key, name) for m, name, _ in read_members(archive)] \
            == [("v0", "szlike"), ("v1", "dpcm")]
        out = mv.decompress(archive)
        for name, stack in stacks.items():
            assert out[name].shape == stack.shape



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
        for res in sc.compress_iter(iter(frames),
                                    bound=Bound.nrmse(bound)):
            chunk = frames[pos:pos + res.num_frames]
            pos += res.num_frames
            assert res.achieved_nrmse <= bound * (1 + 1e-9)
            rng_ = chunk.max() - chunk.min()
            taus.append(bound * rng_ * np.sqrt(chunk.size))
            recon_chunks.append(sc.codec.decompress(res.payload))
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
        result = mv.compress(self._stacks(), bound=Bound.nrmse(0.05))
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
                                            bound=Bound.nrmse(0.05)))
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


def _sha(archive) -> str:
    return hashlib.sha256(archive.data).hexdigest()


class TestSessionArchivePins:
    """Mapping variables and stream chunks are engine tasks on the
    session's runtime; every executor writes the same archive bytes,
    seeded ``seed + VAR_SEED_STRIDE * i`` per variable and ``seed +
    SEED_STRIDE * i`` per chunk."""

    #: sha256 of the (mapping, stream, named (V, T, H, W)) archives of
    #: :meth:`_archives`, written before variables and chunks moved
    #: onto the session runtime
    PINS = {
        "szlike": ("0fb2ec77e0fe01b3e7cf956e3c5ecae5"
                   "12b19ae13bd3092e5c89b0b7ad8e9491",
                   "15ab63d80ffd677424418c3f6422d0a3"
                   "dc4dcf130c776372427ff67f3afb8345",
                   "6d5ae54882058179140f12b79550d424"
                   "d05aac2ae355ef1bfb0ee520290c3d48"),
        "dpcm": ("e91a69c8cec247e7163ea0e4c6bb8600"
                 "e45925c34b2d3bfa73a7bea4b990f645",
                 "964223785fcc68296a177afd9c8d156a"
                 "df98cd7a83ad8ff043813f7e91e7c6a5",
                 "caf3939ae781d019fd2188cabe14fa17"
                 "36bed6b45614434cfae0463bb7186c2f"),
        "zfplike": ("ebb75f4aaf4dbfe04da8e5a9af4d25a3"
                    "ae804abf67d5cd2d6c3b7122096459a6",
                    "2b58007b15035db70ac92adc4cb25d39"
                    "cb1a9896bceb4f9cb3faf24d9a301f7b",
                    "78fa9ad89cc52ca606beabbaabdd2597"
                    "67fb8946b70706d17b1265a49f1da998"),
        "mgard": ("9a6616e2a93cde88927ca3e12e1f9361"
                  "c7ad1f8b1c05f858456da129b46de343",
                  "f5626d823c471f0eab2de9b4c4c15d61"
                  "d05950b9bf9d650f8f75e949f391eaa4",
                  "a4c811f478bcd870f28fbc699bcbb486"
                  "b2aa5a62cc20b5aaf7a2ba50134cc47d"),
    }

    @staticmethod
    def _archives(session, frames, bound, chunk_windows):
        """A 2-variable mapping, a stream of ``frames[0]`` and a named
        ``(V, T, H, W)`` array of every variable."""
        names = ["a", "b", "c"][:len(frames)]
        return (session.compress({"u": frames[0], "v": frames[1]},
                                 bound=bound),
                session.compress(iter(frames[0]), bound=bound,
                                 chunk_windows=chunk_windows),
                session.compress(np.stack(frames), names=names,
                                 bound=bound))

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    @pytest.mark.parametrize("codec", list(PINS))
    def test_rule_based_archives_pinned(self, codec, executor):
        ds = get_dataset("e3sm", t=20, h=16, w=16, seed=3, num_vars=3)
        frames = [ds.frames(v) for v in range(3)]
        with Session(codec=codec, executor=executor, workers=2,
                     seed=7) as session:
            archives = self._archives(session, frames, Bound.nrmse(1e-2),
                                      chunk_windows=3)
        assert archives[1].stats["chunks"] == 7  # 6 x 3 frames + a tail
        assert tuple(_sha(a) for a in archives) == self.PINS[codec]

    def test_ours_matches_across_executors(self, trained, tmp_path):
        """serial = thread = process (workers rebuild the model from an
        artifact saved here); blob noise seeds are ``seed +
        VAR_SEED_STRIDE * i`` per variable and ``seed + SEED_STRIDE *
        i`` per chunk."""
        _, compressor, frames, _ = trained
        frames = [frames[:18], frames[18:] * 0.5]
        codec = as_codec(compressor)
        codec.save_artifact(str(tmp_path / "ours.npz"))
        wires = {}
        for executor in ("serial", "thread", "process"):
            with Session(codec=codec, executor=executor, workers=2,
                         seed=5) as session:
                wires[executor] = [a.data for a in self._archives(
                    session, frames, Bound.nrmse(0.05),
                    chunk_windows=1)]
        assert wires["thread"] == wires["serial"]
        assert wires["process"] == wires["serial"]
        mapping, stream, _ = wires["serial"]
        for stride, wire, count in ((VAR_SEED_STRIDE, mapping, 2),
                                    (SEED_STRIDE, stream, 3)):
            seeds = [CompressedBlob.from_bytes(payload).noise_seed
                     for _, _, payload in read_members(wire)]
            assert seeds == [5 + stride * i for i in range(count)]
