"""Streaming and multi-variable sources of ``Session`` (use the shared
trained tiny pipeline from conftest).  Both are written as shard
archives: one named member per variable, one member per chunk."""

import hashlib

import numpy as np
import pytest

from repro.api import Archive, Bound, Session, SessionError
from repro.codecs import as_codec, get_codec, pack_envelope
from repro.data import E3SMSynthetic, get_dataset
from repro.metrics import CompressionAccounting, nrmse
from repro.pipeline import (CompressedBlob, ShardEntry,
                            pack_shard_archive, read_members)
from repro.pipeline.engine import SEED_STRIDE, VAR_SEED_STRIDE

from .test_legacy_archives import legacy_archive

WINDOW = 6  # == tiny().pipeline.window


def _mixed_mapping(codecs, stacks, bound=None) -> bytes:
    """A mapping archive whose variable ``i`` was compressed by its own
    codec ``codecs[name]``, seeded ``VAR_SEED_STRIDE * i``; each member
    is wrapped with the codec that wrote it."""
    entries = []
    for i, (name, stack) in enumerate(stacks.items()):
        r = as_codec(codecs[name]).compress_bounded(
            stack, bound=bound, seed=VAR_SEED_STRIDE * i)
        entries.append(ShardEntry(name, i, 0, 0,
                                  pack_envelope(r.codec, r.payload)))
    return pack_shard_archive(entries)


def _member_decode(codecs, wire):
    """Every member of ``wire`` decoded on its own by its variable's
    codec: ``{key: array}``."""
    return {row.key: as_codec(codecs[row.key]).decompress(payload)
            for row, _, payload in read_members(wire)}


def _session(compressor, **kw):
    return Session(codec=as_codec(compressor), executor="serial", **kw)


def _stream(compressor, frames, **kw):
    """The archive written by a session's stream path."""
    with _session(compressor) as s:
        return s.compress(iter(frames), **kw)


class TestCodecBackedContainers:
    """Streams and mappings drive any registry codec, not just ours."""

    def _frames(self):
        ds = E3SMSynthetic(t=20, h=16, w=16, seed=9)
        return ds.normalized_frames(0) * 2.0

    def test_streaming_with_rule_based_codec(self):
        frames = self._frames()
        archive = _stream("szlike", frames, bound=Bound.nrmse(0.05),
                          chunk_windows=6)
        assert archive.stats["frames"] == frames.shape[0]
        assert {m.codec for m in archive.index()} == {"szlike"}
        with _session("szlike") as s:
            recon = s.decompress(archive.to_bytes())
        assert recon.shape == frames.shape
        assert archive.stats["ratio"] > 1.0
        # per-chunk NRMSE bound holds through the codec normalization
        assert nrmse(frames, recon) <= 0.05 * (1 + 1e-9)

    def test_streaming_codec_mismatch_rejected(self):
        frames = self._frames()
        archive = _stream("szlike", frames, bound=Bound.nrmse(0.05),
                          chunk_windows=6)
        with _session("mgard") as other:
            with pytest.raises(SessionError, match="szlike"):
                other.decompress(archive.data, expect_codec="mgard")

    def test_multivar_with_codec_names(self):
        """A mapping written with a codec per variable decodes member
        by member through one session."""
        ds = E3SMSynthetic(t=12, h=16, w=16, seed=3, num_vars=2)
        stacks = {f"v{i}": ds.normalized_frames(i) * (2.0 + i)
                  for i in range(2)}
        codecs = {"v0": "szlike", "v1": "dpcm"}
        archive = _mixed_mapping(codecs, stacks, Bound.nrmse(0.05))
        assert [(m.key, name) for m, name, _ in read_members(archive)] \
            == [("v0", "szlike"), ("v1", "dpcm")]
        with Session(executor="serial") as s:
            out = s.decompress(archive)
            for name, stack in stacks.items():
                assert nrmse(stack, out[name]) <= 0.05 * (1 + 1e-9)
                np.testing.assert_array_equal(
                    s.decompress(archive, select=name)[name], out[name])
        ref = _member_decode(codecs, archive)
        for name in stacks:
            np.testing.assert_array_equal(out[name], ref[name])


class TestStreamingCompressor:
    """A frame iterator through ``Session``: sealed chunks, their
    geometry and per-chunk bounds, and the decode of the stream."""

    def test_roundtrip_matches_batch_chunks(self, trained):
        """Streamed decode equals per-chunk batch compression."""
        _, compressor, frames, _ = trained
        archive = _stream(compressor, frames, chunk_windows=2)
        assert archive.stats["frames"] == frames.shape[0]
        with _session(compressor) as s:
            recon = s.decompress(archive.data)
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
        archive = _stream(compressor, frames, chunk_windows=1)
        rows = archive.index()
        assert len(rows) == archive.stats["chunks"]
        assert rows[0].t0 == 0
        for row, prev in zip(rows[1:], rows):
            assert row.t0 == prev.t1
        assert rows[-1].t1 == frames.shape[0]
        # every chunk holds at least one full window
        assert all(row.t1 - row.t0 >= WINDOW for row in rows)

    def test_tail_shorter_than_chunk_is_absorbed(self, trained):
        """chunk=12: a tail shorter than a window joins the last chunk,
        so the final chunk is never shorter than a window."""
        _, compressor, frames, _ = trained
        for count, lengths in ((36, [12, 12, 12]), (26, [12, 14])):
            rows = _stream(compressor, frames[:count],
                           chunk_windows=2).index()
            assert [row.t1 - row.t0 for row in rows] == lengths

    def test_stream_shorter_than_window_raises(self, trained):
        _, compressor, frames, _ = trained
        with _session(compressor) as s:
            with pytest.raises(ValueError, match="shorter than one window"):
                s.compress(iter(frames[:WINDOW - 1]))

    def test_rejects_non_2d_frames(self, trained):
        _, compressor, frames, _ = trained
        with _session(compressor) as s:
            with pytest.raises(ValueError, match=r"must be \(H, W\)"):
                s.compress(iter([frames]))  # one 3-D "frame"

    def test_rejects_bad_chunk_windows(self, trained):
        """``chunk_windows=0`` is refused per session and per call; the
        per-call 0 does not fall back to the session's default."""
        _, compressor, frames, _ = trained
        with _session(compressor, chunk_windows=0) as s:
            with pytest.raises(ValueError, match="chunk_windows must be"):
                s.compress(iter(frames))
        with _session(compressor) as s:
            with pytest.raises(ValueError, match="chunk_windows must be"):
                s.compress(iter(frames), chunk_windows=0)

    def test_per_chunk_error_bound_holds(self, trained):
        _, compressor, frames, _ = trained
        bound = 0.05
        archive = _stream(compressor, frames, chunk_windows=2,
                          bound=Bound.nrmse(bound))
        taus = []
        with _session(compressor) as s:
            for row in archive.index():
                chunk = frames[row.t0:row.t1]
                got = s.decompress(archive.data, select=row.key)
                assert nrmse(chunk, got) <= bound * (1 + 1e-9)
                rng_ = chunk.max() - chunk.min()
                taus.append(bound * rng_ * np.sqrt(chunk.size))
            recon = s.decompress(archive.data)
        assert len(taus) == 3
        global_l2 = float(np.linalg.norm(frames - recon))
        assert global_l2 <= np.sqrt(np.sum(np.square(taus))) * (1 + 1e-9)

    def test_archive_serialization_roundtrip(self, trained, tmp_path):
        _, compressor, frames, _ = trained
        archive = _stream(compressor, frames, chunk_windows=2)
        path = archive.save(tmp_path / "stream.shrd")
        assert len(archive.index()) == archive.stats["chunks"]
        # a path decodes one member at a time, like the in-memory form
        with _session(compressor) as s:
            np.testing.assert_array_equal(s.decompress(path),
                                          s.decompress(archive.data))
        assert archive.stats["ratio"] > 1.0

    def test_archive_rejects_corruption(self):
        with _session("szlike") as s:
            with pytest.raises(SessionError, match="unrecognized"):
                s.decompress(b"XXXX" + b"\x00" * 16)
            with pytest.raises(SessionError, match="empty archive"):
                s.decompress(pack_shard_archive([]))


class TestMultiVariableCompressor:
    """A variable mapping or ``(V, T, H, W)`` array through
    ``Session``: one named member per variable."""

    def _stacks(self):
        ds = E3SMSynthetic(t=12, h=16, w=16, seed=3, num_vars=2)
        return {f"v{i}": ds.normalized_frames(i) * (2.0 + i)
                for i in range(2)}

    def test_compress_mapping_roundtrip(self, trained):
        _, compressor, _, _ = trained
        stacks = self._stacks()
        with _session(compressor) as s:
            archive = s.compress(stacks)
            out = s.decompress(archive)
        assert archive.stats["variables"] == list(stacks)
        assert archive.stats["ratio"] > 1.0
        for name, stack in stacks.items():
            assert out[name].shape == stack.shape

    def test_compress_array_with_names(self, trained):
        _, compressor, _, _ = trained
        stacks = self._stacks()
        arr = np.stack(list(stacks.values()))
        with _session(compressor) as s:
            archive = s.compress(arr, names=list(stacks))
            assert archive.data == s.compress(stacks).data
        assert archive.stats["variables"] == list(stacks)
        # the archive's Eq. 11 ratio sums the per-variable accounting
        codec = as_codec(compressor)
        acc = sum((codec.compress_bounded(
            stack, seed=VAR_SEED_STRIDE * i).accounting
            for i, stack in enumerate(stacks.values())),
            CompressionAccounting(0, 0, 0))
        assert archive.stats["ratio"] == acc.ratio

    def test_default_names(self, trained):
        _, compressor, _, _ = trained
        arr = np.stack(list(self._stacks().values()))
        with _session(compressor) as s:
            archive = s.compress(arr)
            assert list(s.decompress(archive)) == ["var0", "var1"]
        assert archive.stats["variables"] == ["var0", "var1"]

    def test_per_variable_bound(self, trained):
        _, compressor, _, _ = trained
        stacks = self._stacks()
        with _session(compressor) as s:
            archive = s.compress(stacks, bound=Bound.nrmse(0.05))
            out = s.decompress(archive)
        assert archive.stats["nrmse"] <= 0.05 * (1 + 1e-9)
        for name, stack in stacks.items():
            assert nrmse(stack, out[name]) <= 0.05 * (1 + 1e-9)

    def test_archive_serialization(self, trained, tmp_path):
        _, compressor, _, _ = trained
        with _session(compressor) as s:
            archive = s.compress(self._stacks())
            path = archive.save(tmp_path / "mapping.shrd")
            out = s.decompress(Archive.open(path))
            ref = s.decompress(archive)
        assert set(out) == set(self._stacks())
        for name in out:
            np.testing.assert_array_equal(out[name], ref[name])

    def test_rejects_bad_inputs(self, trained):
        _, compressor, _, _ = trained
        with _session(compressor) as s:
            with pytest.raises(ValueError):
                s.compress(np.zeros((3, 3)))
            with pytest.raises(ValueError, match="2 names for 1"):
                s.compress(np.zeros((1, 12, 16, 16)), names=["a", "b"])
            with pytest.raises(ValueError, match="names only apply"):
                s.compress(self._stacks(), names=["a", "b"])
            with pytest.raises(SessionError, match="no variables"):
                s.compress({})
            with pytest.raises(ValueError):
                s.decompress(b"junkjunk")


class TestSessionMultivarDecode:
    """``Session.decompress`` reads every mapping member through the
    checksummed member index and returns what decoding each member on
    its own with its codec returns.  New members are all envelopes;
    raw blob members exist only in legacy ``LDMV`` archives."""

    def _stacks(self):
        return TestMultiVariableCompressor()._stacks()

    def test_blob_and_envelope_members_match_parsed_decode(self, trained):
        _, compressor, _, _ = trained
        codecs = {"v0": compressor, "v1": "szlike"}
        wire = _mixed_mapping(codecs, self._stacks(), Bound.nrmse(0.05))
        ref = _member_decode(codecs, wire)
        with _session(compressor) as session:
            full = session.decompress(wire)
            assert list(full) == ["v0", "v1"]
            for name in ref:
                np.testing.assert_array_equal(full[name], ref[name])
            # expect_codec covers the pipeline codec's members too
            with pytest.raises(SessionError, match="'ours'"):
                session.decompress(wire, expect_codec="szlike")

    def test_v1_blob_archive_still_decodes(self):
        ours = get_codec("ours")
        data = legacy_archive("ldmv-v1-ours")
        ref = _member_decode({"var0": ours, "var1": ours}, data)
        assert list(ref) == ["var0", "var1"]
        with _session(ours) as session:
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
