"""Partial decode through the footer index: ``select=`` semantics,
executor parity, the bytes-read contract, legacy-version fallback and
checksum enforcement — plus full mapping and stream decode, which read
every member through the same checksummed index."""

import hashlib

import numpy as np
import pytest

from repro.api import Archive, ArchiveIndexError, Bound, Session, \
    SessionError
from repro.pipeline.container import CountingReader

from ..pipeline.test_legacy_archives import legacy_archive

BOUND = Bound.nrmse(1e-3)
T = 24


@pytest.fixture(scope="module")
def frames():
    rng = np.random.default_rng(5)
    return np.cumsum(rng.standard_normal((T, 8, 8)), axis=0)


@pytest.fixture(scope="module")
def session():
    with Session(codec="szlike", executor="serial") as s:
        yield s


@pytest.fixture(scope="module")
def archive(session, frames):
    return session.compress(frames, bound=BOUND, shards=4)


@pytest.fixture(scope="module")
def full(session, archive):
    return session.decompress(archive)


@pytest.fixture(scope="module")
def stream(session, frames):
    """The frames as a 4-chunk stream (6 frames per chunk)."""
    return session.compress(iter(frames), bound=BOUND, chunk_windows=6)


@pytest.fixture(scope="module")
def mapping(session, frames):
    return session.compress({"u": frames, "v": frames * 2.0},
                            bound=BOUND)


class TestSelectMatrix:
    def test_shard_id_equals_slice_of_full(self, session, archive, full):
        m = archive.index()[1]
        window = session.decompress(archive, select=m.key)
        np.testing.assert_array_equal(window, full[m.t0:m.t1])

    def test_time_range(self, session, archive, full):
        window = session.decompress(archive, select=slice(4, 17))
        np.testing.assert_array_equal(window, full[4:17])

    def test_range_not_aligned_to_shards_trims_exactly(self, session,
                                                       archive, full):
        # inside a single 6-frame shard: overhang on both sides
        window = session.decompress(archive, select=slice(7, 9))
        np.testing.assert_array_equal(window, full[7:9])

    def test_open_and_negative_ranges(self, session, archive, full):
        np.testing.assert_array_equal(
            session.decompress(archive, select=slice(None, 6)), full[:6])
        np.testing.assert_array_equal(
            session.decompress(archive, select=slice(-6, None)),
            full[-6:])

    def test_variable_select(self, session, archive, full):
        got = session.decompress(archive, select=0)
        np.testing.assert_array_equal(got, full)

    def test_sequence_union_keeps_file_order(self, session, archive,
                                             full):
        keys = [m.key for m in archive.index()]
        got = session.decompress(archive, select=[keys[1], keys[0]])
        np.testing.assert_array_equal(got, full[:12])

    def test_lazy_path_open(self, session, archive, full, tmp_path):
        path = tmp_path / "a.shrd"
        archive.save(path)
        lazy = Archive.open(path)
        assert lazy.indexed()
        assert lazy.index() == archive.index()
        window = session.decompress(lazy, select=slice(6, 12))
        np.testing.assert_array_equal(window, full[6:12])


class TestSelectErrors:
    def test_empty_range(self, session, archive):
        with pytest.raises(SessionError, match="empty time range"):
            session.decompress(archive, select=slice(9, 9))

    def test_strided_range(self, session, archive):
        with pytest.raises(SessionError, match="step 1"):
            session.decompress(archive, select=slice(0, 8, 2))

    def test_unknown_variable(self, session, archive):
        with pytest.raises(SessionError, match="holds variables"):
            session.decompress(archive, select=7)

    def test_unknown_shard_id(self, session, archive):
        with pytest.raises(SessionError, match="archive holds"):
            session.decompress(archive, select="nope/v0/t0000-0006")

    def test_bad_selector_type(self, session, archive):
        with pytest.raises(SessionError, match="cannot select"):
            session.decompress(archive, select=1.5)

    def test_select_needs_multipart(self, session, frames):
        envelope = session.compress(frames, bound=BOUND)
        with pytest.raises(SessionError, match="multi-part"):
            session.decompress(envelope, select=slice(0, 4))


class TestExecutorParity:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_parallel_partial_equals_serial(self, archive, full,
                                            executor):
        with Session(codec="szlike", executor=executor,
                     workers=2) as par:
            window = par.decompress(archive, select=slice(2, 20))
            np.testing.assert_array_equal(window, full[2:20])
            np.testing.assert_array_equal(par.decompress(archive), full)


class TestBytesReadContract:
    def test_partial_reads_footer_plus_member(self, session, archive,
                                              stream, mapping, tmp_path):
        """One shard, one stream chunk and one named variable each cost
        the footer plus that member."""
        for written, target in ((archive, archive.index()[2]),
                                (stream, stream.index()[1]),
                                (mapping, mapping.index()[1])):
            path = tmp_path / "a.shrd"
            written.save(path)
            size = path.stat().st_size
            members = written.index()
            overhead = size - max(m.offset + m.length for m in members)
            with open(path, "rb") as fh:
                counter = CountingReader(fh)
                session.decompress(Archive.open(counter),
                                   select=target.key)
                # head sniff + container-header cross-checks +
                # trailer/footer + exactly one member
                assert counter.bytes_read <= \
                    64 + overhead + target.length
                assert counter.bytes_read < size


class TestLegacyAndIntegrity:
    """The ``SHRD`` v1 fixture is this module's archive as the last
    release that wrote v1 stored it."""

    def test_v1_archive_still_selects(self, session, archive, full):
        v1 = Archive.open(legacy_archive("shrd-v1-szlike"))
        assert not v1.indexed()
        np.testing.assert_array_equal(session.decompress(v1), full)
        window = session.decompress(v1, select=slice(6, 12))
        np.testing.assert_array_equal(window, full[6:12])

    def test_indexed_full_decode_matches_v1_decode(self, session,
                                                   archive):
        assert archive.data == legacy_archive("shrd-v2-szlike")
        v1 = Archive.open(legacy_archive("shrd-v1-szlike"))
        np.testing.assert_array_equal(session.decompress(archive),
                                      session.decompress(v1))

    def test_corrupt_member_fails_checksum(self, session, archive):
        target = archive.index()[1]
        bad = bytearray(archive.data)
        bad[target.offset + target.length // 2] ^= 0xFF
        with pytest.raises(ArchiveIndexError, match="checksum"):
            session.decompress(Archive.open(bytes(bad)),
                               select=target.key)

    def test_expect_codec_enforced_on_partial(self, session, archive):
        key = archive.index()[0].key
        with pytest.raises(SessionError, match="written by codec"):
            session.decompress(archive, select=key,
                               expect_codec="zfplike")


class TestMultivarSelect:
    def test_name_select_matches_full(self, session, mapping):
        assert mapping.indexed()
        full = session.decompress(mapping)
        one = session.decompress(mapping, select="u")
        assert set(one) == {"u"}
        np.testing.assert_array_equal(one["u"], full["u"])
        both = session.decompress(mapping, select=["v", "u"])
        assert set(both) == {"u", "v"}
        np.testing.assert_array_equal(both["v"], full["v"])

    def test_unknown_name(self, session, mapping):
        with pytest.raises(SessionError, match="archive holds"):
            session.decompress(mapping, select="w")

    def test_bad_selector(self, session, mapping):
        # variables count by position; there is no fourth one
        with pytest.raises(SessionError, match="holds variables"):
            session.decompress(mapping, select=3)

    def test_position_select(self, session, mapping):
        full = session.decompress(mapping)
        one = session.decompress(mapping, select=1)
        assert list(one) == ["v"]
        np.testing.assert_array_equal(one["v"], full["v"])

    def test_time_range_is_empty_on_named_members(self, session,
                                                  mapping):
        with pytest.raises(SessionError, match="empty time range"):
            session.decompress(mapping, select=slice(0, 4))


class TestStreamSelect:
    def test_stream_is_a_shard_archive(self, archive, stream):
        # its chunks fall on the slices of shards=4
        assert stream.kind == "shard"
        assert stream.data == archive.data

    def test_chunk_and_range_selects(self, session, stream, full):
        key = stream.index()[2].key
        np.testing.assert_array_equal(
            session.decompress(stream, select=key), full[12:18])
        np.testing.assert_array_equal(
            session.decompress(stream, select=slice(5, 13)), full[5:13])


def _sha(data) -> str:
    return hashlib.sha256(bytes(data)).hexdigest()


class TestMultivarFullDecode:
    """A full decode is the member-index decode of every row: every
    member read is CRC-checked and decoded on the session runtime."""

    #: sha256 of the archive and of each decoded variable, written and
    #: decoded before full decode moved onto the member index; the
    #: archive digests were re-pinned when integer streams moved to
    #: varint headers and when mappings moved from ``LDMV`` v3 to the
    #: shard archive, and the decoded digests held
    ARCHIVE = ("f2e2fb59dabb86c5dde5cb5433d291d5"
               "11ce7fccd9bc685ae7e1d7d8f07a2a6f")
    DECODED = {"u": "b77ad58cf2ae45c7991a4f2bfbbd9f57"
                    "6f1b9226d91616b584beefd3ba12ec39",
               "v": "620a3b221cddbbb4a4d9f13225af2dbf"
                    "e6c208cb63684c707a32d786f8a81c8e"}
    V2 = ("cf8b5ba3e46e35a20fe43fc4f114410c"
          "57543242c3b1912db2797bc3ba6b268f")

    @pytest.fixture(scope="class")
    def small(self, session):
        rng = np.random.default_rng(5)
        f = np.cumsum(rng.standard_normal((8, 8, 8)), axis=0)
        return session.compress({"u": f, "v": f * 2.0}, bound=BOUND)

    def test_decode_pinned(self, session, small):
        assert _sha(small.data) == self.ARCHIVE
        full = session.decompress(small)
        assert list(full) == ["u", "v"]
        assert {k: _sha(v.tobytes()) for k, v in full.items()} == \
            self.DECODED

    @staticmethod
    def _flip_every_member_bit(session, archive):
        data = archive.data
        members = archive.index()
        flips = 0
        for m in members:
            for pos in range(m.offset, m.offset + m.length):
                for bit in range(8):
                    bad = bytearray(data)
                    bad[pos] ^= 1 << bit
                    with pytest.raises(ArchiveIndexError,
                                       match="checksum"):
                        session.decompress(Archive.open(bytes(bad)))
                    flips += 1
        assert flips == 8 * sum(m.length for m in members)

    def test_every_member_bit_flip_raises(self, session, small):
        self._flip_every_member_bit(session, small)

    def test_every_stream_member_bit_flip_raises(self, session):
        rng = np.random.default_rng(5)
        f = np.cumsum(rng.standard_normal((16, 8, 8)), axis=0)
        stream = session.compress(iter(f), bound=BOUND, chunk_windows=4)
        assert len(stream.index()) == 4
        self._flip_every_member_bit(session, stream)

    def test_v2_archive_still_decodes(self, session, small):
        v2 = legacy_archive("ldmv-v2-szlike")
        assert _sha(v2) == self.V2
        archive = Archive.open(v2)
        assert not archive.indexed()
        full = session.decompress(archive)
        assert {k: _sha(v.tobytes()) for k, v in full.items()} == \
            self.DECODED

    def test_full_equals_select_of_every_name(self, session, small):
        full = session.decompress(small)
        both = session.decompress(small, select=["v", "u"])
        for name in full:
            np.testing.assert_array_equal(full[name], both[name])

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_parallel_full_decode_equals_serial(self, session, small,
                                                executor):
        ref = session.decompress(small)
        with Session(codec="szlike", executor=executor,
                     workers=2) as par:
            got = par.decompress(small)
        for name in ref:
            np.testing.assert_array_equal(got[name], ref[name])

    def test_expect_codec_enforced(self, session, small):
        with pytest.raises(SessionError, match="written by codec"):
            session.decompress(small, expect_codec="zfplike")
