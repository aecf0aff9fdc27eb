"""Footer-index machinery: serialization, corruption, byte sources.

Mirrors the strict-decode style of ``tests/entropy``: every malformed
structure must raise a typed error (:class:`ArchiveIndexError`), never
decode garbage or mis-locate a member.
"""

import io
import zlib

import numpy as np
import pytest

from repro.pipeline.container import (ArchiveIndexError, BufferSource,
                                      CountingReader, FileObjSource,
                                      FileSource, INDEX_MAGIC,
                                      INDEX_VERSION, MemberIndex,
                                      TRAILER_SIZE, as_source,
                                      build_index, index_blob,
                                      parse_index, read_index,
                                      verify_member)


def _members(payloads):
    members, pos = [], 8
    for i, payload in enumerate(payloads):
        members.append(MemberIndex(
            key=f"m/{i}", kind=1, codec="szlike", variable=0,
            t0=4 * i, t1=4 * i + 4, offset=pos, length=len(payload),
            crc32=zlib.crc32(payload)))
        pos += len(payload)
    return members, pos


def _container(payloads):
    """A minimal indexed container: 8-byte head, members, footer."""
    members, pos = _members(payloads)
    return b"HEAD0000" + b"".join(payloads) + index_blob(members, pos), \
        members


PAYLOADS = [b"alpha-payload", b"beta", b"gamma-longer-payload"]


class TestFooterRoundtrip:
    def test_index_roundtrip(self):
        data, members = _container(PAYLOADS)
        got = read_index(BufferSource(data))
        assert got == members

    def test_member_rows_locate_payloads(self):
        data, members = _container(PAYLOADS)
        for m, payload in zip(members, PAYLOADS):
            assert data[m.offset:m.offset + m.length] == payload
            assert verify_member(payload, m) == payload
            assert m.frames == 4

    def test_open_cost_is_o_footer(self):
        """Reading the index touches trailer + footer bytes only."""
        data, members = _container([p * 200 for p in PAYLOADS])
        footer_offset = 8 + sum(len(p) * 200 for p in PAYLOADS)
        with io.BytesIO(data) as fh:
            counter = CountingReader(fh)
            assert read_index(FileObjSource(counter)) == members
            assert counter.bytes_read == len(data) - footer_offset

    def test_no_trailer_returns_none(self):
        assert read_index(BufferSource(b"HEAD0000-just-members")) is None

    def test_tiny_buffer_returns_none(self):
        assert read_index(BufferSource(b"HE")) is None


class TestCorruption:
    def test_clipped_footer_fails_checksum(self):
        data, _ = _container(PAYLOADS)
        with pytest.raises(ArchiveIndexError, match="checksum"):
            read_index(BufferSource(data[:-TRAILER_SIZE - 2]
                                    + data[-TRAILER_SIZE:]))

    def test_flipped_footer_byte_fails_checksum(self):
        data, _ = _container(PAYLOADS)
        bad = bytearray(data)
        bad[-TRAILER_SIZE - 4] ^= 0xFF
        with pytest.raises(ArchiveIndexError, match="checksum"):
            read_index(BufferSource(bytes(bad)))

    def test_trailer_offset_outside_file(self):
        data, members = _container(PAYLOADS)
        footer = build_index(members)
        huge = footer[:-TRAILER_SIZE] + index_blob(
            members, 1 << 40)[-TRAILER_SIZE:]
        with pytest.raises(ArchiveIndexError, match="outside"):
            read_index(BufferSource(b"HEAD0000" + huge))

    def test_bad_footer_magic(self):
        with pytest.raises(ArchiveIndexError, match="magic"):
            parse_index(b"NOPE" + b"\x00" * 16)

    def test_unsupported_index_version(self):
        members, _ = _members(PAYLOADS)
        footer = build_index(members)[:-TRAILER_SIZE]
        bad = INDEX_MAGIC + bytes([INDEX_VERSION + 9]) + footer[5:]
        with pytest.raises(ArchiveIndexError, match="version"):
            parse_index(bad)

    def test_truncated_footer_body(self):
        members, _ = _members(PAYLOADS)
        footer = build_index(members)[:-TRAILER_SIZE]
        with pytest.raises(ArchiveIndexError, match="truncated"):
            parse_index(footer[:len(footer) // 2])

    def test_member_truncation_detected(self):
        _, members = _container(PAYLOADS)
        with pytest.raises(ArchiveIndexError, match="truncated"):
            verify_member(PAYLOADS[0][:-1], members[0])

    def test_member_corruption_detected(self):
        _, members = _container(PAYLOADS)
        bad = b"X" + PAYLOADS[0][1:]
        with pytest.raises(ArchiveIndexError, match="checksum"):
            verify_member(bad, members[0])

    def test_build_rejects_bad_names(self):
        m = MemberIndex(key="", kind=0, codec="", variable=0, t0=0,
                        t1=1, offset=0, length=1, crc32=0)
        with pytest.raises(ValueError, match="key"):
            build_index([m])
        m = MemberIndex(key="k", kind=0, codec="c" * 300, variable=0,
                        t0=0, t1=1, offset=0, length=1, crc32=0)
        with pytest.raises(ValueError, match="codec"):
            build_index([m])


class TestByteSources:
    def test_sources_agree(self, tmp_path):
        data, _ = _container(PAYLOADS)
        path = tmp_path / "c.bin"
        path.write_bytes(data)
        with open(path, "rb") as fh:
            sources = [BufferSource(data), FileSource(path),
                       FileObjSource(fh)]
            for src in sources:
                assert src.size() == len(data)
                assert src.read_at(8, 5) == data[8:13]
                assert src.read_all() == data
                sink = io.BytesIO()
                src.copy_to(sink)
                assert sink.getvalue() == data

    def test_as_source_dispatch(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(b"xyz")
        assert isinstance(as_source(b"xyz"), BufferSource)
        assert isinstance(as_source(bytearray(b"xyz")), BufferSource)
        assert isinstance(as_source(path), FileSource)
        assert isinstance(as_source(str(path)), FileSource)
        with open(path, "rb") as fh:
            assert isinstance(as_source(fh), FileObjSource)
        src = BufferSource(b"xyz")
        assert as_source(src) is src

    def test_counting_reader_counts(self):
        with CountingReader(io.BytesIO(b"0123456789")) as counter:
            counter.seek(2)
            assert counter.read(3) == b"234"
            assert counter.tell() == 5
            counter.seek(0)
            counter.read(4)
            assert counter.bytes_read == 7
            assert counter.reads == 2


class TestIndexReaders:
    """Container-level index readers: footer fast path vs legacy scan."""

    def test_shard_v1_scan_matches_v2_footer(self):
        from repro.pipeline.plan import read_shard_index

        from .test_legacy_archives import legacy_archive
        v1 = legacy_archive("shrd-v1-szlike")
        v2 = legacy_archive("shrd-v2-szlike")
        assert read_shard_index(BufferSource(v1)) \
            == read_shard_index(BufferSource(v2))

    def test_multivar_legacy_scan_matches_v3_footer(self):
        from repro.pipeline.plan import read_shard_index

        from .test_legacy_archives import legacy_archive
        v2 = read_shard_index(BufferSource(
            legacy_archive("ldmv-v2-szlike")))
        v3 = read_shard_index(BufferSource(
            legacy_archive("ldmv-v3-szlike")))
        assert v2 == v3
        assert [m.codec for m in v3] == ["szlike", "szlike"]
        assert [(m.variable, m.t0, m.t1) for m in v3] == \
            [(0, 0, 0), (1, 0, 0)]


class TestNpyStackSource:
    def _stack(self, tmp_path, shape=(10, 4, 4), dtype=np.float64):
        rng = np.random.default_rng(7)
        arr = rng.normal(size=shape).astype(dtype)
        path = tmp_path / "s.npy"
        np.save(path, arr)
        return path, arr

    def test_reads_match_slices(self, tmp_path):
        from repro.pipeline.sources import NpyStackSource
        path, arr = self._stack(tmp_path)
        src = NpyStackSource(path)
        assert src.shape == arr.shape and src.t == 10
        assert src.dtype == arr.dtype
        for a, b in [(0, 10), (0, 1), (3, 7), (9, 10)]:
            got = src.read(a, b)
            np.testing.assert_array_equal(got, arr[a:b])
            assert got.flags.writeable

    def test_bad_ranges(self, tmp_path):
        from repro.pipeline.sources import NpyStackSource
        path, _ = self._stack(tmp_path)
        src = NpyStackSource(path)
        for a, b in [(-1, 2), (2, 2), (5, 3), (0, 11)]:
            with pytest.raises(ValueError, match="frame range"):
                src.read(a, b)

    def test_truncated_file_detected(self, tmp_path):
        from repro.pipeline.sources import NpyStackSource
        path, _ = self._stack(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-40])
        with pytest.raises(ValueError, match="truncated"):
            NpyStackSource(path).read(8, 10)

    def test_rejects_wrong_rank_and_order(self, tmp_path):
        from repro.pipeline.sources import NpyStackSource
        flat = tmp_path / "flat.npy"
        np.save(flat, np.zeros((4, 4)))
        with pytest.raises(ValueError, match="3-dim|stack"):
            NpyStackSource(flat)
        fortran = tmp_path / "f.npy"
        np.save(fortran, np.asfortranarray(np.zeros((3, 4, 4))))
        with pytest.raises(ValueError, match="Fortran"):
            NpyStackSource(fortran)

    def test_array_source_copies(self):
        """A non-contiguous array is copied out into writable buffers
        (a C-contiguous one is viewed: see the next test)."""
        from repro.pipeline.sources import ArrayStackSource
        arr = np.arange(48.0).reshape(4, 3, 4)[:, :, ::2]
        src = ArrayStackSource(arr)
        got = src.read(1, 3)
        got[:] = -1
        np.testing.assert_array_equal(
            src.read(1, 3), np.arange(48.0).reshape(4, 3, 4)[1:3, :, ::2])
        with pytest.raises(ValueError, match="T, H, W"):
            ArrayStackSource(np.zeros((4, 4)))

    def test_array_source_views_only_plain_contiguous_arrays(self,
                                                             tmp_path):
        from repro.pipeline.sources import ArrayStackSource
        arr = np.arange(24.0).reshape(4, 3, 2)
        got = ArrayStackSource(arr).read(1, 3)
        np.testing.assert_array_equal(got, arr[1:3])
        assert np.shares_memory(got, arr)
        assert not got.flags.writeable
        assert arr.flags.writeable
        # a memmap of the same C-contiguous frames is copied
        np.save(tmp_path / "a.npy", arr)
        mapped = np.load(tmp_path / "a.npy", mmap_mode="r")
        got = ArrayStackSource(mapped).read(1, 3)
        np.testing.assert_array_equal(got, arr[1:3])
        assert not np.shares_memory(got, mapped)
        assert got.flags.writeable

    def test_as_stack_source_dispatch(self, tmp_path):
        from repro.pipeline.sources import (ArrayStackSource,
                                            NpyStackSource,
                                            as_stack_source)
        path, _ = self._stack(tmp_path)
        assert isinstance(as_stack_source(path), NpyStackSource)
        assert isinstance(as_stack_source(np.zeros((2, 2, 2))),
                          ArrayStackSource)
        src = NpyStackSource(path)
        assert as_stack_source(src) is src
