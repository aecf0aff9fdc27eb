"""Truncated/corrupted lazy archives must fail with the typed
ArchiveIndexError — never a bare struct.error or silently-short
bytes.  Covers the file-shrank-under-an-open-Archive race the
service's cached-object serving path can hit, for a sharded stack and
(``*NewKinds`` classes) for a variable mapping and a frame stream,
which are written as the same shard archive."""

import os
import struct

import numpy as np
import pytest

from repro.api import Archive, ArchiveIndexError, Bound, Session, \
    SessionError


def _write(tmp_path_factory, kind: str) -> str:
    path = tmp_path_factory.mktemp("trunc") / "archive.bin"
    frames = np.random.default_rng(0).standard_normal(
        (6, 16, 16)).astype(np.float32)
    source, kw = {
        "shards": (frames, {"shards": 2}),
        "mapping": ({"u": frames, "v": frames[::-1].copy()}, {}),
        "stream": (iter(frames), {"chunk_windows": 3}),
    }[kind]
    with Session() as session:
        archive = session.compress(source, codec="szlike",
                                   bound=Bound.parse("nrmse:0.1"),
                                   seed=1, **kw)
        assert len(archive.index()) == 2
        archive.save(path)
    return str(path)


@pytest.fixture(scope="module")
def archive_file(tmp_path_factory):
    """A real indexed shard archive on disk."""
    return _write(tmp_path_factory, "shards")


@pytest.fixture(scope="module", params=["mapping", "stream"])
def new_kind_file(request, tmp_path_factory):
    return _write(tmp_path_factory, request.param)


@pytest.fixture()
def truncatable(archive_file, tmp_path):
    """A private copy of the archive this test may mutilate."""
    import shutil
    path = tmp_path / "copy.bin"
    shutil.copy(archive_file, path)
    return str(path)


class TestTruncationMidRead:
    def test_to_bytes_raises_typed_error(self, truncatable):
        lazy = Archive.open(truncatable)
        full = os.path.getsize(truncatable)
        with open(truncatable, "r+b") as fh:
            fh.truncate(full // 2)
        with pytest.raises(ArchiveIndexError, match="truncated"):
            lazy.to_bytes()

    def test_save_raises_typed_error(self, truncatable, tmp_path):
        lazy = Archive.open(truncatable)
        full = os.path.getsize(truncatable)
        with open(truncatable, "r+b") as fh:
            fh.truncate(full // 2)
        with pytest.raises(ArchiveIndexError, match="truncated"):
            lazy.save(tmp_path / "out.bin")

    def test_data_property_raises_typed_error(self, truncatable):
        lazy = Archive.open(truncatable)
        with open(truncatable, "r+b") as fh:
            fh.truncate(os.path.getsize(truncatable) - 1)
        with pytest.raises(ArchiveIndexError):
            lazy.data

    def test_intact_archive_unaffected(self, truncatable):
        lazy = Archive.open(truncatable)
        data = lazy.to_bytes()
        assert len(data) == os.path.getsize(truncatable)


class TestTruncationOnOpen:
    def test_indexed_below_header_is_typed(self, truncatable):
        with open(truncatable, "r+b") as fh:
            fh.truncate(5)
        lazy = Archive.open(truncatable)
        with pytest.raises(ArchiveIndexError, match="fixed header"):
            lazy.indexed()

    def test_index_with_clipped_trailer_is_typed(self, truncatable):
        with open(truncatable, "r+b") as fh:
            fh.truncate(os.path.getsize(truncatable) - 3)
        lazy = Archive.open(truncatable)
        with pytest.raises(ArchiveIndexError):
            lazy.index()

    def test_no_bare_struct_error_anywhere(self, truncatable):
        """Chop the file at every small prefix length that still
        sniffs as a shard container: indexed()/index() may raise only
        the typed error."""
        with open(truncatable, "rb") as fh:
            original = fh.read()
        for cut in (6, 8, 12, 20, len(original) // 3):
            with open(truncatable, "wb") as fh:
                fh.write(original[:cut])
            lazy = Archive.open(truncatable)
            for op in (lazy.indexed, lazy.index):
                try:
                    op()
                except ArchiveIndexError:
                    pass
                except struct.error as exc:  # pragma: no cover
                    raise AssertionError(
                        f"bare struct.error at cut={cut}: {exc}")

    def test_every_prefix_decodes_to_a_typed_error(self, truncatable):
        with open(truncatable, "rb") as fh:
            original = fh.read()
        with Session(codec="szlike", executor="serial") as session:
            for cut in range(len(original)):
                with pytest.raises((ArchiveIndexError, SessionError)):
                    session.decompress(original[:cut])


class TestCorruptedFooter:
    def test_corrupt_footer_crc_is_typed(self, truncatable):
        size = os.path.getsize(truncatable)
        with open(truncatable, "r+b") as fh:
            fh.seek(size - 24)  # inside the footer/trailer region
            fh.write(b"\xff\xff\xff\xff")
        lazy = Archive.open(truncatable)
        with pytest.raises(ArchiveIndexError, match="checksum"):
            lazy.index()

    def test_replaced_file_detected_by_size_pin(self, truncatable):
        """A file replaced with different-length content after open is
        caught by the open-time size pin."""
        lazy = Archive.open(truncatable)
        with open(truncatable, "ab") as fh:
            fh.write(b"garbage appended after open")
        with pytest.raises(ArchiveIndexError, match="open time"):
            lazy.to_bytes()


class _NewKinds:
    """Runs a class's tests on a mapping and on a stream archive."""

    @pytest.fixture()
    def truncatable(self, new_kind_file, tmp_path):
        import shutil
        path = tmp_path / "copy.bin"
        shutil.copy(new_kind_file, path)
        return str(path)


class TestTruncationMidReadNewKinds(_NewKinds, TestTruncationMidRead):
    pass


class TestTruncationOnOpenNewKinds(_NewKinds, TestTruncationOnOpen):
    pass


class TestCorruptedFooterNewKinds(_NewKinds, TestCorruptedFooter):
    pass
