"""Chunked out-of-core ingestion: byte identity with the in-memory
path, source dispatch, and the defaults the streaming loop applies."""

import hashlib
import os
import subprocess
import sys
import textwrap
from unittest import mock

import numpy as np
import pytest

import repro
from repro.api import Archive, Bound, Session, SessionError
from repro.pipeline.engine import CodecEngine
from repro.pipeline.sources import ArrayStackSource, NpyStackSource

BOUND = Bound.nrmse(1e-3)
T = 36


@pytest.fixture(scope="module")
def frames():
    rng = np.random.default_rng(9)
    return np.cumsum(rng.standard_normal((T, 8, 8)), axis=0)


@pytest.fixture(scope="module")
def npy_path(tmp_path_factory, frames):
    path = tmp_path_factory.mktemp("ooc") / "stack.npy"
    np.save(path, frames)
    return path


@pytest.fixture(scope="module")
def session():
    with Session(codec="szlike", executor="serial") as s:
        yield s


@pytest.fixture(scope="module")
def in_memory(session, frames):
    return session.compress(frames, bound=BOUND, shards=6)


class TestByteIdentity:
    #: sha256 of ``in_memory``; the same archive written before an
    #: in-memory ``shards=`` array took the stack-source path, re-pinned
    #: when integer streams moved to varint headers
    IN_MEMORY = ("31804f811f73b256bda2a0393c8f83b2"
                 "656c254b21f762c3119ad831fb057e83")

    def test_in_memory_pinned(self, in_memory):
        assert hashlib.sha256(in_memory.data).hexdigest() == \
            self.IN_MEMORY
        # a resident array is one group of every shard
        assert in_memory.stats["chunk_shards"] == 6

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_in_memory_parallel_pinned(self, frames, executor):
        with Session(codec="szlike", executor=executor,
                     workers=2) as par:
            archive = par.compress(frames, bound=BOUND, shards=6)
        assert hashlib.sha256(archive.data).hexdigest() == \
            self.IN_MEMORY

    @pytest.mark.parametrize("chunk_shards", [1, 2, 4, 6])
    def test_chunked_equals_in_memory(self, session, frames, in_memory,
                                      chunk_shards):
        chunked = session.compress(ArrayStackSource(frames),
                                   bound=BOUND, shards=6,
                                   chunk_shards=chunk_shards)
        assert chunked.data == in_memory.data
        assert chunked.stats["chunk_shards"] == chunk_shards

    def test_npy_path_equals_in_memory(self, session, npy_path,
                                       in_memory):
        for source in (str(npy_path), npy_path):
            chunked = session.compress(source, bound=BOUND, shards=6,
                                       chunk_shards=2)
            assert chunked.data == in_memory.data

    def test_memmap_equals_in_memory(self, session, npy_path,
                                     in_memory):
        mapped = np.load(npy_path, mmap_mode="r")
        chunked = session.compress(mapped, bound=BOUND, shards=6,
                                   chunk_shards=2)
        assert chunked.data == in_memory.data

    def test_thread_and_process_match_serial(self, npy_path, in_memory):
        for executor in ("thread", "process"):
            with Session(codec="szlike", executor=executor,
                         workers=2) as par:
                chunked = par.compress(str(npy_path), bound=BOUND,
                                       shards=6, chunk_shards=2)
                assert chunked.data == in_memory.data

    def test_label_matches_sharded_stack(self, session, frames,
                                         npy_path):
        mem = session.compress(frames, bound=BOUND, shards=3,
                               label="clim")
        ooc = session.compress(str(npy_path), bound=BOUND, shards=3,
                               chunk_shards=1, label="clim")
        assert ooc.data == mem.data
        assert all(m.key.startswith("clim/") for m in ooc.index())


class TestResidentViews:
    """A resident C-contiguous array reaches the engine as read-only
    views of the caller's frames, not as per-shard copies."""

    def test_engine_gets_read_only_views(self, session, frames,
                                         in_memory):
        seen = []
        real = CodecEngine.compress

        def spy(engine, stacks, **kwargs):
            seen.extend(stacks)
            return real(engine, stacks, **kwargs)

        before = frames.copy()
        with mock.patch.object(CodecEngine, "compress", spy):
            archive = session.compress(frames, bound=BOUND, shards=6)
        assert archive.data == in_memory.data
        assert len(seen) == 6
        for stack in seen:
            assert np.shares_memory(stack, frames)
            assert not stack.flags.writeable
        np.testing.assert_array_equal(frames, before)
        assert frames.flags.writeable

    def test_peak_rss_does_not_grow_by_the_stack(self):
        """An 8-shard compress of a resident 9 MB stack, after a small
        warm-up compress, raised peak RSS by ~8 MB when each shard was
        copied; views leave it about where the warm-up put it."""
        script = textwrap.dedent("""
            import resource
            import numpy as np
            from repro.api import Bound, Session
            rng = np.random.default_rng(0)
            frames = np.cumsum(rng.standard_normal((128, 96, 96)), axis=0)
            with Session(codec="szlike", executor="serial") as s:
                s.compress(frames[:16].copy(), bound=Bound.nrmse(1e-2),
                           shards=2)
                before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                s.compress(frames, bound=Bound.nrmse(1e-2), shards=8)
                after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print(frames.nbytes, (after - before) * 1024)
        """)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=300)
        nbytes, grown = map(int, out.stdout.split())
        assert grown < nbytes / 4


class TestRoundtrip:
    def test_decode_matches_source_within_bound(self, session, frames,
                                                npy_path):
        archive = session.compress(str(npy_path), bound=BOUND, shards=6,
                                   chunk_shards=2)
        out = session.decompress(archive)
        assert out.shape == frames.shape
        rng_ = float(frames.max() - frames.min())
        nrmse = float(np.sqrt(np.mean((out - frames) ** 2))) / rng_
        assert nrmse <= 1e-3 * (1 + 1e-9)

    def test_partial_read_back(self, session, frames, npy_path,
                               tmp_path):
        archive = session.compress(str(npy_path), bound=BOUND, shards=6,
                                   chunk_shards=3)
        path = tmp_path / "a.shrd"
        archive.save(path)
        full = session.decompress(archive)
        window = session.decompress(Archive.open(path),
                                    select=slice(10, 20))
        np.testing.assert_array_equal(window, full[10:20])


class TestDefaultsAndErrors:
    def test_default_shards_one_per_16_frames(self, session, tmp_path):
        path = tmp_path / "s48.npy"
        np.save(path, np.cumsum(
            np.random.default_rng(1).standard_normal((48, 6, 6)),
            axis=0))
        archive = session.compress(str(path), bound=BOUND,
                                   chunk_shards=1)
        assert archive.stats["shards"] == 3
        assert [m.frames for m in archive.index()] == [16, 16, 16]

    def test_default_chunk_shards_tracks_workers(self, npy_path,
                                                 in_memory):
        """The default group is the width the runtime runs a batch on:
        ``workers`` on threads, one shard at a time when serial."""
        for executor, width in (("serial", 1), ("thread", 2)):
            with Session(codec="szlike", executor=executor,
                         workers=2) as ses:
                archive = ses.compress(str(npy_path), bound=BOUND,
                                       shards=6)
                assert archive.stats["chunk_shards"] == width
                assert archive.data == in_memory.data

    def test_bad_chunk_shards(self, session, npy_path):
        with pytest.raises(SessionError, match="chunk_shards"):
            session.compress(str(npy_path), bound=BOUND, shards=2,
                             chunk_shards=0)

    def test_missing_file(self, session, tmp_path):
        with pytest.raises(SessionError, match="cannot open"):
            session.compress(str(tmp_path / "nope.npy"), bound=BOUND)

    def test_wrong_rank_npy(self, session, tmp_path):
        path = tmp_path / "flat.npy"
        np.save(path, np.zeros((4, 4)))
        with pytest.raises(SessionError, match="cannot open"):
            session.compress(str(path), bound=BOUND)
