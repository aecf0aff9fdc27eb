"""Constant-memory streaming compression for long simulations.

The paper's datasets are tens of GB (Table 1) — far beyond what a
compressor should hold in memory at once.  This module cuts a frame
*iterator* into sealed chunks for any registered codec;
:class:`repro.api.Session` compresses them in groups of ``workers``
chunks on the session's runtime and writes one shard-archive member
per chunk:

* a ``Session`` stream holds at most ``workers`` sealed chunks, plus
  the chunk being filled, regardless of simulation length;
* a chunk is only sealed while at least one more full window of
  frames remains buffered, so the final chunk always has ``>= window``
  frames and no frame is ever dropped or padded;
* chunk ``i`` is seeded ``seed + SEED_STRIDE * i``, as shard ``i`` of
  a stack is, so chunks that fall on the slices of ``shards=N`` write
  the bytes ``Session.compress(frames, shards=N)`` writes;
* error bounds are enforced **per chunk**; since the chunks partition
  the frames, the global guarantee follows as
  ``||x - x̂||_2 <= sqrt(sum_i tau_i^2)`` (for an NRMSE target each
  chunk uses its own range, which is the conservative direction
  whenever chunk ranges are below the global range).

The compressor may be a trained
:class:`~repro.pipeline.compressor.LatentDiffusionCompressor`, any
:class:`~repro.codecs.base.Codec`, or a registry name.
:meth:`StreamingCompressor.compress_iter` compresses the same chunks
one at a time in the caller's thread.

Decompression is symmetric: :meth:`StreamingCompressor.decompress_stream`
reads and yields one chunk of frames at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..bound import Bound
from .blob import CompressedBlob
from .engine import SEED_STRIDE
from .plan import read_members

__all__ = ["StreamingCompressor", "ChunkResult"]


@dataclass
class ChunkResult:
    """Per-chunk bookkeeping yielded during streaming compression."""

    index: int
    start_frame: int
    num_frames: int
    blob: Optional[CompressedBlob]
    achieved_nrmse: float
    #: uniform codec result (payload, accounting, timing)
    result: "object" = None

    @property
    def payload(self) -> bytes:
        return self.result.payload if self.result is not None else b""


class StreamingCompressor:
    """Chunked wrapper around any codec.

    Parameters
    ----------
    compressor:
        A trained ``LatentDiffusionCompressor``, a codec instance, or a
        registry name (with a fitted corrector attached if bounded
        compression is requested).
    chunk_windows:
        Nominal codec windows per chunk; memory usage scales with
        ``chunk_windows * window`` frames.
    """

    def __init__(self, compressor, chunk_windows: int = 4):
        from ..codecs import as_codec
        if chunk_windows < 1:
            raise ValueError("chunk_windows must be >= 1")
        self.codec = as_codec(compressor)
        self.chunk_windows = chunk_windows

    @property
    def window(self) -> int:
        return max(self.codec.window, self.codec.min_frames, 1)

    @property
    def chunk_frames(self) -> int:
        return self.chunk_windows * self.window

    # ------------------------------------------------------------------
    def chunks(self, frames: Iterable[np.ndarray]
               ) -> Iterator[Tuple[int, np.ndarray]]:
        """Cut an iterable of ``(H, W)`` frames into sealed ``(T, H, W)``
        chunks of ``chunk_frames`` frames (the last one takes the tail,
        ``>= window`` frames), yielded as ``(start_frame, chunk)``."""
        window = self.window
        buffer: List[np.ndarray] = []
        start = 0
        for frame in frames:
            frame = np.asarray(frame, dtype=np.float64)
            if frame.ndim != 2:
                raise ValueError(
                    f"stream frames must be (H, W), got {frame.shape}")
            buffer.append(frame)
            # seal only while >= one window remains buffered afterwards,
            # so the tail chunk can never be shorter than a window
            if len(buffer) >= self.chunk_frames + window:
                chunk = np.stack(buffer[:self.chunk_frames])
                buffer = buffer[self.chunk_frames:]
                yield start, chunk
                start += self.chunk_frames
        if len(buffer) < window:
            raise ValueError(
                f"stream tail has {len(buffer)} frames; need >= {window} "
                "(total stream shorter than one window?)")
        yield start, np.stack(buffer)

    def compress_iter(self, frames: Iterable[np.ndarray],
                      noise_seed: int = 0,
                      bound: Optional[Bound] = None
                      ) -> Iterator[ChunkResult]:
        """Lazily compress an iterable of ``(H, W)`` frames.

        Yields one :class:`ChunkResult` per chunk, chunk ``i`` seeded
        ``noise_seed + SEED_STRIDE * i``.  ``bound`` (a
        :class:`~repro.bound.Bound`) is enforced per chunk (see the
        module docstring for how the global guarantee follows).
        """
        for index, (start, chunk) in enumerate(self.chunks(frames)):
            res = self.codec.compress_bounded(
                chunk, bound=bound, seed=noise_seed + SEED_STRIDE * index)
            yield ChunkResult(index=index, start_frame=start,
                              num_frames=chunk.shape[0], blob=res.blob,
                              achieved_nrmse=res.achieved_nrmse,
                              result=res)

    # ------------------------------------------------------------------
    def decompress_stream(self, source) -> Iterator[np.ndarray]:
        """Yield reconstructed chunks in order, reading one member at a
        time from ``source`` (bytes, a path or a seekable handle)."""
        for _, name, payload in read_members(source):
            if (name or "ours") != self.codec.name:
                raise ValueError(
                    f"archive chunk was written by codec "
                    f"{name or 'ours'!r} but {self.codec.name!r} is "
                    f"configured")
            yield self.codec.decompress(payload)
