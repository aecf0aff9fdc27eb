"""Constant-memory streaming compression for long simulations.

The paper's datasets are tens of GB (Table 1) — far beyond what a
compressor should hold in memory at once.  This module feeds a frame
*iterator* through any registered codec in bounded chunks;
:class:`repro.api.Session` writes one shard-archive member per sealed
chunk:

* memory stays ``O(chunk_frames)`` regardless of simulation length;
* a chunk is only emitted while at least one more full window of
  frames remains buffered, so the final chunk always has ``>= window``
  frames and no frame is ever dropped or padded;
* error bounds are enforced **per chunk**; since the chunks partition
  the frames, the global guarantee follows as
  ``||x - x̂||_2 <= sqrt(sum_i tau_i^2)`` (for an NRMSE target each
  chunk uses its own range, which is the conservative direction
  whenever chunk ranges are below the global range).

The compressor may be a trained
:class:`~repro.pipeline.compressor.LatentDiffusionCompressor`, any
:class:`~repro.codecs.base.Codec`, or a registry name.

Decompression is symmetric: :meth:`StreamingCompressor.decompress_stream`
reads and yields one chunk of frames at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional

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
        # legacy attribute: the native compressor object when one exists
        self.compressor = (self.codec.impl if self.codec.impl is not None
                           else self.codec)
        self.chunk_windows = chunk_windows

    @property
    def window(self) -> int:
        return max(self.codec.window, self.codec.min_frames, 1)

    @property
    def chunk_frames(self) -> int:
        return self.chunk_windows * self.window

    # ------------------------------------------------------------------
    def compress_iter(self, frames: Iterable[np.ndarray],
                      error_bound: Optional[float] = None,
                      nrmse_bound: Optional[float] = None,
                      noise_seed: int = 0,
                      bound: Optional[Bound] = None
                      ) -> Iterator[ChunkResult]:
        """Lazily compress an iterable of ``(H, W)`` frames.

        Yields one :class:`ChunkResult` per chunk.  ``bound`` is a
        first-class :class:`~repro.bound.Bound`; the legacy
        ``error_bound`` (per-chunk L2) / ``nrmse_bound`` (per-chunk
        NRMSE) kwargs remain.  Bounds are enforced per chunk (see the
        module docstring for how the global guarantee follows).
        """
        bound = Bound.coalesce(bound=bound, error_bound=error_bound,
                               nrmse_bound=nrmse_bound)
        window = self.window
        buffer: List[np.ndarray] = []
        index = 0
        start = 0
        for frame in frames:
            frame = np.asarray(frame, dtype=np.float64)
            if frame.ndim != 2:
                raise ValueError(
                    f"stream frames must be (H, W), got {frame.shape}")
            buffer.append(frame)
            # emit only while >= one window remains buffered afterwards,
            # so the tail chunk can never be shorter than a window
            if len(buffer) >= self.chunk_frames + window:
                chunk = np.stack(buffer[:self.chunk_frames])
                buffer = buffer[self.chunk_frames:]
                yield self._compress_chunk(chunk, index, start, bound,
                                           noise_seed)
                start += chunk.shape[0]
                index += 1
        if len(buffer) < window:
            raise ValueError(
                f"stream tail has {len(buffer)} frames; need >= {window} "
                "(total stream shorter than one window?)")
        chunk = np.stack(buffer)
        yield self._compress_chunk(chunk, index, start, bound, noise_seed)

    def _compress_chunk(self, chunk: np.ndarray, index: int, start: int,
                        bound: Optional[Bound],
                        noise_seed: int) -> ChunkResult:
        res = self.codec.compress_bounded(
            chunk, bound=bound, seed=noise_seed + SEED_STRIDE * index)
        return ChunkResult(index=index, start_frame=start,
                           num_frames=chunk.shape[0], blob=res.blob,
                           achieved_nrmse=res.achieved_nrmse, result=res)

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
