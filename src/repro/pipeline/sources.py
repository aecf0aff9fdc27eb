"""The parts ``Session.compress`` cuts its sources into.

``Session.compress`` historically required the full ``(T, H, W)``
stack in RAM.  A *stack source* is the out-of-core alternative: an
object exposing the stack's geometry plus ``read(a, b)`` returning
frames ``[a:b)``, so the ingestion loop can pull one bounded group of
shards at a time and peak RSS stays O(chunk) instead of O(dataset).

:class:`NpyStackSource` serves ``.npy`` files.  It parses only the
header up front, then reads each requested frame range with a plain
``seek`` + ``readinto`` into a freshly allocated buffer — deliberately
*not* ``np.load(mmap_mode="r")`` slices, because mapped pages stay
resident and count toward the process high-water mark
(``ru_maxrss``), which is exactly the metric bounded ingestion is
asserted against.

:class:`ArrayStackSource` adapts any in-RAM (or memory-mapped) array
so the chunked write path and the in-memory path share one code path
— the byte-identity tests compare them directly.

:func:`variable_stacks` turns a ``(V, T, H, W)`` array or a name→stack
mapping into the per-variable stacks of a mapping archive, and
:func:`stream_chunks` cuts a frame iterator into the sealed chunks of
a stream archive.
"""

from __future__ import annotations

import os
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple, Union)

import numpy as np

__all__ = ["NpyStackSource", "ArrayStackSource", "as_stack_source",
           "variable_stacks", "stream_chunks"]


def _read_npy_header(fh) -> Tuple[Tuple[int, ...], bool, np.dtype, int]:
    """Shape, F-order flag, dtype and data offset of an ``.npy`` file."""
    version = np.lib.format.read_magic(fh)
    if version == (1, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
    elif version == (2, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_2_0(fh)
    else:  # (3, 0) adds utf8 field names; layout otherwise identical
        shape, fortran, dtype = np.lib.format._read_array_header(
            fh, version)
    return shape, fortran, dtype, fh.tell()


class NpyStackSource:
    """Frame ranges of an on-disk ``.npy`` stack, read one chunk at a
    time.

    The file must hold a C-contiguous 3-dim ``(T, H, W)`` array.
    Only the header is read at construction; each :meth:`read` costs
    one seek plus one contiguous read of exactly the requested
    frames.
    """

    def __init__(self, path: Union[str, os.PathLike]):
        self.path = os.fspath(path)
        with open(self.path, "rb") as fh:
            shape, fortran, dtype, offset = _read_npy_header(fh)
        if len(shape) != 3:
            raise ValueError(
                f"{self.path!r} holds a {len(shape)}-dim array; "
                f"out-of-core ingestion needs a (T, H, W) stack")
        if fortran:
            raise ValueError(
                f"{self.path!r} is Fortran-ordered; out-of-core "
                f"ingestion needs C-contiguous frames")
        if dtype.hasobject:
            raise ValueError(f"{self.path!r} holds object arrays")
        self._shape = shape
        self._dtype = dtype
        self._offset = offset
        self._frame_bytes = int(dtype.itemsize * shape[1] * shape[2])

    @property
    def shape(self) -> Tuple[int, int, int]:
        return self._shape

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    @property
    def t(self) -> int:
        return self._shape[0]

    def read(self, a: int, b: int) -> np.ndarray:
        """Frames ``[a:b)`` as a fresh writable ``(b-a, H, W)`` array."""
        if not 0 <= a < b <= self.t:
            raise ValueError(f"frame range [{a}, {b}) outside "
                             f"[0, {self.t})")
        out = np.empty((b - a,) + self._shape[1:], dtype=self._dtype)
        view = out.reshape(-1).view(np.uint8)
        with open(self.path, "rb") as fh:
            fh.seek(self._offset + a * self._frame_bytes)
            got = fh.readinto(view)
        if got != view.nbytes:
            raise ValueError(
                f"{self.path!r} is truncated: frame range [{a}, {b}) "
                f"needs {view.nbytes} bytes, read {got}")
        return out


class ArrayStackSource:
    """Stack source over an array already in addressable memory.

    A plain C-contiguous ndarray is served as read-only views of the
    caller's frames: its pages are resident anyway, so copies would
    only raise peak RSS by the stack's size, and a codec can never
    write into the caller's data.  Anything else — an ``np.memmap`` /
    ``np.load(mmap_mode=...)`` array, whose touched pages would stay
    resident, or a non-contiguous array — is copied out by ``read``
    into a fresh writable buffer.
    """

    def __init__(self, array: np.ndarray):
        if array.ndim != 3:
            raise ValueError(f"expected (T, H, W), got {array.shape}")
        self._views = (isinstance(array, np.ndarray)
                       and not isinstance(array, np.memmap)
                       and array.flags.c_contiguous)
        if self._views:
            array = array.view()
            array.flags.writeable = False
        self._array = array

    @property
    def shape(self) -> Tuple[int, int, int]:
        return tuple(self._array.shape)

    @property
    def dtype(self) -> np.dtype:
        return self._array.dtype

    @property
    def t(self) -> int:
        return self._array.shape[0]

    def read(self, a: int, b: int) -> np.ndarray:
        """Frames ``[a:b)``: a read-only view or a fresh copy (see the
        class docstring)."""
        if not 0 <= a < b <= self.t:
            raise ValueError(f"frame range [{a}, {b}) outside "
                             f"[0, {self.t})")
        frames = self._array[a:b]
        return frames if self._views else np.array(frames)


def as_stack_source(obj) -> Union[NpyStackSource, ArrayStackSource]:
    """Normalize a path / array into a stack source."""
    if isinstance(obj, (NpyStackSource, ArrayStackSource)):
        return obj
    if isinstance(obj, np.ndarray):
        return ArrayStackSource(obj)
    return NpyStackSource(obj)


def variable_stacks(data: Union[np.ndarray, Mapping[str, np.ndarray]],
                    names: Optional[Sequence[str]] = None
                    ) -> Dict[str, np.ndarray]:
    """``{name: (T, H, W) float64 stack}`` in variable order.

    ``data`` is either a ``(V, T, H, W)`` array (variables named
    ``names`` or ``var0..var{V-1}``) or an explicit name→stack mapping
    (``names`` must then be ``None``).
    """
    if isinstance(data, Mapping):
        if names is not None:
            raise ValueError("names only apply to array input")
        return {str(k): np.asarray(v, dtype=np.float64)
                for k, v in data.items()}
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 4:
        raise ValueError(f"expected (V, T, H, W), got {data.shape}")
    v = data.shape[0]
    if names is None:
        names = [f"var{i}" for i in range(v)]
    if len(names) != v:
        raise ValueError(f"{len(names)} names for {v} variables")
    return {str(n): data[i] for i, n in enumerate(names)}


def stream_chunks(frames: Iterable[np.ndarray], window: int,
                  chunk_frames: int) -> Iterator[Tuple[int, np.ndarray]]:
    """Cut an iterable of ``(H, W)`` frames into sealed ``(T, H, W)``
    chunks, yielded as ``(start_frame, chunk)``.

    Every chunk holds ``chunk_frames`` frames except the last, which
    takes the tail.  A chunk is only sealed while at least one more
    full ``window`` of frames remains buffered, so the tail always has
    ``>= window`` frames and no frame is ever dropped or padded; at
    most ``chunk_frames + window`` frames are buffered, whatever the
    stream's length.

    Error bounds are enforced **per chunk**.  Since the chunks
    partition the frames, the global guarantee follows as
    ``||x - x̂||_2 <= sqrt(sum_i tau_i^2)`` (for an NRMSE target each
    chunk uses its own range, which is the conservative direction
    whenever chunk ranges are below the global range).

    Raises ``ValueError`` for a frame that is not 2-D and for a stream
    shorter than one window.
    """
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
        if len(buffer) >= chunk_frames + window:
            chunk = np.stack(buffer[:chunk_frames])
            buffer = buffer[chunk_frames:]
            yield start, chunk
            start += chunk_frames
    if len(buffer) < window:
        raise ValueError(
            f"stream tail has {len(buffer)} frames; need >= {window} "
            "(total stream shorter than one window?)")
    yield start, np.stack(buffer)
