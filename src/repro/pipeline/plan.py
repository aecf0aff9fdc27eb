"""Deterministic shard planning for dataset-scale sweeps.

The paper's evaluation is a ``dataset x variables x time-window`` grid.
:func:`plan_shards` turns one :class:`~repro.data.registry.DatasetSpec`
into an ordered :class:`ShardPlan` of :class:`ShardTask`\\ s — each a
*recipe* (dataset spec + variable + time slice + seed), not an array —
so a plan is tiny, picklable and cheap to ship to any executor backend,
including process pools on other cores (and, later, other nodes).

Determinism guarantees:

* **stable IDs** — ``<dataset>/s<seed>/v<var>/t<t0>-<t1>`` identifies a
  shard independently of plan order, worker or machine;
* **stable seeds** — shard ``i`` (in plan order) compresses with
  ``base_seed + 7919 * i``, the same prime-stride rule the engine has
  always used for window batches, so re-planning the same grid always
  reproduces the same streams;
* **stable order** — variables iterate outermost, time windows
  innermost, both ascending.

The module also defines the *shard archive* (``SHRD`` v2), the one
container every multi-member archive is written as: an entry region of
envelope-wrapped members, then a footer index
(:mod:`repro.pipeline.container`) with each member's key, geometry,
byte extent and CRC-32.  Sharded stacks and dataset sweeps write one
timed member per ``(variable, time slice)``, frame streams one per
sealed chunk, and variable mappings one *named* member per variable
(``t0 == t1 == 0``).  :func:`read_shard_index` answers for every
multi-member container, the read-only legacy layouts of
:mod:`repro.pipeline.legacy` included, and :func:`read_members` reads
and checks the members one at a time.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..data.base import SpatiotemporalDataset
from ..data.registry import (DatasetSpec, dataset_from_spec,
                             get_dataset_spec, spec_of)
from .container import (MEMBER_ENVELOPE, ArchiveIndexError, MemberIndex,
                        as_source, index_blob, member_kind, read_index,
                        verify_member)
from .legacy import container_layout, read_legacy_index

__all__ = ["ShardTask", "ShardPlan", "plan_shards", "time_slices",
           "ShardEntry", "pack_shard_archive", "is_shard_archive",
           "assemble_shards", "assemble_window", "read_shard_index",
           "read_members", "SHARD_MAGIC", "SHARD_VERSION"]

#: Per-shard seed stride; must match
#: :data:`repro.pipeline.engine.SEED_STRIDE` (kept literal here to
#: avoid an import cycle — the engine consumes plans, not vice versa).
SEED_STRIDE = 7919

SHARD_MAGIC = b"SHRD"
#: the shard-archive wire version written.  v2 appended the footer
#: index to v1's member region; v1 archives are read by
#: :mod:`repro.pipeline.legacy`.
SHARD_VERSION = 2

_HEAD_FMT = "<HI"
_ENTRY_GEOM = "<IIIQ"


@dataclass(frozen=True)
class ShardTask:
    """One unit of planned work: frames ``[t0:t1)`` of one variable.

    Frozen, hashable and picklable; :meth:`materialize` regenerates the
    frames deterministically wherever the task lands.
    """

    shard_id: str
    index: int
    dataset: DatasetSpec
    variable: int
    t0: int
    t1: int
    seed: int

    @property
    def frames_shape(self) -> Tuple[int, int, int]:
        return (self.t1 - self.t0, self.dataset.h, self.dataset.w)

    def materialize(self) -> np.ndarray:
        """Generate this shard's ``(t1-t0, H, W)`` frames.

        Generation is memoized per ``(spec, variable)`` so the shards
        of one variable share a single generation pass — without the
        cache an N-shard plan would regenerate the full variable N
        times (once per task, in whichever process runs it).
        """
        return _variable_frames(self.dataset,
                                self.variable)[self.t0:self.t1].copy()


@lru_cache(maxsize=8)
def _variable_frames(spec: DatasetSpec, variable: int) -> np.ndarray:
    """One variable's full frame stack (deterministic, cache-safe)."""
    return dataset_from_spec(spec).frames(variable)


@dataclass(frozen=True)
class ShardPlan:
    """Ordered, deterministic list of shard tasks for one dataset."""

    dataset: DatasetSpec
    tasks: Tuple[ShardTask, ...]
    base_seed: int = 0
    seed_stride: int = SEED_STRIDE

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)

    def __getitem__(self, i):
        return self.tasks[i]

    @property
    def variables(self) -> Tuple[int, ...]:
        return tuple(sorted({t.variable for t in self.tasks}))

    def total_frames(self) -> int:
        return sum(t.t1 - t.t0 for t in self.tasks)


def time_slices(t: int, window: Optional[int] = None,
                shards: Optional[int] = None) -> List[Tuple[int, int]]:
    """Split ``[0, t)`` into contiguous ``(t0, t1)`` slices.

    ``window`` gives fixed-length windows (last one may be short);
    ``shards`` gives that many contiguous chunks whose lengths differ
    by at most one frame (short chunks first).  Giving neither returns
    the whole range; giving both is an error.
    """
    if t < 1:
        raise ValueError(f"need at least one frame, got t={t}")
    if window is not None and shards is not None:
        raise ValueError("give window or shards, not both")
    if window is not None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        return [(s, min(s + window, t)) for s in range(0, t, window)]
    if shards is not None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        shards = min(shards, t)
        bounds = np.linspace(0, t, shards + 1).astype(int)
        return [(int(bounds[i]), int(bounds[i + 1]))
                for i in range(shards)]
    return [(0, t)]


def plan_shards(dataset: Union[str, DatasetSpec, SpatiotemporalDataset],
                variables: Optional[Sequence[int]] = None,
                window: Optional[int] = None,
                shards: Optional[int] = None,
                base_seed: int = 0,
                seed_stride: int = SEED_STRIDE,
                **dataset_overrides) -> ShardPlan:
    """Plan the ``variables x time-slices`` grid of one dataset.

    ``dataset`` may be a registry name (``dataset_overrides`` are
    forwarded to :func:`~repro.data.registry.get_dataset`), a
    :class:`DatasetSpec`, or a dataset instance.  ``variables`` defaults
    to every variable of the dataset; the time axis splits per
    :func:`time_slices`.
    """
    if isinstance(dataset, str):
        spec = get_dataset_spec(dataset, **dataset_overrides)
    elif isinstance(dataset, DatasetSpec):
        spec = dataset.override(**dataset_overrides) \
            if dataset_overrides else dataset
    elif isinstance(dataset, SpatiotemporalDataset):
        if dataset_overrides:
            raise ValueError("dataset overrides require a name or spec")
        spec = spec_of(dataset)
    else:
        raise TypeError(f"cannot plan over {type(dataset).__name__}; "
                        f"pass a dataset name, DatasetSpec or instance")

    if variables is None:
        variables = range(spec.num_vars)
    variables = list(variables)
    for v in variables:
        if not 0 <= v < spec.num_vars:
            raise ValueError(f"variable {v} outside "
                             f"[0, {spec.num_vars})")

    slices = time_slices(spec.t, window=window, shards=shards)
    tasks = []
    for var in variables:
        for t0, t1 in slices:
            i = len(tasks)
            tasks.append(ShardTask(
                shard_id=(f"{spec.name}/s{spec.seed}/v{var}/"
                          f"t{t0:04d}-{t1:04d}"),
                index=i, dataset=spec, variable=var, t0=t0, t1=t1,
                seed=base_seed + seed_stride * i))
    return ShardPlan(dataset=spec, tasks=tuple(tasks),
                     base_seed=base_seed, seed_stride=seed_stride)


# ----------------------------------------------------------------------
# Shard archive: container stitching sharded payloads back together.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardEntry:
    """One archived member: its key, geometry and stored payload.

    ``variable``/``t0``/``t1`` place a timed member in the ``(V, T)``
    grid; a named member (one variable of a mapping) stores its
    position as ``variable`` and ``t0 == t1 == 0``.
    """

    shard_id: str
    variable: int
    t0: int
    t1: int
    payload: bytes


def pack_shard_archive(entries: Sequence[ShardEntry]) -> bytes:
    """Serialize members into a self-contained ``SHRD`` v2 archive.

    The footer index maps every member to its byte extent and CRC-32,
    so readers can seek straight to one member and verify it.
    """
    parts = [SHARD_MAGIC, struct.pack(_HEAD_FMT, SHARD_VERSION,
                                      len(entries))]
    pos = 4 + struct.calcsize(_HEAD_FMT)
    members = []
    for e in entries:
        sid = e.shard_id.encode()
        if not 0 < len(sid) <= 0xFFFF:
            raise ValueError(f"bad shard id {e.shard_id!r}")
        parts.append(struct.pack("<H", len(sid)))
        parts.append(sid)
        parts.append(struct.pack(_ENTRY_GEOM, e.variable, e.t0, e.t1,
                                 len(e.payload)))
        parts.append(e.payload)
        pos += 2 + len(sid) + struct.calcsize(_ENTRY_GEOM)
        kind, codec = member_kind(e.payload)
        members.append(MemberIndex(
            key=e.shard_id, kind=kind, codec=codec,
            variable=e.variable, t0=e.t0, t1=e.t1, offset=pos,
            length=len(e.payload), crc32=zlib.crc32(e.payload)))
        pos += len(e.payload)
    parts.append(index_blob(members, footer_offset=pos))
    return b"".join(parts)


def is_shard_archive(data: bytes) -> bool:
    return data[:4] == SHARD_MAGIC


def read_shard_index(source) -> List[MemberIndex]:
    """Member index of a multi-member archive, reading as little as
    possible.

    A ``SHRD`` v2 archive answers from its footer in three small reads
    (head + trailer + footer), whatever its size.  The legacy layouts
    (``LDMV``, ``LDSA``, ``SHRD`` v1) are turned into equivalent rows
    by :func:`~repro.pipeline.legacy.read_legacy_index`.
    """
    source = as_source(source)
    magic, version, count = container_layout(source)
    if (magic, version) != (SHARD_MAGIC, SHARD_VERSION):
        return read_legacy_index(source)
    members = read_index(source)
    if members is None:
        raise ArchiveIndexError(
            f"shard archive v{version} is missing its footer "
            f"index (truncated file?)")
    if len(members) != count:
        raise ArchiveIndexError(
            f"shard archive header promises {count} members but "
            f"the footer indexes {len(members)}")
    return members


def read_members(source, members: Optional[Sequence[MemberIndex]] = None
                 ) -> Iterator[Tuple[MemberIndex, Optional[str], bytes]]:
    """Yield ``(row, codec name, payload)`` per member, in row order.

    ``members`` defaults to every row of :func:`read_shard_index`.
    Each member is read on its own and checked against its row
    (length and CRC-32) before its envelope is opened; ``codec name``
    is ``None`` for a raw pipeline blob (legacy members only).
    """
    from ..codecs import unpack_envelope
    source = as_source(source)
    if members is None:
        members = read_shard_index(source)
    for m in members:
        raw = verify_member(source.read_at(m.offset, m.length), m)
        if m.kind == MEMBER_ENVELOPE:
            yield (m, *unpack_envelope(raw))
        else:
            yield m, None, raw


def assemble_shards(entries: Sequence[ShardEntry],
                    arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Stitch decoded shard arrays back into one stack.

    Returns ``(T, H, W)`` for a single-variable archive and
    ``(V, T, H, W)`` otherwise (variables indexed in sorted order).
    The full time axis ``[0, max t1)`` must be covered.
    """
    if not entries:
        raise ValueError("empty shard archive")
    return assemble_window(entries, arrays, t0=0,
                           t1=max(e.t1 for e in entries))


def assemble_window(entries: Sequence[ShardEntry],
                    arrays: Sequence[np.ndarray],
                    t0: Optional[int] = None,
                    t1: Optional[int] = None) -> np.ndarray:
    """Stitch decoded shards covering the time window ``[t0, t1)``.

    The generalization behind partial decode: entries may overhang the
    window (their overhang is trimmed), but together they must tile
    ``[t0, t1)`` for every variable present, with no overlap inside
    the window.  Defaults cover exactly the entries' own extent.
    Returns ``(t1-t0, H, W)`` for one variable, ``(V, t1-t0, H, W)``
    otherwise.
    """
    if len(entries) != len(arrays):
        raise ValueError("one decoded array per entry required")
    if not entries:
        raise ValueError("no shards selected")
    if t0 is None:
        t0 = min(e.t0 for e in entries)
    if t1 is None:
        t1 = max(e.t1 for e in entries)
    if not 0 <= t0 < t1:
        raise ValueError(f"bad time window [{t0}, {t1})")
    span = t1 - t0
    variables = sorted({e.variable for e in entries})
    var_index = {v: i for i, v in enumerate(variables)}
    h, w = np.asarray(arrays[0]).shape[-2:]
    out = np.zeros((len(variables), span, h, w),
                   dtype=np.asarray(arrays[0]).dtype)
    seen = np.zeros((len(variables), span), dtype=bool)
    for e, arr in zip(entries, arrays):
        arr = np.asarray(arr)
        if arr.shape != (e.t1 - e.t0, h, w):
            raise ValueError(f"shard {e.shard_id!r} decoded to "
                             f"{arr.shape}, expected "
                             f"{(e.t1 - e.t0, h, w)}")
        a, b = max(e.t0, t0), min(e.t1, t1)
        if a >= b:
            raise ValueError(f"shard {e.shard_id!r} lies outside the "
                             f"window [{t0}, {t1})")
        vi = var_index[e.variable]
        if seen[vi, a - t0:b - t0].any():
            raise ValueError(f"shard {e.shard_id!r} overlaps another "
                             f"shard")
        out[vi, a - t0:b - t0] = arr[a - e.t0:b - e.t0]
        seen[vi, a - t0:b - t0] = True
    if not seen.all():
        raise ValueError("selected shards leave gaps in the time axis")
    return out[0] if len(variables) == 1 else out
