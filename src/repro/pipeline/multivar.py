"""Multi-variable dataset compression.

The paper's datasets bundle several physical variables (E3SM: 5 climate
variables; S3D: 58 species; Table 1), each compressed as its own
``(T, H, W)`` stack.  This module drives *any registered codec* across
a ``(V, T, H, W)`` array (or a mapping of named variables), aggregates
the Eq. 11 accounting over all variables, and serializes everything
into one archive.

A single codec is shared across variables by default — the per-frame
normalization (Sec. 4.3) maps every variable into the same
zero-mean/unit-range domain the model was trained on.  A per-variable
mapping can be supplied when variables differ enough to merit dedicated
models.  Accepted codec descriptions (normalized via
:func:`repro.codecs.as_codec`): a :class:`~repro.codecs.base.Codec`, a
registry name (``"szlike"``), or a native compressor such as a trained
:class:`~repro.pipeline.compressor.LatentDiffusionCompressor`.

Variables are independent, so compression fans out over a thread-mode
:class:`~repro.runtime.TaskRuntime` (``max_workers``) with the
deterministic per-variable seeding the serial path used — results are
bit-identical either way.  ``Session.decompress`` does not go through
:class:`MultiVariableCompressor`: it reads members through the
CRC-checked footer index (:func:`read_multivar_index`).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from ..bound import Bound
from ..entropy.backend import get_default_backend, using_backend
from ..metrics import CompressionAccounting
from ..runtime import TaskRuntime
from .blob import CompressedBlob
from .compressor import LatentDiffusionCompressor
from .container import (ArchiveIndexError, MemberIndex, as_source,
                        index_blob, read_index)

__all__ = ["MultiVarResult", "MultiVarArchive", "MultiVariableCompressor",
           "read_multivar_index"]

_MAGIC = b"LDMV"
_VERSION = 1
_VERSION_CODEC = 2     # adds envelope (non-blob codec) entries
_VERSION_INDEXED = 3   # v2 entry layout + footer index + trailer

_ENTRY_BLOB = 0
_ENTRY_ENVELOPE = 1

#: per-variable seed stride (prime; historical value kept so archives
#: produced by older revisions stay reproducible)
VAR_SEED_STRIDE = 104729


@dataclass
class MultiVarResult:
    """Per-variable codec results plus dataset-level accounting."""

    results: Dict[str, "object"]   # name -> CodecResult

    @property
    def variables(self) -> List[str]:
        return list(self.results)

    def accounting(self) -> CompressionAccounting:
        return CompressionAccounting(
            original_bytes=sum(r.accounting.original_bytes
                               for r in self.results.values()),
            latent_bytes=sum(r.accounting.latent_bytes
                             for r in self.results.values()),
            guarantee_bytes=sum(r.accounting.guarantee_bytes
                                for r in self.results.values()))

    @property
    def ratio(self) -> float:
        return self.accounting().ratio

    def worst_nrmse(self) -> float:
        return max(r.achieved_nrmse for r in self.results.values())

    def archive(self) -> "MultiVarArchive":
        """Serializable container; blob-native codecs store their blob,
        every other codec stores its tagged payload envelope."""
        from ..codecs import pack_envelope
        blobs: Dict[str, CompressedBlob] = {}
        envelopes: Dict[str, bytes] = {}
        for name, r in self.results.items():
            blob = getattr(r, "blob", None)
            if blob is not None:
                blobs[name] = blob
            else:
                envelopes[name] = pack_envelope(r.codec, r.payload)
        return MultiVarArchive(blobs=blobs, envelopes=envelopes)


@dataclass
class MultiVarArchive:
    """Named compressed-variable collection with (de)serialization.

    ``blobs`` holds latent-diffusion streams in their native
    :class:`CompressedBlob` form; ``envelopes`` holds any other codec's
    payload wrapped in a codec envelope.  The wire format stays at
    version 1 (bit-compatible with older archives) unless envelope
    entries are present.
    """

    blobs: Dict[str, CompressedBlob] = field(default_factory=dict)
    envelopes: Dict[str, bytes] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.blobs) + len(self.envelopes)

    def to_bytes(self, version: Optional[int] = None) -> bytes:
        """Serialize; ``version`` pins a legacy wire layout.

        The default writes the indexed v3 container (entry region
        byte-identical to v2, plus footer index + trailer).  ``1`` and
        ``2`` reproduce the historical layouts byte-for-byte — v1 is
        blob-only and rejects envelope entries.
        """
        if version is None:
            version = _VERSION_INDEXED
        if version not in (_VERSION, _VERSION_CODEC, _VERSION_INDEXED):
            raise ValueError(f"unsupported archive version {version}")
        if version == _VERSION and self.envelopes:
            raise ValueError("envelope entries need archive version "
                             ">= 2")
        parts = [_MAGIC, struct.pack("<BI", version, len(self))]
        pos = 4 + struct.calcsize("<BI")
        entries = [(name, _ENTRY_BLOB, blob.to_bytes())
                   for name, blob in self.blobs.items()]
        entries += [(name, _ENTRY_ENVELOPE, env)
                    for name, env in self.envelopes.items()]
        members = []
        for name, kind, payload in entries:
            tag = name.encode()
            if len(tag) > 255:
                raise ValueError(f"variable name too long: {name!r}")
            parts.append(struct.pack("<B", len(tag)))
            parts.append(tag)
            pos += 1 + len(tag)
            if version >= _VERSION_CODEC:
                parts.append(struct.pack("<B", kind))
                pos += 1
            parts.append(struct.pack("<I", len(payload)))
            parts.append(payload)
            pos += 4
            if version >= _VERSION_INDEXED:
                members.append(MemberIndex(
                    key=name, kind=kind, codec=_entry_codec(kind, payload),
                    variable=-1, t0=0, t1=0, offset=pos,
                    length=len(payload), crc32=zlib.crc32(payload)))
            pos += len(payload)
        if version >= _VERSION_INDEXED:
            parts.append(index_blob(members, footer_offset=pos))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "MultiVarArchive":
        if data[:4] != _MAGIC:
            raise ValueError("not a multi-variable archive (bad magic)")
        version, count = struct.unpack_from("<BI", data, 4)
        if version not in (_VERSION, _VERSION_CODEC, _VERSION_INDEXED):
            raise ValueError(f"unsupported archive version {version}")
        pos = 4 + struct.calcsize("<BI")
        blobs: Dict[str, CompressedBlob] = {}
        envelopes: Dict[str, bytes] = {}
        for _ in range(count):
            tlen, = struct.unpack_from("<B", data, pos)
            pos += 1
            name = data[pos:pos + tlen].decode()
            pos += tlen
            kind = _ENTRY_BLOB
            if version >= _VERSION_CODEC:
                kind, = struct.unpack_from("<B", data, pos)
                pos += 1
            n, = struct.unpack_from("<I", data, pos)
            pos += 4
            payload = data[pos:pos + n]
            if len(payload) != n:
                raise ValueError("truncated archive: entry incomplete")
            if kind == _ENTRY_BLOB:
                blobs[name] = CompressedBlob.from_bytes(payload)
            elif kind == _ENTRY_ENVELOPE:
                envelopes[name] = payload
            else:
                raise ValueError(f"unknown archive entry kind {kind}")
            pos += n
        return cls(blobs=blobs, envelopes=envelopes)


def _entry_codec(kind: int, payload: bytes) -> str:
    """Codec name for a footer row; blobs carry no registry name."""
    if kind != _ENTRY_ENVELOPE:
        return ""
    from ..codecs import peek_envelope
    return peek_envelope(payload) or ""


def read_multivar_index(source) -> List[MemberIndex]:
    """Member index of a multi-variable archive.

    v3 archives answer from the footer in three small reads; legacy
    v1/v2 archives are scanned once and equivalent rows synthesized.
    ``variable``/``t0``/``t1`` carry no meaning for this container
    (``-1``/``0``/``0``); members are keyed by variable name, with
    ``kind`` separating blob and envelope entries.
    """
    source = as_source(source)
    head_size = 4 + struct.calcsize("<BI")
    head = source.read_at(0, head_size)
    if head[:4] != _MAGIC:
        raise ValueError("not a multi-variable archive (bad magic)")
    if len(head) < head_size:
        raise ArchiveIndexError(
            f"multi-variable archive is truncated below its "
            f"{head_size}-byte fixed header ({len(head)} bytes)")
    version, count = struct.unpack_from("<BI", head, 4)
    if version >= _VERSION_INDEXED:
        members = read_index(source)
        if members is None:
            raise ArchiveIndexError(
                f"multi-variable archive v{version} is missing its "
                f"footer index (truncated file?)")
        if len(members) != count:
            raise ArchiveIndexError(
                f"multi-variable archive header promises {count} "
                f"members but the footer indexes {len(members)}")
        return members
    data = source.read_all()
    if version not in (_VERSION, _VERSION_CODEC):
        raise ValueError(f"unsupported archive version {version}")
    members = []
    pos = 4 + struct.calcsize("<BI")
    for _ in range(count):
        tlen, = struct.unpack_from("<B", data, pos)
        pos += 1
        name = data[pos:pos + tlen].decode()
        pos += tlen
        kind = _ENTRY_BLOB
        if version >= _VERSION_CODEC:
            kind, = struct.unpack_from("<B", data, pos)
            pos += 1
        n, = struct.unpack_from("<I", data, pos)
        pos += 4
        payload = data[pos:pos + n]
        if len(payload) != n:
            raise ValueError("truncated archive: entry incomplete")
        members.append(MemberIndex(
            key=name, kind=kind, codec=_entry_codec(kind, payload),
            variable=-1, t0=0, t1=0, offset=pos, length=n,
            crc32=zlib.crc32(payload)))
        pos += n
    return members


CodecLike = Union[LatentDiffusionCompressor, str, "object"]


class MultiVariableCompressor:
    """Compress/decompress a set of variables with shared or dedicated
    codecs.

    Parameters
    ----------
    compressor:
        One shared codec description, or a mapping ``variable name ->
        codec description`` (every variable to be compressed must then
        have an entry).  See the module docstring for accepted forms.
    max_workers:
        Worker threads for per-variable fan-out (1 = serial; results
        are bit-identical regardless).
    """

    def __init__(self, compressor: Union[CodecLike,
                                         Mapping[str, CodecLike]],
                 max_workers: int = 1):
        from ..codecs import as_codec
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self._executor = TaskRuntime(mode="thread",
                                     max_workers=max_workers,
                                     name="repro-multivar")
        self._shared = None
        self._per_var: Dict[str, "object"] = {}
        if isinstance(compressor, Mapping):
            if not compressor:
                raise ValueError("empty compressor mapping")
            self._per_var = {str(k): as_codec(v)
                             for k, v in compressor.items()}
        else:
            self._shared = as_codec(compressor)

    def _for(self, name: str):
        if self._shared is not None:
            return self._shared
        try:
            return self._per_var[name]
        except KeyError:
            raise KeyError(f"no codec for variable {name!r}") from None

    # ------------------------------------------------------------------
    def compress(self, data: Union[np.ndarray, Mapping[str, np.ndarray]],
                 names: Optional[Sequence[str]] = None,
                 error_bound: Optional[float] = None,
                 nrmse_bound: Optional[float] = None,
                 noise_seed: int = 0,
                 bound: Optional[Bound] = None) -> MultiVarResult:
        """Compress every variable.

        ``data`` is either a ``(V, T, H, W)`` array (variables named
        ``names`` or ``var0..var{V-1}``) or an explicit name→stack
        mapping.  Bounds apply per variable — a first-class ``bound``
        (:class:`~repro.bound.Bound`) or the legacy ``error_bound``
        (absolute L2 tau) / ``nrmse_bound`` kwargs; either way each
        variable normalizes against its own statistics.
        """
        target = Bound.coalesce(bound=bound, error_bound=error_bound,
                                nrmse_bound=nrmse_bound)
        stacks = self._as_mapping(data, names)
        # resolve codecs eagerly so a missing mapping entry raises
        # before any work is scheduled
        jobs = [(vi, name, stack, self._for(name))
                for vi, (name, stack) in enumerate(stacks.items())]
        # the entropy-backend selection is per thread: carry the
        # caller's into every worker
        backend = get_default_backend()

        def task(job):
            vi, name, stack, codec = job
            with using_backend(backend):
                return name, codec.compress_bounded(
                    stack, bound=target,
                    seed=noise_seed + VAR_SEED_STRIDE * vi)

        results = dict(self._executor.map(task, jobs))
        # the executor preserves order, but rebuild by stack order for
        # deterministic iteration anyway
        return MultiVarResult(
            results={name: results[name] for name in stacks})

    def decompress(self, archive: MultiVarArchive
                   ) -> Dict[str, np.ndarray]:
        """Reconstruct every variable from an archive."""
        from ..codecs import unpack_envelope
        jobs = []
        for name, blob in archive.blobs.items():
            jobs.append((name, blob, None))
        for name, env in archive.envelopes.items():
            jobs.append((name, None, env))

        def task(job):
            name, blob, env = job
            codec = self._for(name)
            if blob is not None:
                if hasattr(codec, "decompress_blob"):
                    return name, codec.decompress_blob(blob)
                return name, codec.decompress(blob.to_bytes())
            codec_name, payload = unpack_envelope(env)
            if codec_name != codec.name:
                raise ValueError(
                    f"variable {name!r} was written by codec "
                    f"{codec_name!r} but {codec.name!r} is configured")
            return name, codec.decompress(payload)

        return dict(self._executor.map(task, jobs))

    # ------------------------------------------------------------------
    @staticmethod
    def _as_mapping(data, names) -> Dict[str, np.ndarray]:
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
