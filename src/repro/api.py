"""``repro.api`` — the one front door to the compression platform.

The platform layers beneath this module (codec/dataset registries, the
shard planner, the task runtime, the artifact store) are stable; this
module is the one surface every workload talks to — single stacks,
sweeps, variable sets and frame iterators alike — through two types:

:class:`Session`
    Owns the registry lookups, codec cache, task runtime and seeds.
    ``session.compress(source, bound=...)`` accepts a
    ``(T, H, W)`` array, a registered dataset name or
    :class:`~repro.data.registry.DatasetSpec`, a multi-variable
    mapping / ``(V, T, H, W)`` array, or a frame *iterator*, and
    dispatches to the right pipeline — engine sweep, multi-variable
    fan-out, or constant-memory streaming — returning an
    :class:`Archive` either way.  ``session.decompress`` inverts any
    archive; ``session.train`` trains any trainable codec and saves a
    portable artifact; ``session.info`` inspects streams and model
    files.

:class:`Archive`
    One typed handle over every container format this repo has ever
    written, with a single sniffing loader (:meth:`Archive.open`) and
    uniform ``save``/``to_bytes``/``describe``.  A single stack is a
    bare member: a raw pipeline blob (``LDCB``) or a tagged codec
    envelope (``CDX1``).  Everything with more than one member —
    shards, dataset sweeps, variable mappings, stream chunks — is a
    shard archive (``SHRD`` v2) with a CRC-checked footer index.  The
    older ``LDMV``, ``LDSA`` and ``SHRD`` v1 layouts stay readable.

Bounds are expressed with the first-class :class:`~repro.bound.Bound`
value type (``Bound.nrmse(1e-3)``, ``Bound.pointwise(0.5)``, ...).

Everything stays spec-portable: a ``Session(executor="process")``
sweep ships codec + dataset specs to pool workers and produces
archives byte-identical to ``executor="serial"``.

>>> import numpy as np
>>> from repro.api import Session, Bound
>>> frames = np.linspace(0.0, 1.0, 4 * 8 * 8).reshape(4, 8, 8)
>>> with Session(codec="szlike") as session:
...     archive = session.compress(frames, bound=Bound.nrmse(1e-3))
...     restored = session.decompress(archive)
>>> archive.kind
'envelope'
>>> bool(np.max(np.abs(restored - frames)) <= 1e-3)
True
"""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import os
from typing import (Any, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Union)

import numpy as np

from .bound import Bound
from .codecs.base import check_bound
from .codecs import (Codec, LatentDiffusionCodec, as_codec, codec_class,
                     get_codec, is_envelope, pack_envelope,
                     unpack_envelope)
from .data.base import SpatiotemporalDataset, train_test_windows
from .data.registry import (DatasetSpec, get_dataset_spec, list_datasets,
                            spec_of)
from .entropy.backend import DEFAULT_BACKEND as DEFAULT_ENTROPY
from .entropy.backend import get_backend as get_entropy_backend
from .entropy.backend import using_backend
from .metrics import CompressionAccounting
from .pipeline.artifacts import (ArtifactStore, is_artifact,
                                 read_manifest, save_artifact)
from .pipeline.blob import VERSION as BLOB_VERSION
from .pipeline.blob import CompressedBlob
from .pipeline.container import (MEMBER_ENVELOPE, ArchiveIndexError,
                                 MemberIndex, as_source)
from .pipeline.engine import VAR_SEED_STRIDE, CodecEngine
from .pipeline.legacy import LEGACY_KINDS, has_footer
from .runtime import (JournalError, SweepJournal, TaskRuntime, as_runtime,
                      facts_fingerprint)
from .pipeline.plan import (ShardEntry, ShardPlan, assemble_window,
                            is_shard_archive, pack_shard_archive,
                            plan_shards, read_members, read_shard_index,
                            time_slices)
from .pipeline.sources import (ArrayStackSource, NpyStackSource,
                               as_stack_source, stream_chunks,
                               variable_stacks)
from .postprocess.coding import PAYLOAD_FORMAT

__all__ = ["Session", "Archive", "Bound", "SessionError",
           "ArchiveIndexError", "ARCHIVE_KINDS", "sniff_kind"]

#: container kinds :meth:`Archive.open` recognizes, in sniff order;
#: ``multivar`` and ``stream`` are read-only layouts of earlier
#: releases (:data:`~repro.pipeline.legacy.LEGACY_KINDS`), indexed
#: like a shard archive
ARCHIVE_KINDS = ("shard", "envelope", "multivar", "stream", "blob")
#: single-member kinds: one stack, no member index
_BARE_KINDS = ("envelope", "blob")

_BLOB_MAGIC = b"LDCB"
_NPZ_MAGIC = b"PK\x03\x04"

#: the default codec — the paper's pipeline
DEFAULT_CODEC = "ours"


class SessionError(ValueError):
    """A facade-level dispatch/selection problem (bad codec choice,
    unrecognized container, missing model state)."""


def _entropy_name(backend: Optional[str], fallback: str) -> str:
    """Registered name of an entropy-backend choice (``None``: the
    fallback's)."""
    try:
        return get_entropy_backend(
            fallback if backend is None else backend).name
    except KeyError as exc:
        raise SessionError(exc.args[0]) from None


def _codec_id(name: str) -> str:
    """``name`` in its registry spelling; as given when no codec is
    registered under it."""
    try:
        return codec_class(name).codec_id
    except KeyError:
        return name


def _stack_rows(label: Optional[str], slices) -> List[tuple]:
    """Member rows of one stack split at ``slices``: keys
    ``<label>/v0/t<t0>-<t1>`` (``label`` defaults to ``"stack"``)."""
    stem = label or "stack"
    return [(f"{stem}/v0/t{a:04d}-{b:04d}", 0, a, b) for a, b in slices]


# ----------------------------------------------------------------------
# Archive: one handle over every container format.
# ----------------------------------------------------------------------
def sniff_kind(data: bytes) -> str:
    """Identify a compressed container from its magic bytes.

    Returns one of :data:`ARCHIVE_KINDS`, or ``"model"`` for ``.npz``
    files (model artifacts, which are not archives).
    Raises :class:`SessionError` for unrecognized data.
    """
    head = bytes(data[:4])
    if is_shard_archive(data):
        return "shard"
    if is_envelope(data):
        return "envelope"
    if head in LEGACY_KINDS:
        return LEGACY_KINDS[head]
    if head == _BLOB_MAGIC:
        return "blob"
    if head == _NPZ_MAGIC:
        return "model"
    raise SessionError(
        f"unrecognized container (magic {head!r}); expected one of "
        f"{', '.join(ARCHIVE_KINDS)}")


class Archive:
    """A compressed container of any supported format.

    Holds the sniffed ``kind`` plus *either* the wire bytes or a byte
    source (a path or seekable handle).  Source-backed archives are
    fully lazy: :meth:`Archive.open` on a path reads only the magic
    bytes, :meth:`index` answers from the footer in O(1) reads, and
    the body is pulled in only when something actually needs it
    (``.data``, full decode).  Parsed views are built per kind, so
    opening an archive costs one magic check and saving one costs one
    streamed copy.  Instances produced by :meth:`Session.compress`
    additionally carry a ``stats`` dict (ratio, worst NRMSE,
    wall-clock, executor) for reporting.
    """

    def __init__(self, data: Optional[bytes] = None,
                 kind: Optional[str] = None,
                 stats: Optional[dict] = None, *, source=None):
        if (data is None) == (source is None):
            raise SessionError("give archive data or a source, not "
                               "both (or neither)")
        # bytes(b) on a bytes instance is a no-op in CPython, so the
        # common Archive(result_bytes) path does not copy
        self._data = None if data is None else bytes(data)
        self._source = source
        if kind is None:
            head = (self._data[:16] if self._data is not None
                    else source.read_at(0, 16))
            kind = sniff_kind(head)
        self.kind = kind
        if self.kind not in ARCHIVE_KINDS:
            raise SessionError(
                f"{self.kind!r} is not an archive kind; a model "
                f"artifact loads with Codec.load_artifact, not "
                f"Archive.open")
        self.stats = stats or {}
        self._index: Optional[List[MemberIndex]] = None
        # pin the container size at open time: a source-backed archive
        # whose file is truncated under us must fail loudly with a
        # typed error, never hand back silently-short bytes
        self._expected_size = (None if source is None
                               else source.size())

    # -- I/O ------------------------------------------------------------
    @classmethod
    def open(cls, source: Union[str, os.PathLike, bytes, "Archive"]
             ) -> "Archive":
        """Open any supported container: a path, a seekable binary
        handle, raw bytes, or an already-open :class:`Archive`
        (returned as-is).

        Paths and handles open *lazily* — only the few magic bytes
        sniffing needs are read here, and indexed containers keep all
        subsequent member access seek-based.
        """
        if isinstance(source, Archive):
            return source
        if isinstance(source, (bytes, bytearray, memoryview)):
            return cls(bytes(source))
        return cls(source=as_source(source))

    @property
    def data(self) -> bytes:
        """The full wire bytes (reads the body of a lazy archive).

        Raises :class:`ArchiveIndexError` when the backing file no
        longer holds the bytes it had at open time (truncated or
        replaced mid-read).
        """
        if self._data is None:
            data = self._source.read_all()
            if (self._expected_size is not None
                    and len(data) != self._expected_size):
                raise ArchiveIndexError(
                    f"archive source is {len(data)} bytes but was "
                    f"{self._expected_size} at open time (truncated "
                    f"or replaced mid-read)")
            self._data = data
        return self._data

    def reader(self):
        """Random-access byte source over this archive's container."""
        if self._data is not None:
            return as_source(self._data)
        return self._source

    def save(self, path: Union[str, os.PathLike]) -> str:
        """Write the archive's wire bytes to ``path`` (streamed from
        the backing source when the body was never materialized).

        A source-backed archive whose file shrank since open raises
        :class:`ArchiveIndexError` instead of silently writing a
        truncated copy.
        """
        path = os.fspath(path)
        with open(path, "wb") as fh:
            self.reader().copy_to(fh)
        if (self._data is None and self._expected_size is not None):
            written = os.path.getsize(path)
            if written != self._expected_size:
                raise ArchiveIndexError(
                    f"archive source yielded {written} bytes but was "
                    f"{self._expected_size} at open time (truncated "
                    f"or replaced mid-read); partial copy left at "
                    f"{path!r}")
        return path

    def to_bytes(self) -> bytes:
        return self.data

    def __len__(self) -> int:
        if self._data is not None:
            return len(self._data)
        return self._source.size()

    def __eq__(self, other) -> bool:
        return isinstance(other, Archive) and self.data == other.data

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Archive {self.kind} ({len(self)} bytes)>")

    # -- member index ---------------------------------------------------
    def index(self) -> List[MemberIndex]:
        """Per-member byte extents + checksums of a multi-member
        archive.

        A shard archive answers from its footer — O(1) reads
        regardless of archive size; legacy layouts are turned into
        equivalent rows (:mod:`repro.pipeline.legacy`).  Raises
        :class:`SessionError` for single-member kinds, and
        :class:`ArchiveIndexError` when a header or footer is
        truncated or corrupt.
        """
        if self._index is None:
            if self.kind in _BARE_KINDS:
                raise SessionError(
                    f"{self.kind!r} archives are single-payload and "
                    f"carry no member index")
            self._index = read_shard_index(self.reader())
        return self._index

    def indexed(self) -> bool:
        """Whether the member index comes from a seekable footer
        rather than a scan of a legacy layout.

        Raises :class:`ArchiveIndexError` (never a bare
        ``struct.error``) when the container is truncated below its
        fixed header.
        """
        return self.kind not in _BARE_KINDS and has_footer(self.reader())

    # -- parsed views ---------------------------------------------------
    def envelope(self):
        """``(codec_name, payload)`` of an envelope archive."""
        self._expect("envelope")
        return unpack_envelope(self.data)

    def blob(self) -> CompressedBlob:
        self._expect("blob")
        return CompressedBlob.from_bytes(self.data)

    def _expect(self, kind: str) -> None:
        if self.kind != kind:
            raise SessionError(f"archive is {self.kind!r}, not {kind!r}")

    # -- introspection --------------------------------------------------
    def codecs(self) -> List[str]:
        """Sorted codec names referenced by this archive.

        Raw blobs and blob members belong to the pipeline codec
        (``"ours"``).
        """
        if self.kind == "blob":
            return [DEFAULT_CODEC]
        if self.kind == "envelope":
            return [self.envelope()[0]]
        return sorted({m.codec or DEFAULT_CODEC for m in self.index()})

    @staticmethod
    def _member_payload_bytes(m: MemberIndex) -> int:
        """Inner payload size of a member (envelope header stripped)."""
        if m.kind == MEMBER_ENVELOPE:
            # envelope header: magic + name-length byte + name + u64
            return max(0, m.length - (13 + len(m.codec.encode())))
        return m.length

    def describe(self) -> dict:
        """Structured summary (what ``repro info`` renders).

        Multi-member kinds answer from the member index — for a shard
        archive that means header + footer reads only, so ``repro
        info`` on a multi-GB archive stays instant — and report each
        member's key, geometry and byte extent plus whether a seekable
        footer is present.
        """
        out: Dict[str, Any] = {"kind": self.kind,
                               "total_bytes": len(self)}
        if self.kind == "envelope":
            name, payload = self.envelope()
            out["codec"] = name
            out["payload_bytes"] = len(payload)
        elif self.kind == "blob":
            out["blob"] = self.blob()
            out["codec"] = DEFAULT_CODEC
        else:
            members = self.index()
            out["indexed"] = self.indexed()
            out["entries"] = [
                {"shard_id": m.key,
                 "codec": m.codec or DEFAULT_CODEC,
                 "variable": m.variable, "t0": m.t0, "t1": m.t1,
                 "payload_bytes": self._member_payload_bytes(m),
                 "offset": m.offset, "length": m.length,
                 "crc32": m.crc32}
                for m in members]
            out["variables"] = sorted({m.variable for m in members})
        return out


# ----------------------------------------------------------------------
# Session: registry lookups + executor + seeds behind one object.
# ----------------------------------------------------------------------
class Session:
    """A configured entry point to compress / decompress / train.

    Parameters
    ----------
    codec:
        Default codec for :meth:`compress`: a registry name, a
        :class:`~repro.codecs.base.Codec`, or a native compressor
        object (anything :func:`repro.codecs.as_codec` accepts).
        Defaults to the paper's pipeline (``"ours"``); like every
        learned codec it is usable only trained, from ``artifact`` or
        as a :class:`~repro.codecs.base.Codec` object.
    artifact:
        Model artifact path (``.npz`` written by
        :meth:`~repro.codecs.base.Codec.save_artifact` /
        ``repro train``), the one way to name a trained model; loads
        the trained codec it holds and makes it this session's
        default.
    store:
        :class:`~repro.pipeline.artifacts.ArtifactStore` (or its root
        directory) used by :meth:`train` when saving to a store.
    executor:
        Task runtime for every fan-out (shards, dataset plans,
        variables, stream chunks and member decode): a mode name,
        ``"serial"`` / ``"thread"`` / ``"process"``, or a ready
        :class:`~repro.runtime.TaskRuntime` (which keeps its own
        width).  Held as :attr:`executor` and
        owned by the session — pools stay warm across calls; use the
        session as a context manager (or call :meth:`close`) to
        release them.
    workers:
        Pool-width upper bound (default: one per CPU, clamped to the
        work size).
    seed:
        Base seed for deterministic per-window/variable/chunk seeding.
    chunk_windows:
        Codec windows per chunk for iterator (streaming) sources.
    entropy_backend:
        Entropy-coder selection for every stream this session writes:
        ``"arithmetic"`` (the legacy default), ``"rans"``, ``"vrans"``
        (the vectorized fast path), or ``"trans"`` (table-cached LUT
        rANS — fastest decode, reuses tables across windows) — see
        :mod:`repro.entropy.backend`.  ``None`` selects
        ``"arithmetic"``.  Every job carries the selection into the
        threads and processes that run it, so concurrent jobs with
        different selections never change each other's output.
        Decoding never needs it: streams carry a backend tag, and
        untagged legacy streams decode via arithmetic.
    """

    def __init__(self, codec: Union[str, Codec, object, None] = None,
                 *, artifact: Optional[str] = None,
                 store: Union[ArtifactStore, str, os.PathLike,
                              None] = None,
                 executor: Union[str, TaskRuntime] = "thread",
                 workers: Optional[int] = None,
                 seed: int = 0, chunk_windows: int = 4,
                 entropy_backend: Optional[str] = None):
        self.seed = seed
        self.chunk_windows = chunk_windows
        self.entropy_backend = _entropy_name(entropy_backend,
                                             DEFAULT_ENTROPY)
        self.executor = as_runtime(executor, max_workers=workers)
        self.workers = self.executor.max_workers
        if store is not None and not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        self.store = store
        #: codec cache: registry name -> resolved (possibly trained)
        #: codec, shared by compress and decompress dispatch
        self._codecs: Dict[str, Codec] = {}
        self._default: Optional[Codec] = None
        self._default_name = DEFAULT_CODEC
        if artifact is not None:
            loaded = self._load_artifact_codec(
                artifact, expect=codec if isinstance(codec, str) else None)
            self._codecs[loaded.name] = loaded
            self._default = loaded
            self._default_name = loaded.name
        elif codec is not None:
            if isinstance(codec, str):
                self._default_name = codec
            else:
                self._default = as_codec(codec)
                self._default_name = self._default.name
                self._codecs[self._default_name] = self._default

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Release pooled executor resources.

        Idempotent and exception-safe by contract: double-close is a
        no-op, closing a partially-constructed session (``__init__``
        validates codec and entropy arguments *before* the executor
        exists) is a no-op, and a failing executor teardown never
        propagates — long-running owners (the compression service's
        shutdown path) call this from ``finally`` and must always
        complete.
        """
        executor = getattr(self, "executor", None)
        if executor is None:
            return
        try:
            executor.close()
        except Exception:  # pragma: no cover - backend-specific
            pass

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Session codec={self._default_name!r} "
                f"executor={self.executor.mode!r} "
                f"entropy={self.entropy_backend!r} seed={self.seed}>")

    # -- codec resolution ----------------------------------------------
    def _load_artifact_codec(self, artifact: str,
                             expect: Optional[str]) -> Codec:
        try:
            codec = Codec.load_artifact(artifact)
        except (OSError, ValueError, KeyError) as exc:
            raise SessionError(
                f"cannot load artifact {artifact!r}: {exc}") from None
        if expect and _codec_id(expect) not in (DEFAULT_CODEC, codec.name):
            raise SessionError(
                f"artifact {artifact!r} holds codec {codec.name!r}, "
                f"not {expect!r}")
        return codec

    def resolve_codec(self, codec: Union[str, Codec, object, None] = None
                      ) -> Codec:
        """Resolve a codec description against this session.

        ``None`` resolves the session default; a name goes through the
        registry (consulting the session's cache of trained codecs
        first); anything else is adopted via
        :func:`repro.codecs.as_codec`.  A learned codec that needs
        training (``"ours"`` included) resolves only from the
        session's ``artifact`` or a codec object; by name alone it
        raises with a pointer at the artifact workflow, before any
        model is built.
        """
        if codec is None:
            if self._default is not None:
                return self._default
            codec = self._default_name
        if not isinstance(codec, str):
            return as_codec(codec)
        cls = codec_class(codec)  # KeyError lists registered
        name = cls.codec_id
        cached = self._codecs.get(name)
        if cached is not None:
            return cached
        if cls.capabilities.needs_training:
            raise SessionError(
                f"codec {name!r} is learning-based; train it first "
                f"(repro train --codec {name}) and pass the saved "
                f"model with --codec-artifact")
        resolved = get_codec(name)
        self._codecs[name] = resolved
        return resolved

    # -- source resolution ---------------------------------------------
    @staticmethod
    def _dataset_spec(source: Union[str, DatasetSpec,
                                    SpatiotemporalDataset],
                      overrides: Optional[dict]) -> DatasetSpec:
        overrides = overrides or {}
        if isinstance(source, str):
            return get_dataset_spec(source, **overrides)
        if not isinstance(source, DatasetSpec):
            source = spec_of(source)
        return source.override(**overrides) if overrides else source

    def resolve_frames(self, source, variable: int = 0,
                       dataset_overrides: Optional[dict] = None):
        """``(frames, dataset_provenance)`` for an array or dataset.

        Arrays pass through (no provenance); dataset names / specs /
        instances generate one variable's frames and record the spec.
        """
        if isinstance(source, np.ndarray):
            return source, None
        if isinstance(source, (str, DatasetSpec, SpatiotemporalDataset)):
            spec = self._dataset_spec(source, dataset_overrides)
            return (spec.build().frames(variable),
                    dataclasses.asdict(spec))
        raise SessionError(
            f"cannot resolve frames from {type(source).__name__}; pass "
            f"a (T, H, W) array, a registered dataset name "
            f"({', '.join(list_datasets())}), or a DatasetSpec")

    # -- compress -------------------------------------------------------
    def compress(self, source, *,
                 codec: Union[str, Codec, object, None] = None,
                 bound: Optional[Bound] = None,
                 names: Optional[Sequence[str]] = None,
                 variables: Optional[Sequence[int]] = None,
                 shards: Optional[int] = None,
                 seed: Optional[int] = None,
                 label: Optional[str] = None,
                 chunk_windows: Optional[int] = None,
                 chunk_shards: Optional[int] = None,
                 dataset_overrides: Optional[dict] = None,
                 entropy_backend: Optional[str] = None) -> Archive:
        """Compress any supported source into an :class:`Archive`.

        Dispatch by source type:

        * ``(T, H, W)`` array — single codec pass (raw blob for the
          blob-native pipeline codec, tagged envelope otherwise); with
          ``shards=N`` the time axis splits into N slices and takes
          the stack-source path below, as one group of every shard
          (``label`` names the shards ``<label>/v0/t<t0>-<t1>``,
          default ``"stack"``);
        * ``.npy`` path / ``np.memmap`` / stack source — *out-of-core*
          sharded compression: frames stream through the engine in
          bounded groups of ``chunk_shards`` shards (default: as many
          as the runtime runs at once, one for a serial session), so
          peak RSS is O(chunk), not O(dataset), and the
          archive is byte-identical to compressing the same array
          in-memory with the same ``shards``/``label``/``seed``
          (``shards`` defaults to one shard per 16 frames);
        * registered dataset name / :class:`DatasetSpec` / dataset
          instance — an unjournaled :meth:`sweep` (``variables``,
          ``shards``, ``dataset_overrides``): workers rebuild codec +
          dataset from specs, so serial/thread/process archives are
          byte-identical;
        * mapping ``name -> (T, H, W)`` or ``(V, T, H, W)`` array —
          one engine task and one named member per variable (``names``
          labels the array form), decoded back to ``{name: array}``;
        * any other iterable of ``(H, W)`` frames — constant-memory
          streaming, one member per chunk of ``chunk_windows`` codec
          windows, keyed like shards (``label``); sealed chunks are
          compressed as many at a time as the runtime runs at once
          (one for a serial session), so at most that many are
          resident, and chunks that fall on the slices of ``shards=N``
          write the bytes ``compress(frames, shards=N)`` writes.

        Every source with more than one member is written as one shard
        archive (``kind == "shard"``).

        ``bound`` is a :class:`~repro.bound.Bound`; it applies per
        window/variable/chunk, each converted against its own data
        statistics.  ``entropy_backend`` overrides the session's
        entropy-coder selection for this call.
        """
        seed = self.seed if seed is None else seed
        entropy = _entropy_name(entropy_backend, self.entropy_backend)

        if isinstance(source, Mapping) or (
                isinstance(source, np.ndarray) and source.ndim == 4):
            return self._compress_multivar(source, codec, bound, names,
                                           seed, entropy)
        sharded_array = (isinstance(source, np.ndarray)
                         and source.ndim == 3
                         and shards is not None and shards > 1)
        if (sharded_array
                or isinstance(source, (NpyStackSource, ArrayStackSource,
                                       np.memmap, os.PathLike))
                or (isinstance(source, str)
                    and source.endswith(".npy"))):
            return self._compress_out_of_core(
                source, codec, bound, shards, seed, label,
                chunk_shards, entropy)
        if isinstance(source, (str, DatasetSpec, SpatiotemporalDataset)):
            return self.sweep(source, codec=codec, bound=bound,
                              variables=variables, shards=shards or 1,
                              seed=seed,
                              dataset_overrides=dataset_overrides,
                              entropy_backend=entropy)
        if isinstance(source, np.ndarray):
            if source.ndim != 3:
                raise SessionError(
                    f"expected a (T, H, W) or (V, T, H, W) array, got "
                    f"shape {source.shape}")
            return self._compress_stack(source, codec, bound, seed,
                                        entropy)
        if isinstance(source, Iterable):
            return self._compress_stream(source, codec, bound, seed,
                                         label, chunk_windows, entropy)
        raise SessionError(
            f"cannot compress {type(source).__name__}; pass an array, "
            f"a dataset name/spec, a variable mapping, or a frame "
            f"iterator")

    # per-source pipelines ------------------------------------------------
    @property
    def _group_width(self) -> int:
        """Parts a time-sliced source hands the engine per call: as
        many as the runtime runs at once, one when it runs inline."""
        return max(1, self.executor.pool_width(self.workers))

    def _engine(self, codec: Codec, seed: int, entropy: str,
                **kwargs) -> CodecEngine:
        return CodecEngine(codec, base_seed=seed, executor=self.executor,
                           entropy_backend=entropy, **kwargs)

    def _compress_stack(self, frames: np.ndarray, codec, bound,
                        seed: int, entropy: str) -> Archive:
        resolved = self.resolve_codec(codec)
        with using_backend(entropy):
            result = resolved.compress_bounded(frames, bound=bound,
                                               seed=seed)
        # blob-native codecs write their raw wire format (the legacy
        # single-file layout); everything else gets a tagged envelope
        if result.blob is not None:
            data, kind = result.payload, "blob"
        else:
            data, kind = pack_envelope(resolved.name,
                                       result.payload), "envelope"
        return Archive(data, kind, stats={
            "codec": resolved.name, "ratio": result.ratio,
            "nrmse": result.achieved_nrmse, "bytes": len(data)})

    def _pack(self, codec: Codec, rows, results, wall_seconds: float,
              **stats) -> Archive:
        """The one multi-member writer: a shard archive holding, per
        ``(key, variable, t0, t1)`` row, the codec envelope of the
        matching result's payload.  ``stats`` adds per-source keys to
        the Eq. 11 ratio, worst NRMSE and timing every such archive
        reports."""
        entries = [ShardEntry(shard_id=key, variable=var, t0=t0, t1=t1,
                              payload=pack_envelope(codec.name,
                                                    r.payload))
                   for (key, var, t0, t1), r in zip(rows, results)]
        data = pack_shard_archive(entries)
        acc = sum((r.accounting for r in results),
                  CompressionAccounting(0, 0, 0))
        return Archive(data, "shard", stats={
            "codec": codec.name, "ratio": acc.ratio,
            "nrmse": max(r.achieved_nrmse for r in results),
            "bytes": len(data), "shards": len(entries),
            "executor": self.executor.mode,
            "wall_seconds": wall_seconds, **stats})

    def _compress_out_of_core(self, src, codec, bound, shards, seed,
                              label, chunk_shards,
                              entropy: str) -> Archive:
        """Sharded compression of a stack source: a file, a memmap or
        an in-memory array.

        The time axis splits into ``shards`` slices, which materialize
        in groups of ``chunk_shards``: each group's frames are read,
        compressed (with the group's global shard indexes driving the
        engine's seeding via ``first_index``) and dropped before the
        next group loads, so peak RSS tracks the group size for files
        and memmaps.  A resident array needs no bounded groups, so its
        default group is every shard (one fan-out), and a C-contiguous
        one reaches the engine as read-only views, not copies (see
        :class:`ArrayStackSource`).  Reconstructions are never
        retained, and the archive does not depend on the grouping.
        """
        try:
            source = as_stack_source(src)
        except (ValueError, OSError, KeyError) as exc:
            raise SessionError(
                f"cannot open stack source "
                f"{getattr(src, 'path', src)!r}: {exc}") from None
        resolved = self.resolve_codec(codec)
        if shards is None:
            shards = max(1, -(-source.t // 16))
        slices = time_slices(source.t, shards=shards)
        resident = (isinstance(src, np.ndarray)
                    and not isinstance(src, np.memmap))
        if chunk_shards is None:
            chunk_shards = len(slices) if resident else self._group_width
        if chunk_shards < 1:
            raise SessionError("chunk_shards must be >= 1")
        slices, results, wall = self._compress_groups(
            self._engine(resolved, seed, entropy),
            ((a, source.read(a, b)) for a, b in slices), chunk_shards,
            bound)
        return self._pack(resolved, _stack_rows(label, slices), results,
                          wall, chunk_shards=chunk_shards)

    @staticmethod
    def _compress_groups(engine: CodecEngine, parts: Iterable, group: int,
                         bound) -> tuple:
        """The group loop of every time-sliced source.

        ``parts`` yields ``(t0, frames)`` in time order.  They are
        compressed ``group`` at a time, part ``i`` as window ``i`` of
        the engine's seeding (via ``first_index``), and each group is
        dropped before the next one is drawn, so at most ``group``
        stacks are resident.  Returns ``(slices, results,
        wall_seconds)``.
        """
        parts = iter(parts)
        slices, results, wall = [], [], 0.0
        while True:
            batch = list(itertools.islice(parts, group))
            if not batch:
                return slices, results, wall
            part = engine.compress([f for _, f in batch], bound=bound,
                                   keep_reconstruction=False,
                                   first_index=len(results))
            slices.extend((t0, t0 + len(f)) for t0, f in batch)
            results.extend(part.results)
            wall += part.wall_seconds
            del batch, part

    # -- resumable sweeps ------------------------------------------------
    def sweep(self, dataset, *,
              codec: Union[str, Codec, object, None] = None,
              bound: Optional[Bound] = None,
              variables: Optional[Sequence[int]] = None,
              shards: Optional[int] = None,
              window: Optional[int] = None,
              seed: Optional[int] = None,
              journal: Union[str, os.PathLike, None] = None,
              resume: bool = True,
              dataset_overrides: Optional[dict] = None,
              entropy_backend: Optional[str] = None,
              on_event=None) -> Archive:
        """Journaled, resumable shard sweep over a registered dataset.

        ``compress(dataset, ...)`` is this method with
        ``journal=None``.  ``journal=path`` makes the sweep
        **crash-safe** — every completed shard is durably recorded
        (fsynced JSONL line + content-addressed payload object under
        ``<journal>.objects/``) the moment it finishes, and a rerun
        pointed at the same journal replays completed shards and
        recomputes only the missing ones.  The resumed archive is
        byte-identical to an uninterrupted run.

        The journal is fingerprinted over the sweep's canonical facts
        (:meth:`sweep_facts`); reusing a journal
        with different parameters, or one written in another payload
        format, raises :class:`SessionError` instead of silently
        mixing results.  ``resume=False`` refuses a journal that
        already has completed shards (the CLI's default until
        ``--resume``).

        ``window=W`` slices the time axis into fixed-width windows
        (last one short) instead of ``shards=N`` near-equal parts;
        give one or the other.  ``on_event`` observes runtime
        :class:`~repro.runtime.TaskEvent`s (progress reporting, fault
        injection in tests).
        """
        base_seed = self.seed if seed is None else seed
        entropy = _entropy_name(entropy_backend, self.entropy_backend)
        resolved = self.resolve_codec(codec)
        spec = self._dataset_spec(dataset, dataset_overrides)
        try:
            plan: ShardPlan = plan_shards(spec, variables=variables,
                                          shards=shards, window=window,
                                          base_seed=base_seed)
        except ValueError as exc:
            raise SessionError(str(exc)) from None

        jr = None
        if journal is not None:
            facts = self.sweep_facts(spec, codec=codec, bound=bound,
                                     variables=variables, shards=shards,
                                     window=window, seed=seed,
                                     entropy_backend=entropy_backend)
            try:
                jr = SweepJournal(journal,
                                  fingerprint=facts_fingerprint(facts))
            except JournalError as exc:
                raise SessionError(str(exc)) from None
            if len(jr) and not resume:
                done = len(jr)
                jr.close()
                raise SessionError(
                    f"journal {os.fspath(journal)} already records "
                    f"{done} completed shard(s); resume it "
                    f"(resume=True / --resume) or point the sweep at "
                    f"a fresh journal path")

        engine = self._engine(resolved, base_seed, entropy)
        try:
            batch = engine.compress_plan(plan, bound=bound,
                                         keep_reconstruction=False,
                                         journal=jr, on_event=on_event)
        finally:
            if jr is not None:
                jr.close()
        rows = [(t.shard_id, t.variable, t.t0, t.t1) for t in plan]
        archive = self._pack(resolved, rows, batch.results,
                             batch.wall_seconds,
                             resumed_shards=batch.replayed,
                             computed_shards=len(rows) - batch.replayed)
        if journal is not None:
            archive.stats["journal"] = os.fspath(journal)
        return archive

    def sweep_facts(self, spec: DatasetSpec, *,
                    codec: Union[str, Codec, object, None] = None,
                    bound: Optional[Bound] = None,
                    variables: Optional[Sequence[int]] = None,
                    shards: Optional[int] = None,
                    window: Optional[int] = None,
                    seed: Optional[int] = None,
                    entropy_backend: Optional[str] = None) -> dict:
        """The resolved facts a :meth:`sweep`'s archive bytes depend on:
        dataset spec, codec spec, bound, entropy backend, integer
        payload format, seed, shard grid and variables, and for
        ``ours`` the blob version.  ``spec`` is the sweep's dataset;
        the other arguments are :meth:`sweep`'s, as given.  Two
        spellings of one sweep give equal facts.  A sweep journal is
        fingerprinted over them, and the service keys cached compress
        results on them.  A codec without a portable spec (wrapped or
        trained in memory) is named by its registry name."""
        resolved = self.resolve_codec(codec)
        try:
            codec_spec = resolved.to_spec()
        except TypeError:
            codec_spec = {"codec": resolved.name}
        if window is None and shards is None:
            shards = 1       # the whole time axis is one shard
        facts = {"dataset": dataclasses.asdict(spec),
                 "codec": codec_spec,
                 "bound": (None if check_bound(bound) is None
                           else [bound.kind, bound.value]),
                 "entropy_backend": _entropy_name(entropy_backend,
                                                  self.entropy_backend),
                 "payload_format": PAYLOAD_FORMAT,
                 "seed": self.seed if seed is None else seed,
                 "shards": shards, "window": window,
                 "variables": (None if variables is None
                               else list(variables))}
        if resolved.name == DEFAULT_CODEC:
            # a journal of v2 blobs (which ran the model's whole
            # schedule) must not resume into a v4 archive
            facts["blob_version"] = BLOB_VERSION
        return facts

    def _compress_multivar(self, data, codec, bound, names, seed,
                           entropy: str) -> Archive:
        """One named member per variable: key = name, ``variable`` =
        position, ``t0 == t1 == 0``; variable ``i`` is seeded ``seed +
        VAR_SEED_STRIDE * i``."""
        resolved = self.resolve_codec(codec)
        stacks = variable_stacks(data, names)
        if not stacks:
            raise SessionError("no variables to compress")
        batch = self._engine(resolved, seed, entropy,
                             seed_stride=VAR_SEED_STRIDE).compress(
            list(stacks.values()), bound=bound,
            keep_reconstruction=False)
        rows = [(name, i, 0, 0) for i, name in enumerate(stacks)]
        return self._pack(resolved, rows, batch.results,
                          batch.wall_seconds, variables=list(stacks))

    def _compress_stream(self, frames, codec, bound, seed, label,
                         chunk_windows, entropy: str) -> Archive:
        """One member per sealed chunk of ``chunk_windows`` codec
        windows (see :func:`~repro.pipeline.sources.stream_chunks`),
        keyed and seeded like the shards of a stack; chunks are
        compressed :attr:`_group_width` at a time, so at most that many
        sealed chunks are resident, plus the chunk being filled."""
        if chunk_windows is None:
            chunk_windows = self.chunk_windows
        if chunk_windows < 1:
            raise SessionError("chunk_windows must be >= 1")
        resolved = self.resolve_codec(codec)
        window = max(resolved.window, resolved.min_frames, 1)
        slices, results, wall = self._compress_groups(
            self._engine(resolved, seed, entropy),
            stream_chunks(frames, window, chunk_windows * window),
            self._group_width, bound)
        return self._pack(resolved, _stack_rows(label, slices), results,
                          wall, chunks=len(slices), frames=slices[-1][1])

    # -- decompress -----------------------------------------------------
    def decompress(self, source, *,
                   expect_codec: Optional[str] = None,
                   select=None):
        """Reconstruct any :class:`Archive` (or path / bytes).

        A bare member (blob / envelope) decodes to its ``(T, H, W)``
        stack.  Every other archive decodes through its member index:
        index → select → read and verify → decode → assemble.  Timed
        members are stitched via their recorded geometry into
        ``(T, H, W)`` (one variable) or ``(V, T, H, W)``; named
        members (a variable mapping) come back as ``{name: array}``.
        Every member read is checksum-verified, so a damaged member
        raises :class:`ArchiveIndexError` rather than decoding into a
        wrong array.  Codecs are resolved from the streams themselves
        through the session (so trained state loaded via
        ``artifact`` is picked up); with ``expect_codec`` a
        mismatching stream raises instead.

        ``select`` turns this into a *partial* decode that touches
        only the selected members (an indexed archive opened from a
        path reads O(footer + selected members) bytes): a member key
        (``"stack/v0/t0000-0008"``, or a variable name), a variable
        number (a mapping's variables count by position), a
        ``slice(t0, t1)`` time range (frames outside selected members
        are trimmed exactly; named members span no time), or a
        sequence of keys / variable numbers.

        Members decode in parallel on the session's runtime,
        byte-identical to a serial decode of the same members.
        """
        archive = Archive.open(source)
        if archive.kind in _BARE_KINDS:
            if select is not None:
                raise SessionError(
                    f"select= needs a multi-part archive; this archive "
                    f"is {archive.kind!r}")
            named = [archive.envelope() if archive.kind == "envelope"
                     else (None, archive.data)]
            return self._decode_member_payloads(named, expect_codec,
                                                context="stream")[0]
        members = archive.index()
        if not members:
            raise SessionError("empty archive")
        is_named = {m.t1 == 0 for m in members}
        if len(is_named) > 1:
            raise ArchiveIndexError("archive mixes named members (no "
                                    "time range) with timed ones")
        window = (0, max(m.t1 for m in members))
        if select is not None:
            members, window = self._select_members(members, select)
        arrays = self._decode_member_payloads(
            self._read_members(archive, members), expect_codec,
            context="archive member")
        if is_named == {True}:
            return {m.key: arr for m, arr in zip(members, arrays)}
        entries = [ShardEntry(shard_id=m.key, variable=m.variable,
                              t0=m.t0, t1=m.t1, payload=b"")
                   for m in members]
        t0, t1 = window if window is not None else (None, None)
        return assemble_window(entries, arrays, t0=t0, t1=t1)

    @staticmethod
    def _check_expected(name: str, expect: Optional[str],
                        message: str) -> None:
        if expect and _codec_id(expect) != _codec_id(name):
            raise SessionError(message)

    # -- partial / parallel member decode -------------------------------
    @staticmethod
    def _select_members(members: List[MemberIndex], select):
        """Resolve a selector into ``(members, (t0, t1) | None)``.

        Accepts a member key, a variable number, a ``slice`` time
        range, or a sequence mixing keys and variables.  The returned
        window is non-None only for time-range selects (callers trim
        member overhang to it exactly).
        """
        if isinstance(select, slice):
            if select.step not in (None, 1):
                raise SessionError("select= time ranges must have "
                                   "step 1")
            t_max = max(m.t1 for m in members)
            t0 = 0 if select.start is None else int(select.start)
            t1 = t_max if select.stop is None else int(select.stop)
            if t0 < 0:
                t0 += t_max
            if t1 < 0:
                t1 += t_max
            t0, t1 = max(t0, 0), min(t1, t_max)
            if t0 >= t1:
                raise SessionError(
                    f"empty time range [{t0}, {t1}) (archive spans "
                    f"[0, {t_max}))")
            hits = [m for m in members if m.t0 < t1 and m.t1 > t0]
            return hits, (t0, t1)
        if isinstance(select, (int, np.integer)):
            hits = [m for m in members if m.variable == int(select)]
            if not hits:
                known = sorted({m.variable for m in members})
                raise SessionError(
                    f"no members for variable {int(select)}; archive "
                    f"holds variables {known}")
            return hits, None
        if isinstance(select, str):
            hits = [m for m in members if m.key == select]
            if not hits:
                keys = [m.key for m in members]
                raise SessionError(
                    f"no member {select!r}; archive holds {keys}")
            return hits, None
        if isinstance(select, Sequence):
            picked: Dict[str, MemberIndex] = {}
            for sel in select:
                hits, _ = Session._select_members(members, sel)
                for m in hits:
                    picked[m.key] = m
            ordered = [m for m in members if m.key in picked]
            return ordered, None
        raise SessionError(
            f"cannot select members with {type(select).__name__}; pass "
            f"a member key, a variable number, a slice, or a sequence "
            f"of those")

    def _decode_member_payloads(self, named: List, expect: Optional[str],
                                context: str) -> List[np.ndarray]:
        """Decode ``(codec_name | None, payload)`` pairs, fanned out
        per codec on the session executor.

        ``None`` names a raw pipeline blob (decoded by the session's
        ``"ours"`` codec); a name no codec is registered under raises
        :class:`SessionError`.  Grouping preserves input order in the
        returned arrays.  Backends that need spec-portable codecs
        (process pools) fall back to in-process decode when the codec
        cannot be shipped — the session's executor choice must never
        make a readable archive unreadable.
        """
        groups: Dict[Optional[str], List[int]] = {}
        for i, (name, _) in enumerate(named):
            self._check_expected(
                name or DEFAULT_CODEC, expect,
                f"{context} was written by codec "
                f"{(name or DEFAULT_CODEC)!r}, not {expect!r}")
            groups.setdefault(name, []).append(i)
        out: List[Optional[np.ndarray]] = [None] * len(named)
        for name, idxs in groups.items():
            try:
                codec = self.resolve_codec(name or DEFAULT_CODEC)
            except KeyError:
                raise SessionError(
                    f"{context} was written by codec {name!r}, which "
                    f"is not registered") from None
            payloads = [named[i][1] for i in idxs]
            if len(payloads) == 1:
                arrays = [codec.decompress(payloads[0])]
            else:
                try:
                    engine = CodecEngine(codec, executor=self.executor)
                    arrays = engine.decompress(payloads)
                except TypeError:
                    arrays = [codec.decompress(p) for p in payloads]
            for i, arr in zip(idxs, arrays):
                out[i] = arr
        return out

    @staticmethod
    def _read_members(archive: Archive, members: List[MemberIndex]
                      ) -> List[tuple]:
        """Each member's ``(codec_name | None, payload)``, read and
        checksum-verified one at a time, as
        :meth:`_decode_member_payloads` takes them."""
        return [(name, payload) for _, name, payload
                in read_members(archive.reader(), members)]

    # -- train ----------------------------------------------------------
    def train(self, codec: str, source, *, save=None,
              variable: int = 0,
              dataset_overrides: Optional[dict] = None,
              preset: str = "tiny",
              vae_iters: int = 300, diffusion_iters: int = 800,
              sr_iters: int = 100, finetune_iters: int = 0,
              lam: float = 1e-6, train_fraction: float = 0.5,
              stride: int = 1, window: int = 6, corrector: bool = True,
              seed: Optional[int] = None, log=None):
        """Train any trainable codec and persist a portable artifact.

        ``source`` is a ``(T, H, W)`` array or a dataset name/spec
        (``variable``, ``dataset_overrides`` select what to generate);
        ``save`` is the artifact path — or ``None`` to use the
        session's :class:`~repro.pipeline.artifacts.ArtifactStore`.
        Family-specific iteration kwargs are mapped onto each codec's
        ``train()`` signature (the shared CLI vocabulary).  Returns
        ``(trained_codec, manifest_or_store_key)``.
        """
        seed = self.seed if seed is None else seed
        log = log or (lambda *_: None)
        if save is None and self.store is None:
            raise SessionError("give save=... or configure the session "
                               "with an ArtifactStore")
        frames, dataset_meta = self.resolve_frames(
            source, variable=variable,
            dataset_overrides=dataset_overrides)
        frames = np.asarray(frames)
        if frames.ndim != 3:
            raise SessionError(f"expected a (T, H, W) array, got "
                               f"{frames.shape}")
        if codec == DEFAULT_CODEC:
            return self._train_ours(frames, dataset_meta, save, preset,
                                    vae_iters, diffusion_iters,
                                    finetune_iters, lam, train_fraction,
                                    stride, seed, log)
        return self._train_learned(codec, frames, dataset_meta, save,
                                   vae_iters, diffusion_iters, sr_iters,
                                   lam, train_fraction, stride, window,
                                   corrector, seed, log)

    def _train_ours(self, frames, dataset_meta, save, preset, vae_iters,
                    diffusion_iters, finetune_iters, lam,
                    train_fraction, stride, seed, log):
        """The paper's two-stage latent-diffusion training protocol."""
        from .config import small, tiny
        from .pipeline.training import TrainingConfig, TwoStageTrainer
        presets = {"tiny": tiny, "small": small}
        cfg = presets[preset]()
        train, _ = train_test_windows(frames,
                                      window=cfg.pipeline.window,
                                      train_fraction=train_fraction,
                                      stride=stride)
        tc = TrainingConfig(vae_iters=vae_iters,
                            diffusion_iters=diffusion_iters,
                            finetune_iters=finetune_iters, lam=lam)
        trainer = TwoStageTrainer(cfg, tc, seed=seed)
        log(f"stage 1: VAE ({tc.vae_iters} iters) ...")
        trainer.train_vae(train)
        log(f"stage 2: diffusion ({tc.diffusion_iters} iters) ...")
        trainer.train_diffusion(train)
        if tc.finetune_iters:
            log(f"fine-tuning to {cfg.diffusion.finetune_steps} "
                f"steps ...")
            trainer.finetune_diffusion(train)
        # build (and corrector-fit) the deployable compressor once,
        # then persist that same codec with the trainer's provenance
        trained = LatentDiffusionCodec(
            compressor=trainer.build_compressor(train))
        training_meta = {**dataclasses.asdict(trainer.train_cfg),
                         "seed": trainer.seed}
        if save is not None:
            manifest = save_artifact(save, trained,
                                     training=training_meta,
                                     dataset=dataset_meta)
        else:
            manifest = self.store.put(trained, training=training_meta,
                                      dataset=dataset_meta)
        self._codecs[DEFAULT_CODEC] = trained
        return trained, manifest

    def _train_learned(self, name, frames, dataset_meta, save,
                       vae_iters, diffusion_iters, sr_iters, lam,
                       train_fraction, stride, window, corrector, seed,
                       log):
        """Generalized training path for the learned baseline codecs."""
        try:
            codec = get_codec(name, seed=seed)
        except TypeError:
            raise SessionError(
                f"codec {name!r} is model-free; there is nothing to "
                f"train") from None
        if not codec.capabilities.needs_training:
            raise SessionError(
                f"codec {name!r} is model-free; there is nothing to "
                f"train")
        window = codec.window if codec.window > 1 else window
        train, _ = train_test_windows(frames, window=window,
                                      train_fraction=train_fraction,
                                      stride=stride)
        # map the shared vocabulary onto each family's train() kwargs
        candidates = {"vae_iters": vae_iters,
                      "diffusion_iters": diffusion_iters,
                      "sr_iters": sr_iters, "lam": lam}
        accepted = inspect.signature(codec.impl.train).parameters
        kwargs = {k: v for k, v in candidates.items() if k in accepted}
        pretty = ", ".join(f"{k}={v}" for k, v in sorted(kwargs.items()))
        log(f"training {name} on {len(train)} windows "
            f"({window} frames each): {pretty} ...")
        codec.train(train, **kwargs)
        if corrector:
            log("fitting error-bound corrector ...")
            codec.fit_corrector(train)
        training_meta = {**kwargs, "seed": seed, "window": window,
                         "corrector": bool(corrector)}
        if save is not None:
            manifest = save_artifact(save, codec, training=training_meta,
                                     dataset=dataset_meta)
        else:
            manifest = self.store.put(codec, training=training_meta,
                                      dataset=dataset_meta)
        self._codecs[codec.name] = codec
        return codec, manifest

    # -- info -----------------------------------------------------------
    def info(self, path: Union[str, os.PathLike]) -> dict:
        """Inspect a compressed container or a model ``.npz``.

        Returns ``{"kind": ..., ...}`` — an archive's
        :meth:`Archive.describe` output, or ``kind="artifact"`` with
        the provenance manifest.  Any other ``.npz`` raises
        :class:`SessionError`.
        """
        path = os.fspath(path)
        with open(path, "rb") as fh:
            head = fh.read(4)
        if head != _NPZ_MAGIC:
            # lazy open: indexed archives describe themselves from
            # header + footer reads without slurping the body
            return Archive.open(path).describe()
        if is_artifact(path):
            return {"kind": "artifact", "manifest": read_manifest(path)}
        raise SessionError(f"{path!r} is a .npz file but not a model "
                           f"artifact (no manifest)")
