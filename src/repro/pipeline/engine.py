"""Batched parallel execution engine for registered codecs.

Scientific archives hold many independent windows/variables; their
compression is embarrassingly parallel.  :class:`CodecEngine` runs any
:class:`~repro.codecs.base.Codec` over a batch of frame stacks — or a
:class:`~repro.pipeline.plan.ShardPlan` of dataset-backed shard tasks —
through one :class:`~repro.runtime.TaskRuntime` (``serial`` /
``thread`` / ``process`` mode), while guaranteeing:

* **deterministic per-window seeding** — stack ``i`` always gets seed
  ``base_seed + seed_stride * i`` (plan-backed shards carry their own
  planner-assigned seeds), independent of scheduling order or backend;
* **bit-identical results across backends** — outputs are keyed by
  index and every codec's compress path is free of shared mutable
  state; process workers rebuild codec and dataset from picklable
  specs whose construction is deterministic (trained codecs restore
  their state from the artifact referenced by the spec — see
  :mod:`repro.pipeline.artifacts`), so all three backends produce
  byte-for-byte the same streams;
* **per-window timing and accounting aggregation** — each
  :class:`WindowReport` carries its wall time and the
  :class:`BatchResult` sums Eq. 11 accounting across the batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from ..bound import Bound
from ..entropy.backend import (DEFAULT_BACKEND, get_backend,
                              using_backend)
from ..metrics import CompressionAccounting
from ..runtime import Task, TaskRuntime, as_runtime

__all__ = ["CodecEngine", "BatchResult", "WindowReport"]

#: Default per-window seed stride (prime, matches the historical
#: window-parallel seeding so archives stay reproducible).
SEED_STRIDE = 7919
#: Per-variable seed stride of a mapping archive (prime; historical
#: value kept so archives produced by older revisions stay
#: reproducible).
VAR_SEED_STRIDE = 104729


@dataclass
class WindowReport:
    """Per-window outcome: result plus scheduling/timing metadata."""

    index: int
    seed: int
    seconds: float
    result: "object"  # CodecResult (duck-typed to avoid an import cycle)
    #: planner-assigned stable ID when the window came from a ShardPlan
    shard_id: Optional[str] = None


@dataclass
class BatchResult:
    """Ordered window reports plus batch-level aggregation."""

    reports: List[WindowReport] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: windows restored from a sweep journal instead of recomputed
    replayed: int = 0

    @property
    def results(self) -> List["object"]:
        return [r.result for r in self.reports]

    def accounting(self) -> CompressionAccounting:
        """Eq. 11 summed over every window of the batch."""
        total = CompressionAccounting(0, 0, 0)
        for r in self.reports:
            total = total + r.result.accounting
        return total

    @property
    def ratio(self) -> float:
        return self.accounting().ratio

    def worst_nrmse(self) -> float:
        return max(r.result.achieved_nrmse for r in self.reports)

    @property
    def cpu_seconds(self) -> float:
        """Summed per-window time (== wall time for serial runs)."""
        return sum(r.seconds for r in self.reports)

    @property
    def speedup(self) -> float:
        """Aggregate per-window time over wall-clock.

        Upper-bound proxy for parallel efficiency: per-window clocks
        include time spent waiting on the GIL under contention, so for
        GIL-heavy codecs this overestimates the true wall-clock gain —
        compare wall_seconds against a serial run for an honest number.
        """
        return self.cpu_seconds / max(self.wall_seconds, 1e-12)


# ----------------------------------------------------------------------
# Worker-side machinery.  Module-level (not closures) so process-pool
# backends can pickle the function and its arguments.
# ----------------------------------------------------------------------
@dataclass
class _WindowJob:
    """Everything one worker needs to compress one window."""

    index: int
    seed: int
    #: a live Codec, or its spec dict for a process pool (set by
    #: :meth:`CodecEngine._execute` once the batch size is known)
    codec_ref: Any = None
    #: materialized frames, or None when ``source`` generates them
    stack: Optional[np.ndarray] = None
    #: object with ``materialize() -> ndarray`` (a ShardTask)
    source: Any = None
    shard_id: Optional[str] = None
    #: picklable :class:`Bound` the worker converts against its own
    #: stack (matching serial semantics)
    bound: Optional[Bound] = None
    keep_reconstruction: bool = True
    #: entropy-backend name the worker scopes around the compress call
    #: (the selection is per thread, so it rides in the job)
    entropy_backend: str = DEFAULT_BACKEND


@dataclass
class _DecodeJob:
    codec_ref: Any
    payload: bytes


#: per-process cache of codecs rebuilt from specs (keyed by spec repr),
#: so a worker builds each codec once per sweep, not once per window.
_SPEC_CACHE: Dict[str, Any] = {}


def _resolve_codec(ref):
    """Turn a job's codec reference back into a live codec."""
    from ..codecs import Codec, codec_from_spec
    if isinstance(ref, Codec):
        return ref
    key = repr(sorted(ref.items()))
    codec = _SPEC_CACHE.get(key)
    if codec is None:
        codec = codec_from_spec(ref)
        _SPEC_CACHE[key] = codec
    return codec


def _run_window_job(job: _WindowJob) -> WindowReport:
    codec = _resolve_codec(job.codec_ref)
    stack = job.stack if job.stack is not None else job.source.materialize()
    stack = np.asarray(stack)
    t0 = time.perf_counter()
    with using_backend(job.entropy_backend):
        res = codec.compress_bounded(stack, bound=job.bound, seed=job.seed)
    if not job.keep_reconstruction:
        res.payload  # force lazy serialization before detail is dropped
        res.reconstruction = None
        res.detail = None
    return WindowReport(index=job.index, seed=job.seed,
                        seconds=time.perf_counter() - t0,
                        result=res, shard_id=job.shard_id)


def _run_decode_job(job: _DecodeJob) -> np.ndarray:
    return _resolve_codec(job.codec_ref).decompress(job.payload)


# ----------------------------------------------------------------------
# Sweep-journal support: recording completed windows and rebuilding
# reports from journaled payloads on resume.
# ----------------------------------------------------------------------
@dataclass
class _ReplayedResult:
    """CodecResult stand-in rebuilt from a journal entry.

    Carries exactly what downstream consumers (archive packing, batch
    accounting) read from a fresh result: the payload bytes, Eq. 11
    accounting, and the achieved NRMSE.  Reconstructions are never
    journaled, so replay implies ``keep_reconstruction=False``.
    """

    payload: bytes
    accounting: CompressionAccounting
    achieved_nrmse: float
    reconstruction: Any = None
    detail: Any = None


def _journal_task_id(job: _WindowJob) -> str:
    return job.shard_id or f"window/{job.index}"


def _journal_meta(report: WindowReport) -> Dict[str, Any]:
    acc = report.result.accounting
    return {"index": report.index,
            "seed": report.seed,
            "seconds": report.seconds,
            "original_bytes": int(acc.original_bytes),
            "latent_bytes": int(acc.latent_bytes),
            "guarantee_bytes": int(acc.guarantee_bytes),
            "nrmse": float(report.result.achieved_nrmse)}


def _replayed_report(job: _WindowJob, meta: Dict[str, Any],
                     payload: bytes) -> WindowReport:
    acc = CompressionAccounting(
        original_bytes=int(meta.get("original_bytes", 0)),
        latent_bytes=int(meta.get("latent_bytes", len(payload))),
        guarantee_bytes=int(meta.get("guarantee_bytes", 0)))
    result = _ReplayedResult(payload=payload, accounting=acc,
                             achieved_nrmse=float(meta.get("nrmse", 0.0)))
    return WindowReport(index=job.index, seed=job.seed,
                        seconds=float(meta.get("seconds", 0.0)),
                        result=result, shard_id=job.shard_id)


class CodecEngine:
    """Run one codec over batches of independent frame stacks.

    Parameters
    ----------
    codec:
        Any :class:`~repro.codecs.base.Codec` — or anything
        :func:`repro.codecs.as_codec` accepts (a registry name, a
        trained ``LatentDiffusionCompressor``, a native baseline).
    max_workers:
        Pool-width upper bound; defaults to ``os.cpu_count()`` and is
        clamped to the number of windows/shards at execution time.
    base_seed, seed_stride:
        Stack ``i`` compresses with ``base_seed + seed_stride * i``
        (:meth:`compress_plan` uses the planner's per-shard seeds
        instead).
    executor:
        Runtime mode (``"serial"`` / ``"thread"`` / ``"process"``) or a
        ready :class:`~repro.runtime.TaskRuntime` (which then carries
        its own ``max_workers``); held as :attr:`executor`.  Process
        mode ships codec specs that workers rebuild.
    entropy_backend:
        Entropy-coder selection scoped around every compress call
        (``None``: the calling thread's selection when the batch is
        submitted).  Rides inside each job, so pool workers apply it
        too and archives stay byte-identical across executor backends.
    """

    def __init__(self, codec, max_workers: Optional[int] = None,
                 base_seed: int = 0, seed_stride: int = SEED_STRIDE,
                 executor: Union[str, TaskRuntime] = "thread",
                 entropy_backend: Optional[str] = None):
        from ..codecs import as_codec  # local: codecs imports pipeline
        self.codec = as_codec(codec)
        self.executor = as_runtime(executor, max_workers=max_workers)
        self.max_workers = self.executor.max_workers
        self.base_seed = base_seed
        self.seed_stride = seed_stride
        self.entropy_backend = (None if entropy_backend is None
                                else get_backend(entropy_backend).name)

    # ------------------------------------------------------------------
    def seed_for(self, index: int) -> int:
        return self.base_seed + self.seed_stride * index

    def _codec_ref(self, count: int):
        """The codec as a batch of ``count`` jobs wants it shipped:
        process-pool workers rebuild it from a picklable spec, and a
        batch the runtime runs inline gets the live codec.  A process
        runtime builds the spec either way, so a codec that cannot ship
        is refused whatever the batch size."""
        if self.executor.mode != "process":
            return self.codec
        try:
            spec = self.codec.to_spec()
        except TypeError as exc:
            raise TypeError(
                f"codec {self.codec.name!r} cannot be shipped to a "
                f"{self.executor.mode!r} executor ({exc}); save "
                f"trained state to an artifact (Codec.save_artifact) "
                f"first, or use the serial or thread backend for "
                f"stateful codecs"
            ) from None
        return spec if self.executor.pool_width(count) else self.codec

    def _execute(self, jobs: List[_WindowJob], journal=None,
                 on_event=None) -> BatchResult:
        t0 = time.perf_counter()
        by_index: Dict[int, WindowReport] = {}
        replayed = 0
        pending: List[_WindowJob] = []
        completed = journal.completed() if journal is not None else {}
        for job in jobs:
            entry = completed.get(_journal_task_id(job))
            if entry is not None and int(entry.meta.get("seed", -1)) == job.seed:
                payload = journal.payload(entry)
                if payload is not None:
                    by_index[job.index] = _replayed_report(
                        job, entry.meta, payload)
                    replayed += 1
                    continue
            # damaged object / seed drift / never completed: recompute
            pending.append(job)
        ref = self._codec_ref(len(pending))
        remaining: List[Task] = []
        for job in pending:
            job.codec_ref = ref
            remaining.append(Task(task_id=_journal_task_id(job),
                                  fn=_run_window_job, payload=job,
                                  index=job.index, seed=job.seed))

        def _record(outcome) -> None:
            report: WindowReport = outcome.value
            if journal is not None:
                journal.record(outcome.task_id, report.result.payload,
                               _journal_meta(report))
            by_index[report.index] = report

        self.executor.run(remaining, on_result=_record, on_event=on_event)
        reports = [by_index[job.index] for job in jobs]
        return BatchResult(reports=reports,
                           wall_seconds=time.perf_counter() - t0,
                           replayed=replayed)

    # ------------------------------------------------------------------
    def compress(self, stacks: Sequence[np.ndarray],
                 bound: Optional[Bound] = None,
                 keep_reconstruction: bool = True,
                 first_index: int = 0,
                 journal=None, on_event=None) -> BatchResult:
        """Compress every stack; bounds apply per stack.

        ``bound`` is a :class:`~repro.bound.Bound`, converted per stack
        via :meth:`Codec.native_bound` (an NRMSE target uses each
        stack's own range, matching the serial pipeline); a
        codec-native float goes to :meth:`Codec.compress` directly.
        ``keep_reconstruction=False`` drops reconstructions (and
        codec-native detail objects) from the reports once payloads and
        metrics are computed — essential for large sweeps and for
        process backends, where reconstructions would otherwise be
        pickled back to the parent for nothing.
        ``first_index`` offsets window numbering (stack ``j`` of this
        call is window ``first_index + j`` for seeding and report
        indexes), which is how chunked ingestion feeds a long stack
        sequence through several bounded calls while producing streams
        byte-identical to one big call.
        ``journal`` (a :class:`~repro.runtime.SweepJournal`) makes the
        batch resumable: windows whose journal entry verifies are
        replayed instead of recomputed, fresh completions are recorded
        durably before their ``completed`` event fires.  ``on_event``
        observes runtime :class:`~repro.runtime.TaskEvent`s.
        """
        backend = get_backend(self.entropy_backend).name
        jobs = [_WindowJob(index=first_index + j,
                           seed=self.seed_for(first_index + j),
                           stack=np.asarray(stack), bound=bound,
                           keep_reconstruction=keep_reconstruction,
                           entropy_backend=backend)
                for j, stack in enumerate(stacks)]
        return self._execute(jobs, journal=journal, on_event=on_event)

    # ------------------------------------------------------------------
    def compress_plan(self, plan: Iterable,
                      bound: Optional[Bound] = None,
                      keep_reconstruction: bool = True,
                      journal=None, on_event=None) -> BatchResult:
        """Compress every shard of a :class:`ShardPlan`.

        Shards are *recipes*: workers materialize the frames from the
        task's dataset spec, so a process backend ships a few hundred
        bytes per shard instead of the frames themselves.  Seeds come
        from the planner (``base_seed + 7919 * i`` in plan order), not
        from this engine's ``base_seed``.

        With a ``journal``, shard ids become durable task ids: shards
        already journaled (same id *and* seed, payload hash verified)
        are replayed, the rest recomputed and recorded — the substrate
        under ``Session.sweep(..., journal=...)`` / ``repro sweep
        --resume``.
        """
        backend = get_backend(self.entropy_backend).name
        jobs = [_WindowJob(index=i, seed=task.seed, source=task,
                           shard_id=task.shard_id, bound=bound,
                           keep_reconstruction=keep_reconstruction,
                           entropy_backend=backend)
                for i, task in enumerate(plan)]
        return self._execute(jobs, journal=journal, on_event=on_event)

    # ------------------------------------------------------------------
    def decompress(self, payloads: Sequence[bytes]) -> List[np.ndarray]:
        """Decode every payload (ordered, parallel)."""
        ref = self._codec_ref(len(payloads))
        jobs = [_DecodeJob(codec_ref=ref, payload=p) for p in payloads]
        return self.executor.map(_run_decode_job, jobs)
