"""The long-running compression service behind ``repro serve``.

:class:`CompressionService` stands the platform's one front door
(:class:`repro.api.Session`) up as an autonomous subsystem:

* **submission** — :meth:`submit` validates a job request, resolves it
  to canonical facts (dataset spec, codec spec, bound, entropy
  backend, integer payload format), admits it through the
  per-client rate limiter and the bounded queue (429-style
  rejections, never unbounded growth), and
  returns a :class:`~repro.service.jobs.Job` record with a
  deterministic id;
* **execution** — a :class:`repro.runtime.TaskRuntime` (the same
  substrate the session fans out on) pumps the queue into the session
  (which owns its own runtime, codec cache and seeds), so a served
  compress is *byte-identical* to the same ``Session.compress`` call
  in-process;
* **caching** — results land in the content-addressed
  :class:`~repro.service.cache.ResultCache`; a repeated identical
  request is answered at submission time from the cache (the job is
  born ``done`` with ``cache_hit=True``) without ever touching the
  queue;
* **bounded state** — the job table keeps queued and running jobs
  plus the newest :data:`MAX_FINISHED_JOBS` finished ones, and result
  metadata lives only as long as the cache holds the result;
* **observability** — every stage writes through one
  :class:`~repro.service.telemetry.MetricsRegistry`;
  :meth:`health` and :meth:`metrics_text` are what the HTTP layer
  serves;
* **shutdown** — :meth:`close` flips the service into *draining*
  (new submissions rejected with a 503-mapped error), waits for
  queued and running jobs, then releases the queue, the workers and
  the session — safe to call twice, safe to call from ``finally``.

:class:`ServiceClient` is the in-process twin of the HTTP client: the
same submit/wait/result surface without a socket, for tests and
scripting.
"""

from __future__ import annotations

import collections
import dataclasses
import io
import os
import tempfile
import threading
import time
from typing import Any, Deque, Dict, List, Optional, Union

import numpy as np

from ..api import Archive, Bound, Session, SessionError
from ..data.registry import get_dataset_spec
from ..postprocess.coding import PAYLOAD_FORMAT
from ..runtime import TaskRuntime
from .cache import ResultCache
from .jobs import (Job, JobError, TERMINAL_STATES, job_id,
                   normalize_request, request_digest)
from .queue import (ClientRateLimiter, JobQueue, ServiceRejection)
from .telemetry import MetricsRegistry

__all__ = ["CompressionService", "ServiceClient", "ServiceError",
           "UnknownJobError", "ServiceClosedError"]

#: media types the jobs produce
MEDIA_ARCHIVE = "application/octet-stream"
MEDIA_NPY = "application/x-npy"
MEDIA_NPZ = "application/x-npz"

#: finished (done/failed/cancelled) jobs the table keeps; older ones
#: are forgotten and their ids answer :class:`UnknownJobError`.  Queued
#: and running jobs are never dropped.
MAX_FINISHED_JOBS = 1024

#: ``train`` request kwargs forwarded to :meth:`Session.train`
_TRAIN_KWARGS = ("preset", "vae_iters", "diffusion_iters", "sr_iters",
                 "finetune_iters", "lam", "train_fraction", "stride",
                 "window", "corrector")


class ServiceError(ValueError):
    """A malformed or unresolvable request (HTTP 400)."""


class UnknownJobError(KeyError):
    """No job with the given id (HTTP 404)."""


class ServiceClosedError(ServiceRejection):
    """The service is draining and rejects new work (HTTP 503)."""

    http_status = 503


def _parse_select(select):
    """JSON select value -> the :meth:`Session.decompress` selector.

    Ints and shard-id/variable-name strings pass through; ``"T0:T1"``
    strings become time-range slices; lists recurse.
    """
    if select is None:
        return None
    if isinstance(select, list):
        return [_parse_select(s) for s in select]
    if isinstance(select, str) and ":" in select:
        a, _, b = select.partition(":")
        try:
            return slice(int(a) if a else None, int(b) if b else None)
        except ValueError:
            raise ServiceError(f"bad select time range {select!r}; "
                               f"expected T0:T1") from None
    return select


def _parse_bound(bound) -> Optional[Bound]:
    """JSON bound value -> :class:`Bound` (dict, string, or number)."""
    if bound is None:
        return None
    try:
        if isinstance(bound, Bound):
            return bound
        if isinstance(bound, dict):
            return Bound(bound.get("kind", "nrmse"), bound["value"])
        return Bound.parse(bound)
    except (KeyError, ValueError, TypeError) as exc:
        raise ServiceError(f"bad bound {bound!r}: {exc}") from None


class CompressionService:
    """Job queue + worker pool + result cache over one ``Session``.

    Parameters
    ----------
    cache_dir:
        Root of the content-addressed result cache (created if
        missing).
    session:
        A ready :class:`~repro.api.Session`, or ``None`` to build one
        from ``session_kwargs``.  A session built here is owned (and
        closed) by the service; a passed-in session is borrowed and
        stays open.
    workers:
        Job worker threads (each drives the session's executor, so
        total parallelism is ``workers x session executor width``).
    max_queue:
        Bounded queue capacity; submissions beyond it are rejected.
    rate_limit / rate_burst:
        Per-client token-bucket admission (requests/second and burst
        depth); ``0`` disables limiting.
    cache_entries / cache_bytes:
        Result-cache LRU bounds.
    start:
        Start the worker threads immediately (tests pass ``False`` to
        observe queue states).
    """

    def __init__(self, cache_dir: Union[str, os.PathLike],
                 session: Optional[Session] = None, *,
                 workers: int = 2, max_queue: int = 64,
                 rate_limit: float = 0.0,
                 rate_burst: Optional[float] = None,
                 cache_entries: int = 256,
                 cache_bytes: int = 1 << 30,
                 registry: Optional[MetricsRegistry] = None,
                 start: bool = True,
                 **session_kwargs):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._owns_session = session is None
        self.session = session or Session(**session_kwargs)
        self.cache = ResultCache(cache_dir, max_entries=cache_entries,
                                 max_bytes=cache_bytes)
        self.queue = JobQueue(maxsize=max_queue)
        self.limiter = ClientRateLimiter(rate_limit, rate_burst)
        self.metrics = registry or MetricsRegistry()
        self.started_at = time.time()

        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        #: ids of finished jobs, oldest first
        self._finished: Deque[str] = collections.deque()
        self._seq = 0
        self._result_meta: Dict[str, Dict[str, Any]] = {}
        self._draining = threading.Event()
        self._closed = False
        self._num_workers = int(workers)
        # a task runtime pumps the JobQueue into _execute — the same
        # substrate the session fans out on
        self._runtime = TaskRuntime(mode="thread",
                                    max_workers=self._num_workers,
                                    name="repro-serve")

        m = self.metrics
        self._c_submitted = m.counter(
            "repro_jobs_submitted_total",
            "Jobs accepted by the service, by type.")
        self._c_completed = m.counter(
            "repro_jobs_completed_total",
            "Jobs reaching a terminal state, by state and type.")
        self._c_rejected = m.counter(
            "repro_jobs_rejected_total",
            "Submissions rejected by admission control, by reason.")
        self._c_cache_hits = m.counter(
            "repro_cache_hits_total",
            "Submissions answered from the result cache.")
        self._c_cache_misses = m.counter(
            "repro_cache_misses_total",
            "Submissions that had to be computed.")
        self._c_bytes_in = m.counter(
            "repro_bytes_in_total",
            "Request body bytes accepted.")
        self._c_bytes_out = m.counter(
            "repro_bytes_out_total",
            "Result bytes produced or served.")
        self._h_job_seconds = m.histogram(
            "repro_job_seconds",
            "Job execution wall clock, by type and codec.")
        m.gauge("repro_queue_depth",
                "Jobs waiting in the bounded queue.",
                callback=lambda: self.queue.depth)
        m.gauge("repro_jobs_inflight",
                "Jobs currently executing.",
                callback=lambda: self._runtime.inflight)
        m.gauge("repro_cache_entries",
                "Result-cache entries resident.",
                callback=lambda: len(self.cache))
        m.gauge("repro_cache_bytes",
                "Result-cache bytes resident.",
                callback=lambda: self.cache.stats()["bytes"])
        m.gauge("repro_uptime_seconds",
                "Seconds since service start.",
                callback=lambda: time.time() - self.started_at)
        self._g_jobs = m.gauge(
            "repro_jobs", "Known jobs by state.")

        if start:
            self.start()

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Start the worker pool (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._runtime.start_workers(self.queue, self._execute)

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def close(self, drain: bool = True,
              timeout: Optional[float] = None) -> None:
        """Shut down: reject new work, settle existing, release.

        With ``drain=True`` (the SIGTERM path) queued and running jobs
        finish first (bounded by ``timeout`` seconds if given); with
        ``drain=False`` queued jobs are cancelled and only running
        ones are awaited.  Idempotent and exception-safe — the serve
        loop calls this from ``finally``.
        """
        self._draining.set()
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if not drain:
            while True:
                job = self.queue.get(timeout=0)
                if job is None:
                    break
                self._finish(job, "cancelled")
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        while self.queue.depth or self._runtime.inflight:
            if deadline is not None and time.monotonic() > deadline:
                break
            time.sleep(0.01)
        self.queue.close()
        self._runtime.stop_workers(wait=True, timeout=10.0)
        self._runtime.close()
        if self._owns_session:
            self.session.close()

    def __enter__(self) -> "CompressionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission -----------------------------------------------------
    def submit(self, request: Dict[str, Any],
               client: str = "local") -> Job:
        """Admit one job request; returns its :class:`Job` record.

        Raises :class:`ServiceClosedError` while draining,
        :class:`~repro.service.queue.RateLimitedError` /
        :class:`~repro.service.queue.QueueFullError` on admission
        control, and :class:`ServiceError` for requests that cannot be
        resolved against the registries.
        """
        if self._draining.is_set():
            raise ServiceClosedError("service is draining; no new "
                                     "jobs accepted", retry_after=30.0)
        self.limiter.allow(client)
        try:
            normalized = normalize_request(request)
            facts = self._canonical_facts(normalized)
        except JobError:
            self._c_rejected.inc(reason="invalid")
            raise
        except ServiceError:
            self._c_rejected.inc(reason="invalid")
            raise
        digest = request_digest(facts)
        with self._lock:
            self._seq += 1
            job = Job(id=job_id(digest, self._seq),
                      type=normalized["type"], request=normalized,
                      digest=digest, client=client)
            self._jobs[job.id] = job

        cached = self.cache.get_path(digest)
        if cached is not None:
            self._c_cache_hits.inc()
            meta = self._result_meta.get(digest)
            size = os.path.getsize(cached)
            job.cache_hit = True
            job.result = dict(meta) if meta else {
                "bytes": size, "media_type": MEDIA_ARCHIVE}
            job.transition("done")
            self._retire(job)
            self._c_submitted.inc(type=job.type)
            self._c_completed.inc(state="done", type=job.type)
            return job

        self._c_cache_misses.inc()
        try:
            self.queue.put(job)
        except ServiceRejection:
            with self._lock:
                self._jobs.pop(job.id, None)
            self._c_rejected.inc(reason="queue_full")
            raise
        self._c_submitted.inc(type=job.type)
        return job

    def _canonical_facts(self, req: Dict[str, Any]) -> Dict[str, Any]:
        """Resolve a normalized request into the fully-canonical facts
        the digest (= cache key) is computed over: dataset spec, codec
        spec, bound, entropy backend, payload format and the
        deterministic knobs.  Two
        spellings of the same work share one digest; anything the
        registries cannot resolve raises :class:`ServiceError` at
        submission time (HTTP 400), not inside a worker.
        """
        job_type = req["type"]
        facts: Dict[str, Any] = {"type": job_type}
        try:
            if job_type in ("compress", "train"):
                spec = self._dataset_spec(req)
                facts["dataset"] = dataclasses.asdict(spec)
            if job_type == "compress":
                facts["codec"] = self._codec_spec(req.get("codec"))
                bound = _parse_bound(req.get("bound"))
                facts["bound"] = (None if bound is None
                                  else [bound.kind, bound.value])
                facts["entropy_backend"] = (
                    req.get("entropy_backend")
                    or self.session.entropy_backend)
                # a result cached in another payload format is not
                # today's bytes
                facts["payload_format"] = PAYLOAD_FORMAT
                facts["variables"] = req.get("variables")
                facts["shards"] = req.get("shards")
                facts["seed"] = int(req.get("seed",
                                            self.session.seed))
            elif job_type == "decompress":
                facts["source"] = self._source_digest(req)
                facts["select"] = req.get("select")
                facts["expect_codec"] = req.get("expect_codec")
            else:  # train
                facts["codec"] = req["codec"]
                facts["variable"] = int(req.get("variable", 0))
                train = req.get("train") or {}
                if not isinstance(train, dict):
                    raise ServiceError("'train' must be an object of "
                                       "training kwargs")
                unknown = sorted(set(train) - set(_TRAIN_KWARGS))
                if unknown:
                    raise ServiceError(
                        f"unknown train kwargs {unknown}; allowed: "
                        f"{', '.join(_TRAIN_KWARGS)}")
                facts["train"] = {k: train[k] for k in sorted(train)}
                facts["seed"] = int(req.get("seed",
                                            self.session.seed))
        except (KeyError, ValueError, TypeError) as exc:
            if isinstance(exc, (ServiceError, UnknownJobError)):
                raise
            raise ServiceError(
                f"cannot resolve request: "
                f"{exc.args[0] if exc.args else exc}") from None
        return facts

    def _dataset_spec(self, req: Dict[str, Any]):
        overrides = dict(req.get("shape") or {})
        overrides.update(req.get("dataset_params") or {})
        return get_dataset_spec(req["dataset"], **overrides)

    def _codec_spec(self, codec: Optional[str]) -> Dict[str, Any]:
        try:
            resolved = self.session.resolve_codec(codec)
        except SessionError as exc:
            raise ServiceError(exc.args[0]) from None
        try:
            return resolved.to_spec()
        except TypeError:
            # wrapped/trained-in-memory codecs have no portable spec;
            # the codec name still keys the cache correctly within
            # this service instance
            return {"codec": resolved.name}

    def _source_digest(self, req: Dict[str, Any]) -> str:
        if req.get("digest"):
            return str(req["digest"])
        source = self.job(req["job"])
        if source.state != "done":
            raise ServiceError(
                f"decompress source job {source.id} is "
                f"{source.state}, not done")
        return source.digest

    # -- execution ------------------------------------------------------
    # (the runtime's pump workers drain self.queue into _execute;
    #  there is no bespoke _worker_loop anymore)
    def _execute(self, job: Job) -> None:
        try:
            job.transition("running")
        except JobError:
            return  # lost a cancellation race; nothing to do
        t0 = time.perf_counter()
        try:
            data, media, stats = self._dispatch(job)
            self.cache.put(job.digest, data)
        except Exception as exc:  # worker threads must never die
            job.error = f"{type(exc).__name__}: {exc}"
            self._finish(job, "failed")
            return
        elapsed = time.perf_counter() - t0
        result = {"bytes": len(data), "media_type": media, **stats}
        with self._lock:
            self._result_meta[job.digest] = dict(result)
            for digest in [d for d in self._result_meta
                           if d not in self.cache]:
                del self._result_meta[digest]  # result was evicted
        job.result = result
        self._finish(job, "done")
        self._h_job_seconds.observe(elapsed, type=job.type,
                                    codec=str(stats.get("codec", "-")))
        self._c_bytes_out.inc(len(data))

    def _finish(self, job: Job, state: str) -> None:
        try:
            job.transition(state)
        except JobError:
            return
        self._retire(job)
        self._c_completed.inc(state=state, type=job.type)

    def _retire(self, job: Job) -> None:
        """Record a newly finished job; forget the oldest finished jobs
        beyond :data:`MAX_FINISHED_JOBS`."""
        with self._lock:
            self._finished.append(job.id)
            while len(self._finished) > MAX_FINISHED_JOBS:
                self._jobs.pop(self._finished.popleft(), None)

    def _dispatch(self, job: Job):
        req = job.request
        if job.type == "compress":
            return self._run_compress(req)
        if job.type == "decompress":
            return self._run_decompress(req)
        return self._run_train(req)

    def _run_compress(self, req: Dict[str, Any]):
        spec = self._dataset_spec(req)
        archive = self.session.compress(
            spec, codec=req.get("codec"),
            bound=_parse_bound(req.get("bound")),
            variables=req.get("variables"),
            shards=req.get("shards"),
            seed=(None if req.get("seed") is None
                  else int(req["seed"])),
            entropy_backend=req.get("entropy_backend"))
        data = archive.to_bytes()
        stats = {k: v for k, v in archive.stats.items()
                 if isinstance(v, (int, float, str, bool))}
        return data, MEDIA_ARCHIVE, {"kind": archive.kind, **stats}

    def _run_decompress(self, req: Dict[str, Any]):
        digest = self._source_digest(req)
        path = self.cache.peek_path(digest)
        if path is None:
            raise ServiceError(
                f"source result {digest[:12]} is no longer cached")
        restored = self.session.decompress(
            Archive.open(path), select=_parse_select(req.get("select")),
            expect_codec=req.get("expect_codec"))
        buf = io.BytesIO()
        if isinstance(restored, dict):
            np.savez(buf, **restored)
            media = MEDIA_NPZ
            stats = {"variables": sorted(restored)}
        else:
            np.save(buf, restored)
            media = MEDIA_NPY
            stats = {"shape": list(restored.shape)}
        return buf.getvalue(), media, stats

    def _run_train(self, req: Dict[str, Any]):
        spec = self._dataset_spec(req)
        kwargs = {k: v for k, v in (req.get("train") or {}).items()
                  if k in _TRAIN_KWARGS}
        with tempfile.TemporaryDirectory(
                dir=self.cache.root) as tmp:
            save = os.path.join(tmp, "artifact.npz")
            _, manifest = self.session.train(
                req["codec"], spec, save=save,
                variable=int(req.get("variable", 0)),
                seed=(None if req.get("seed") is None
                      else int(req["seed"])),
                **kwargs)
            with open(save, "rb") as fh:
                data = fh.read()
        return data, MEDIA_NPZ, {"codec": req["codec"],
                                 "state_hash": manifest.state_hash}

    # -- job access -----------------------------------------------------
    def job(self, job_id_: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id_)
        if job is None:
            raise UnknownJobError(f"no job {job_id_!r}")
        return job

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def cancel(self, job_id_: str) -> Job:
        """Cancel a queued job; raises :class:`ServiceError` once it
        is running or terminal."""
        job = self.job(job_id_)
        if self.queue.remove(job_id_) is not None:
            self._finish(job, "cancelled")
            return job
        if job.state == "cancelled":
            return job
        raise ServiceError(f"job {job_id_} is {job.state}; only "
                           f"queued jobs can be cancelled")

    def result_path(self, job_id_: str) -> str:
        """Cached result-object path of a ``done`` job (the bytes the
        HTTP layer streams)."""
        job = self.job(job_id_)
        if job.state != "done":
            raise ServiceError(f"job {job_id_} is {job.state}; "
                               f"results exist only for done jobs")
        path = self.cache.peek_path(job.digest)
        if path is None:
            raise ServiceError(
                f"result of job {job_id_} was evicted from the "
                f"cache; resubmit the request to recompute it")
        return path

    def result_bytes(self, job_id_: str) -> bytes:
        with open(self.result_path(job_id_), "rb") as fh:
            return fh.read()

    # -- observability --------------------------------------------------
    def _jobs_by_state(self) -> Dict[str, int]:
        counts = {state: 0 for state in
                  ("queued", "running", "done", "failed", "cancelled")}
        with self._lock:
            for job in self._jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    def health(self) -> Dict[str, Any]:
        """Liveness summary (the ``GET /health`` body)."""
        alive = self._runtime.workers_alive
        store_ok = self.cache.writable()
        status = "draining" if self.draining else (
            "ok" if store_ok and (alive or not self._runtime.started)
            else "degraded")
        return {
            "status": status,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "queue_depth": self.queue.depth,
            "queue_capacity": self.queue.maxsize,
            "workers": self._num_workers,
            "workers_alive": alive,
            "inflight": self._runtime.inflight,
            "executor": self.session.executor.mode,
            "store_writable": store_ok,
            "jobs": self._jobs_by_state(),
            "cache": self.cache.stats(),
        }

    def metrics_text(self) -> str:
        """Prometheus exposition text (the ``GET /metrics`` body)."""
        for state, count in self._jobs_by_state().items():
            self._g_jobs.set(count, state=state)
        return self.metrics.render()


class ServiceClient:
    """In-process client: the HTTP surface without the socket.

    Drives a :class:`CompressionService` directly — same submit /
    poll / fetch-result verbs the HTTP API exposes, returning the
    same JSON-safe dicts — so tests and scripts exercise the full job
    life cycle without standing up a server.
    """

    def __init__(self, service: CompressionService,
                 client: str = "local"):
        self.service = service
        self.client = client

    def submit(self, request: Optional[Dict[str, Any]] = None,
               **fields) -> Dict[str, Any]:
        body = dict(request or {})
        body.update(fields)
        return self.service.submit(body, client=self.client).to_dict()

    def job(self, job_id_: str) -> Dict[str, Any]:
        return self.service.job(job_id_).to_dict()

    def wait(self, job_id_: str, timeout: float = 60.0,
             poll: float = 0.005) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.service.job(job_id_)
            if job.state in TERMINAL_STATES:
                return job.to_dict()
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id_} still {job.state} after "
                    f"{timeout}s")
            time.sleep(poll)

    def result(self, job_id_: str) -> bytes:
        return self.service.result_bytes(job_id_)

    def cancel(self, job_id_: str) -> Dict[str, Any]:
        return self.service.cancel(job_id_).to_dict()

    def health(self) -> Dict[str, Any]:
        return self.service.health()

    def metrics_text(self) -> str:
        return self.service.metrics_text()
