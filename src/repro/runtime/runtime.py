"""TaskRuntime — the one dispatcher under the session, engine, and service.

Two operating styles share one object:

* **batch** — :meth:`TaskRuntime.run` takes a list of :class:`Task`
  records, dispatches them on the configured backend
  (serial/thread/process), emits :class:`TaskEvent`s, and returns
  ordered :class:`TaskOutcome`s; the first failing task raises.
  :meth:`map` is thin ordered-map sugar over :meth:`run`.
* **pump** — :meth:`start_workers` spawns daemon threads that drain a
  queue-like source (anything with ``get(timeout) -> item|None`` and a
  ``closed`` property, i.e. the service's ``JobQueue``) into a handler,
  tracking in-flight counts for health/metrics.

Worker pools are warm: created lazily on first use, grown (by
recreation) when a batch wants more workers than the current pool has,
and torn down by :meth:`close` — which is idempotent, exception-safe,
and non-terminal (a later ``run`` simply builds a fresh pool).  There
is deliberately no ``__del__``: GC-timing-dependent finalizers race
interpreter shutdown, so lifecycle is explicit (``with`` or
``close()``).

``Session(executor=...)`` and ``CodecEngine(executor=...)`` take a mode
name or a ready runtime; :func:`as_runtime` is the one resolver.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import (FIRST_COMPLETED, Future, ProcessPoolExecutor,
                                ThreadPoolExecutor, wait)
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Union)

from .task import Task, TaskEvent, TaskOutcome, run_task

__all__ = ["TaskRuntime", "as_runtime", "default_workers", "MODES"]

MODES = ("serial", "thread", "process")

EventFn = Callable[[TaskEvent], None]
ResultFn = Callable[[TaskOutcome], None]


def default_workers() -> int:
    """Worker count when the caller does not specify one."""
    return os.cpu_count() or 4


def _start_method() -> str:
    """Process-pool start method: ``fork`` where the platform has it,
    else the platform default."""
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return multiprocessing.get_start_method()


class TaskRuntime:
    """Event-driven task dispatcher with serial/thread/process modes."""

    def __init__(self, mode: str = "thread",
                 max_workers: Optional[int] = None,
                 name: str = "repro-runtime",
                 before_task: Optional[Callable[[Task], None]] = None):
        if mode not in MODES:
            raise ValueError(
                f"unknown runtime mode {mode!r}; expected one of "
                + ", ".join(MODES))
        if max_workers is None:
            max_workers = default_workers()
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.mode = mode
        self.max_workers = max_workers
        self.name = name
        #: parent-side hook called before each task is dispatched; a
        #: raising hook aborts the batch — the fault-injection seam the
        #: crash-resume tests use.
        self.before_task = before_task
        self._thread_pool: Optional[ThreadPoolExecutor] = None
        self._process_pool: Optional[ProcessPoolExecutor] = None
        self._pool_workers = 0
        # pump state
        self._pump_threads: List[threading.Thread] = []
        self._pump_stop = threading.Event()
        self._inflight = 0
        self._inflight_lock = threading.Lock()

    # -- pools ----------------------------------------------------------
    def _get_pool(self, workers: int):
        if self.mode == "thread":
            if self._thread_pool is None or self._pool_workers < workers:
                if self._thread_pool is not None:
                    self._thread_pool.shutdown(wait=True)
                self._thread_pool = ThreadPoolExecutor(
                    max_workers=workers,
                    thread_name_prefix=f"{self.name}-task")
                self._pool_workers = workers
            return self._thread_pool
        if self._process_pool is None or self._pool_workers < workers:
            if self._process_pool is not None:
                self._process_pool.shutdown(wait=True)
            ctx = multiprocessing.get_context(_start_method())
            self._process_pool = ProcessPoolExecutor(
                max_workers=workers, mp_context=ctx)
            self._pool_workers = workers
        return self._process_pool

    # -- batch dispatch -------------------------------------------------
    def pool_width(self, count: int) -> int:
        """Workers a batch of ``count`` tasks runs on: ``0`` when
        :meth:`run` runs it inline in the calling thread (serial mode,
        or a batch a pool of one would serve), else its pool width."""
        workers = min(self.max_workers, count)
        if self.mode == "process":
            workers = min(workers, default_workers())
        return 0 if self.mode == "serial" or workers <= 1 else workers

    def run(self, tasks: Sequence[Task],
            on_result: Optional[ResultFn] = None,
            on_event: Optional[EventFn] = None) -> List[TaskOutcome]:
        """Run ``tasks``, returning outcomes in task order.

        ``on_result`` fires once per task, in completion order,
        *before* the task's ``completed`` event — so a journal write
        hooked on ``on_result`` is durable by the time any
        ``on_event`` observer (including a fault injector) sees the
        completion.  A failing task raises its exception after a
        ``failed`` event; remaining futures are cancelled best-effort.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        workers = self.pool_width(len(tasks))
        if not workers:
            return self._run_inline(tasks, on_result, on_event)
        return self._run_pool(tasks, workers, on_result, on_event)

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> List[Any]:
        """Ordered map of ``fn`` over ``items``."""
        tasks = [Task(task_id=str(i), fn=fn, payload=item, index=i)
                 for i, item in enumerate(items)]
        return [outcome.value for outcome in self.run(tasks)]

    @staticmethod
    def _emit(on_event: Optional[EventFn], event: TaskEvent) -> None:
        if on_event is not None:
            on_event(event)

    def _complete(self, task: Task, value: Any, seconds: float,
                  on_result: Optional[ResultFn],
                  on_event: Optional[EventFn]) -> TaskOutcome:
        outcome = TaskOutcome(task.task_id, task.index, value,
                              seconds=seconds)
        if on_result is not None:
            on_result(outcome)
        self._emit(on_event, TaskEvent(
            "completed", task.task_id, task.index, seconds=seconds))
        return outcome

    def _run_inline(self, tasks: List[Task],
                    on_result: Optional[ResultFn],
                    on_event: Optional[EventFn]) -> List[TaskOutcome]:
        outcomes: List[TaskOutcome] = []
        for task in tasks:
            if self.before_task is not None:
                self.before_task(task)
            self._emit(on_event, TaskEvent(
                "submitted", task.task_id, task.index))
            try:
                value, seconds = run_task(task.fn, task.payload)
            except Exception as exc:
                self._emit(on_event, TaskEvent(
                    "failed", task.task_id, task.index, error=str(exc)))
                raise
            outcomes.append(self._complete(task, value, seconds,
                                           on_result, on_event))
        return outcomes

    def _run_pool(self, tasks: List[Task], workers: int,
                  on_result: Optional[ResultFn],
                  on_event: Optional[EventFn]) -> List[TaskOutcome]:
        pool = self._get_pool(workers)
        results: Dict[int, TaskOutcome] = {}
        pending: Dict[Future, int] = {}
        try:
            for i, task in enumerate(tasks):
                if self.before_task is not None:
                    self.before_task(task)
                pending[pool.submit(run_task, task.fn, task.payload)] = i
                self._emit(on_event, TaskEvent(
                    "submitted", task.task_id, task.index))
            while pending:
                done, _ = wait(list(pending), return_when=FIRST_COMPLETED)
                for fut in done:
                    i = pending.pop(fut)
                    task = tasks[i]
                    try:
                        value, seconds = fut.result()
                    except Exception as exc:
                        self._emit(on_event, TaskEvent(
                            "failed", task.task_id, task.index,
                            error=str(exc)))
                        raise
                    results[i] = self._complete(task, value, seconds,
                                                on_result, on_event)
        except BaseException:
            for fut in pending:
                fut.cancel()
            raise
        return [results[i] for i in range(len(tasks))]

    # -- pump mode (service workers) ------------------------------------
    def start_workers(self, source: Any,
                      handler: Callable[[Any], None]) -> None:
        """Spawn ``max_workers`` daemon threads draining ``source``.

        ``source`` needs ``get(timeout) -> item|None`` and (optionally)
        a ``closed`` property: ``None`` from a closed source ends the
        worker, ``None`` from a live one is a poll timeout.  Handler
        exceptions are swallowed — workers must never die; the handler
        owns its own error recording.  Idempotent while running.
        """
        if self._pump_threads and any(t.is_alive() for t in self._pump_threads):
            return
        self._pump_stop = threading.Event()
        self._pump_threads = []
        for i in range(self.max_workers):
            thread = threading.Thread(
                target=self._pump, args=(source, handler),
                name=f"{self.name}-worker-{i}", daemon=True)
            thread.start()
            self._pump_threads.append(thread)

    def _pump(self, source: Any, handler: Callable[[Any], None]) -> None:
        stop = self._pump_stop
        while not stop.is_set():
            item = source.get(timeout=0.25)
            if item is None:
                if getattr(source, "closed", False):
                    return
                continue
            with self._inflight_lock:
                self._inflight += 1
            try:
                handler(item)
            except Exception:
                pass  # workers must never die; handler owns its errors
            finally:
                with self._inflight_lock:
                    self._inflight -= 1

    @property
    def inflight(self) -> int:
        """Items currently inside a pump handler."""
        return self._inflight

    @property
    def workers_alive(self) -> int:
        return sum(t.is_alive() for t in self._pump_threads)

    @property
    def started(self) -> bool:
        """Whether pump workers were ever started."""
        return bool(self._pump_threads)

    def stop_workers(self, wait: bool = True, timeout: float = 10.0) -> None:
        """Signal pump threads to exit and (optionally) join them."""
        self._pump_stop.set()
        if wait:
            deadline = time.monotonic() + timeout
            for thread in self._pump_threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Release pools and pump threads; idempotent, exception-safe.

        Not terminal: a later :meth:`run` lazily rebuilds its pool.
        """
        try:
            self.stop_workers(wait=True, timeout=1.0)
        except Exception:
            pass
        pool, self._thread_pool = self._thread_pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=True)
            except Exception:
                pass
        pool, self._process_pool = self._process_pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=True)
            except Exception:
                pass
        self._pool_workers = 0

    def __enter__(self) -> "TaskRuntime":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<TaskRuntime mode={self.mode!r} "
                f"max_workers={self.max_workers}>")


def as_runtime(executor: Union[str, TaskRuntime],
               max_workers: Optional[int] = None) -> TaskRuntime:
    """Resolve an ``executor=`` argument into a :class:`TaskRuntime`.

    A mode name (one of :data:`MODES`) builds a fresh runtime of
    ``max_workers`` width; a ready runtime passes through unchanged and
    keeps its own width.  Unknown names raise the runtime's
    ``ValueError``.
    """
    if isinstance(executor, TaskRuntime):
        return executor
    mode = str(executor).strip().lower()
    return TaskRuntime(mode=mode, max_workers=max_workers,
                       name=f"repro-{mode}")
