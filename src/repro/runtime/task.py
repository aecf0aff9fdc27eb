"""Task records for the shared runtime.

A :class:`Task` is a picklable unit of work: a module-level callable
plus one payload argument and a deterministic ``task_id`` (the journal
key).  The runtime reports progress as :class:`TaskEvent`s and returns
:class:`TaskOutcome`s.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple

__all__ = ["Task", "TaskEvent", "TaskOutcome", "run_task"]

#: lifecycle event kinds emitted by the runtime, in order of occurrence
EVENT_KINDS = ("submitted", "completed", "failed")


@dataclass(frozen=True)
class Task:
    """One unit of work: ``fn(payload)`` under a stable identity.

    ``fn`` must be picklable (module-level) for the process mode.
    ``task_id`` is the durable identity — the journal keys on it, so it
    must be deterministic across runs for resumption to work.  ``seed``
    is carried for provenance (journal replay cross-checks it).
    """

    task_id: str
    fn: Callable[[Any], Any]
    payload: Any = None
    index: int = 0
    seed: Optional[int] = None


@dataclass(frozen=True)
class TaskEvent:
    """A lifecycle notification: submitted/completed/failed."""

    kind: str
    task_id: str
    index: int
    seconds: float = 0.0
    error: Optional[str] = None


@dataclass(frozen=True)
class TaskOutcome:
    """The result of one task: its value plus its compute time."""

    task_id: str
    index: int
    value: Any
    seconds: float = 0.0


def run_task(fn: Callable[[Any], Any], payload: Any) -> Tuple[Any, float]:
    """Execute ``fn(payload)``, returning ``(value, seconds)``.

    Module-level so process pools can pickle it; the timing is taken
    inside the worker so it reflects compute, not queue latency.
    """
    start = time.perf_counter()
    value = fn(payload)
    return value, time.perf_counter() - start
