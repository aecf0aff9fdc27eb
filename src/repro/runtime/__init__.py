"""repro.runtime — one event-driven task substrate under everything.

The session's fan-out, the engine's window batching, and the service's
worker threads share this package:

* :mod:`repro.runtime.task` — immutable :class:`Task` records with
  deterministic ids/seeds, :class:`TaskEvent` lifecycle events, and
  :class:`TaskOutcome` results.
* :mod:`repro.runtime.runtime` — :class:`TaskRuntime`, the dispatcher:
  serial/thread/process modes behind one ``run()``/``map()`` surface,
  lifecycle events, and a queue-pump mode (``start_workers``) for
  long-lived services;
  :func:`as_runtime` resolves every ``executor=`` argument (a name in
  :data:`MODES` or a ready runtime).
* :mod:`repro.runtime.journal` — :class:`SweepJournal`, a crash-safe
  append-only JSONL journal of ``task_id -> result digest`` with
  content-addressed payload staging and idempotent replay, the
  substrate for ``Session.sweep(..., journal=...)`` / ``repro sweep
  --resume``.
"""

from .task import Task, TaskEvent, TaskOutcome
from .runtime import MODES, TaskRuntime, as_runtime, default_workers
from .journal import JournalEntry, JournalError, SweepJournal, facts_fingerprint

__all__ = [
    "Task",
    "TaskEvent",
    "TaskOutcome",
    "TaskRuntime",
    "MODES",
    "as_runtime",
    "default_workers",
    "JournalEntry",
    "JournalError",
    "SweepJournal",
    "facts_fingerprint",
]
