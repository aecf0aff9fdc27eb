"""TaskRuntime: modes, ordering, events, pump workers."""

import threading
import time

import pytest

from repro.runtime import Task, TaskRuntime, default_workers


def _square(x):
    return x * x


def _boom(x):
    raise RuntimeError(f"boom {x}")


class TestModes:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown runtime mode"):
            TaskRuntime(mode="quantum")

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="max_workers must be >= 1"):
            TaskRuntime(max_workers=0)

    def test_default_workers(self):
        assert TaskRuntime().max_workers == default_workers()

    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_map_ordered(self, mode):
        with TaskRuntime(mode=mode, max_workers=2) as rt:
            assert rt.map(_square, range(10)) == [x * x for x in range(10)]

    @pytest.mark.parametrize("mode", ["serial", "thread"])
    def test_map_accepts_lambdas(self, mode):
        with TaskRuntime(mode=mode, max_workers=4) as rt:
            assert rt.map(lambda x: x + 1, range(5)) == list(range(1, 6))

    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_exceptions_propagate(self, mode):
        with TaskRuntime(mode=mode, max_workers=2) as rt:
            with pytest.raises(RuntimeError, match="boom"):
                rt.map(_boom, [1])

    def test_empty_batch(self):
        with TaskRuntime(mode="thread") as rt:
            assert rt.run([]) == []
            assert rt.map(_square, []) == []


class TestRun:
    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_run_surface(self, mode):
        """Ordered outcomes plus one ``on_result`` per task, in every
        mode (the engine's only dispatch path)."""
        tasks = [Task(task_id=f"t{i}", fn=_square, payload=i, index=i)
                 for i in range(5)]
        seen = []
        with TaskRuntime(mode=mode, max_workers=2) as rt:
            outcomes = rt.run(tasks,
                              on_result=lambda o: seen.append(o.task_id))
        assert [o.value for o in outcomes] == [0, 1, 4, 9, 16]
        assert sorted(seen) == sorted(t.task_id for t in tasks)

    def test_outcomes_in_task_order(self):
        tasks = [Task(task_id=f"t{i}", fn=_square, payload=i, index=i)
                 for i in range(8)]
        with TaskRuntime(mode="thread", max_workers=4) as rt:
            outcomes = rt.run(tasks)
        assert [o.task_id for o in outcomes] == [t.task_id for t in tasks]
        assert [o.value for o in outcomes] == [i * i for i in range(8)]

    @pytest.mark.parametrize("mode", ["serial", "thread"])
    def test_on_result_fires_before_completed_event(self, mode):
        order = []
        tasks = [Task(task_id=f"t{i}", fn=_square, payload=i, index=i)
                 for i in range(4)]

        def on_result(outcome):
            order.append(("result", outcome.task_id))

        def on_event(event):
            if event.kind == "completed":
                order.append(("completed", event.task_id))

        with TaskRuntime(mode=mode, max_workers=2) as rt:
            rt.run(tasks, on_result=on_result, on_event=on_event)
        # per task: result strictly precedes its completed event
        for tid in (f"t{i}" for i in range(4)):
            assert order.index(("result", tid)) < \
                order.index(("completed", tid))

    @pytest.mark.parametrize("mode", ["serial", "thread"])
    def test_events_cover_lifecycle(self, mode):
        events = []
        tasks = [Task(task_id=f"t{i}", fn=_square, payload=i, index=i)
                 for i in range(3)]
        with TaskRuntime(mode=mode, max_workers=2) as rt:
            rt.run(tasks, on_event=events.append)
        kinds = [e.kind for e in events]
        assert kinds.count("submitted") == 3
        assert kinds.count("completed") == 3

    @pytest.mark.parametrize("mode", ["serial", "thread"])
    def test_failed_task_raises_after_failed_event(self, mode):
        """A failing task raises on its first error, after a ``failed``
        event naming it; nothing is retried."""
        events = []
        tasks = [Task(task_id=f"t{i}", fn=_boom, payload=i, index=i)
                 for i in range(2)]
        with TaskRuntime(mode=mode, max_workers=2) as rt:
            with pytest.raises(RuntimeError, match="boom"):
                rt.run(tasks, on_event=events.append)
        failed = [e for e in events if e.kind == "failed"]
        assert len(failed) == 1 and "boom" in failed[0].error
        assert events[-1] == failed[0]
        assert {e.kind for e in events} <= {"submitted", "completed",
                                            "failed"}

    def test_before_task_hook_aborts(self):
        seen = []

        def hook(task):
            seen.append(task.task_id)
            if len(seen) == 3:
                raise KeyboardInterrupt("injected crash")

        rt = TaskRuntime(mode="serial", before_task=hook)
        tasks = [Task(task_id=f"t{i}", fn=_square, payload=i, index=i)
                 for i in range(5)]
        with pytest.raises(KeyboardInterrupt):
            rt.run(tasks)
        assert seen == ["t0", "t1", "t2"]


class TestLifecycle:
    def test_no_finalizer(self):
        """GC-timing-dependent ``__del__`` is banned: lifecycle is
        explicit (``with`` or ``close()``)."""
        assert "__del__" not in TaskRuntime.__dict__
        assert not hasattr(TaskRuntime, "__del__")

    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_context_manager_closes(self, mode):
        with TaskRuntime(mode=mode, max_workers=2) as rt:
            assert rt.map(_square, [5, 6]) == [25, 36]
        assert rt._thread_pool is None and rt._process_pool is None
        rt.close()  # extra close after __exit__ stays safe

    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_close_idempotent_and_not_terminal(self, mode):
        rt = TaskRuntime(mode=mode, max_workers=2)
        assert rt.map(_square, range(4)) == [0, 1, 4, 9]
        rt.close()
        rt.close()  # second close is a no-op
        # close is not terminal: pools lazily rebuild
        assert rt.map(_square, range(4)) == [0, 1, 4, 9]
        rt.close()

    def test_close_swallows_shutdown_errors(self, monkeypatch):
        rt = TaskRuntime(mode="thread", max_workers=2)
        rt.map(_square, range(4))

        def bad_shutdown(wait=True):
            raise OSError("shutdown failed")

        monkeypatch.setattr(rt._thread_pool, "shutdown", bad_shutdown)
        rt.close()  # must not raise
        assert rt._thread_pool is None
        assert rt.map(_square, [7]) == [49]  # and a later map works
        rt.close()


class _FakeQueue:
    """Minimal JobQueue-shaped source for pump tests."""

    def __init__(self, items):
        self._items = list(items)
        self._lock = threading.Lock()
        self.closed = False

    def get(self, timeout=None):
        with self._lock:
            if self._items:
                return self._items.pop(0)
        if not self.closed:
            time.sleep(min(timeout or 0.01, 0.01))
        return None

    def close(self):
        self.closed = True


class TestPump:
    def test_drains_source_and_tracks_inflight(self):
        handled = []
        source = _FakeQueue(range(20))
        rt = TaskRuntime(mode="thread", max_workers=3, name="pump-test")
        rt.start_workers(source, handled.append)
        assert rt.started
        deadline = time.monotonic() + 5.0
        while len(handled) < 20 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert sorted(handled) == list(range(20))
        assert rt.workers_alive == 3
        source.close()
        deadline = time.monotonic() + 5.0
        while rt.workers_alive and time.monotonic() < deadline:
            time.sleep(0.005)
        assert rt.workers_alive == 0
        assert rt.inflight == 0
        rt.close()

    def test_handler_exceptions_do_not_kill_workers(self):
        handled = []

        def handler(item):
            if item % 2:
                raise RuntimeError("odd items explode")
            handled.append(item)

        source = _FakeQueue(range(10))
        rt = TaskRuntime(mode="thread", max_workers=2)
        rt.start_workers(source, handler)
        deadline = time.monotonic() + 5.0
        while len(handled) < 5 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert sorted(handled) == [0, 2, 4, 6, 8]
        assert rt.workers_alive == 2  # nobody died
        rt.stop_workers()
        rt.close()

    def test_start_workers_idempotent(self):
        source = _FakeQueue([])
        rt = TaskRuntime(mode="thread", max_workers=2)
        rt.start_workers(source, lambda item: None)
        first = list(rt._pump_threads)
        rt.start_workers(source, lambda item: None)
        assert rt._pump_threads == first
        rt.stop_workers()
        rt.close()
