"""Session.close() lifecycle contract: idempotent, exception-safe,
and finalizer-free — what lets long-running owners (the compression
service) call it unconditionally from ``finally``."""

import numpy as np
import pytest

from repro.api import Bound, Session, SessionError


class TestCloseIdempotence:
    def test_double_close_is_harmless(self):
        session = Session()
        session.close()
        session.close()

    def test_close_after_context_exit(self):
        with Session() as session:
            pass
        session.close()  # the context already closed it

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_double_close_per_executor(self, executor):
        session = Session(executor=executor)
        session.close()
        session.close()


class TestCloseExceptionSafety:
    def test_close_on_partially_constructed_session(self):
        """__init__ validates the entropy backend before the executor
        exists; close() on the partially-built instance must not
        raise (service shutdown paths cannot know how far a failed
        constructor got)."""
        try:
            Session(entropy_backend="definitely-not-a-backend")
        except SessionError:
            pass
        shell = Session.__new__(Session)  # no __init__ at all
        shell.close()

    def test_close_swallows_executor_failure(self):
        session = Session()

        class ExplodingExecutor:
            name = "exploding"

            def close(self):
                raise RuntimeError("teardown failed")

        session.executor = ExplodingExecutor()
        session.close()  # must not propagate

    def test_close_after_executor_use(self):
        session = Session(executor="thread")
        frames = np.random.default_rng(0).standard_normal(
            (4, 8, 8)).astype(np.float32)
        session.compress(frames, codec="szlike", bound=Bound.nrmse(0.1),
                         shards=2, seed=0)
        session.close()
        session.close()


class TestNoFinalizer:
    def test_session_defines_no_del(self):
        """Cleanup is explicit (close/context manager); a __del__
        would make teardown order GC-dependent and mask executor
        leaks."""
        assert "__del__" not in Session.__dict__
        assert not hasattr(Session, "__del__")

    def test_usable_after_close_with_lazy_executors(self):
        """Pooled executors recreate lazily; a closed session can
        still serve a follow-up call (close releases resources, it
        does not poison the object)."""
        session = Session(executor="thread")
        session.close()
        frames = np.random.default_rng(0).standard_normal(
            (4, 8, 8)).astype(np.float32)
        archive = session.compress(frames, codec="szlike",
                                   bound=Bound.nrmse(0.1), shards=2,
                                   seed=0)
        assert archive.to_bytes()
        session.close()
