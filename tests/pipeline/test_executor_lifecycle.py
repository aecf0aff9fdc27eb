"""Executor lifecycle under the engine: idempotent, non-terminal,
exception-safe close.

A :class:`~repro.pipeline.engine.CodecEngine` resolves its ``executor=``
backend name into a :class:`~repro.runtime.TaskRuntime` and holds it as
:attr:`executor`.  Each case id names a backend by the executor it
selects; the runtime behind it must survive repeated closes and rebuild
its pool for the next batch.
"""

import numpy as np
import pytest

from repro.bound import Bound
from repro.pipeline.engine import CodecEngine

BACKENDS = {"SerialExecutor": "serial", "ThreadExecutor": "thread",
            "ProcessExecutor": "process"}


def _double(x):
    return 2 * x


def _engine(mode):
    return CodecEngine("szlike", executor=mode, max_workers=2)


@pytest.mark.parametrize("mode", list(BACKENDS.values()), ids=list(BACKENDS))
def test_close_is_idempotent(mode):
    ex = _engine(mode).executor
    assert ex.mode == mode
    assert ex.map(_double, [1, 2, 3]) == [2, 4, 6]
    ex.close()
    ex.close()
    ex.close()


@pytest.mark.parametrize("mode", list(BACKENDS.values()), ids=list(BACKENDS))
def test_map_after_close_rebuilds(mode):
    """close() is not terminal: the engine keeps compressing after its
    executor was closed, with unchanged payloads."""
    engine = _engine(mode)
    rng = np.random.default_rng(0)
    stacks = [rng.standard_normal((4, 8, 8)) for _ in range(2)]
    before = engine.compress(stacks, bound=Bound.nrmse(0.05))
    engine.executor.close()
    after = engine.compress(stacks, bound=Bound.nrmse(0.05))
    assert [r.result.payload for r in after.reports] == \
        [r.result.payload for r in before.reports]
    engine.executor.close()
    assert engine.executor.map(_double, [1, 2, 3]) == [2, 4, 6]
    engine.executor.close()


def test_close_swallows_pool_shutdown_errors(monkeypatch):
    ex = _engine("thread").executor
    ex.map(_double, [1, 2, 3, 4])
    pool = ex._thread_pool
    assert pool is not None

    def bad_shutdown(wait=True):
        raise OSError("pool refused to die")

    monkeypatch.setattr(pool, "shutdown", bad_shutdown)
    ex.close()  # must not raise
    assert ex._thread_pool is None
    # and a later map still works
    assert ex.map(_double, [7]) == [14]
    ex.close()
