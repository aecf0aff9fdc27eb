"""Every ``Session`` source runs on the session's runtime.

A mapping, a frame stream and a sharded stack all fan out as
``CodecEngine`` tasks on ``Session.executor``, so:

* no thread started by a compress outlives ``close()``, whatever the
  executor;
* a process session runs variables and stream chunks in its worker
  processes;
* a codec that cannot ship as a spec is refused by a process session
  for every source, with the engine's ``TypeError``;
* a one-member source, whose single task the runtime runs inline,
  gets the session's live codec: nothing is rebuilt from a spec in the
  parent.
"""

import multiprocessing
import threading

import numpy as np
import pytest

from repro.api import Bound, Session
from repro.codecs import SZCodec, get_codec
from repro.pipeline import engine
from repro.pipeline.sources import ArrayStackSource

BOUND = Bound.nrmse(1e-2)

#: source name -> (build the source from a (T, H, W) stack, compress
#: kwargs); every source holds two members, so a 2-wide pool runs
SOURCES = {
    "mapping": (lambda f: {"u": f, "v": 2.0 * f + 1.0}, {}),
    "stream": (iter, {"chunk_windows": 4}),
    "shards": (lambda f: f, {"shards": 2}),
}

#: the same sources holding one member each
SINGLE_SOURCES = {
    "mapping": (lambda f: {"u": f}, {}),
    "stream": (iter, {"chunk_windows": 8}),
    "shards": (ArrayStackSource, {"shards": 1}),
}


def _compress(session, source, sources=SOURCES):
    build, kwargs = sources[source]
    frames = np.cumsum(np.random.default_rng(3).standard_normal(
        (8, 8, 8)), axis=0)
    return session.compress(build(frames), bound=BOUND, **kwargs)


@pytest.mark.parametrize("source", list(SOURCES))
@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
def test_close_leaves_no_thread_behind(executor, source):
    """``threading.active_count()`` after ``close()`` equals its value
    before the session existed: compared as the set of live threads, so
    a thread of an earlier test ending meanwhile cannot hide a leak."""
    before = set(threading.enumerate())
    session = Session(codec="szlike", executor=executor, workers=2)
    try:
        archive = _compress(session, source)
    finally:
        session.close()
    assert archive.stats["shards"] == 2
    leaked = [t.name for t in threading.enumerate() if t not in before]
    assert leaked == []


@pytest.mark.parametrize("source", list(SOURCES))
def test_process_session_runs_members_in_workers(source):
    before = set(multiprocessing.active_children())
    with Session(codec="szlike", executor="process",
                 workers=2) as session:
        _compress(session, source)
        started = set(multiprocessing.active_children()) - before
        assert started
    assert not started & set(multiprocessing.active_children())


@pytest.mark.parametrize("source", list(SOURCES))
def test_process_session_refuses_unshippable_codec(source):
    wrapped = SZCodec(impl=get_codec("szlike").impl)
    with Session(codec=wrapped, executor="process",
                 workers=2) as session:
        with pytest.raises(TypeError, match="serial or thread"):
            _compress(session, source)


@pytest.mark.parametrize("source", list(SINGLE_SOURCES))
def test_process_session_hands_inline_batches_the_live_codec(source,
                                                              monkeypatch):
    """The parent rebuilds no codec from its spec (the per-process spec
    cache stays empty) and writes the serial archive."""
    monkeypatch.setattr(engine, "_SPEC_CACHE", {})
    wires = {}
    for executor in ("serial", "process"):
        with Session(codec="szlike", executor=executor,
                     workers=2) as session:
            archive = _compress(session, source, SINGLE_SOURCES)
        assert archive.stats["shards"] == 1
        wires[executor] = archive.data
    assert engine._SPEC_CACHE == {}
    assert wires["process"] == wires["serial"]
