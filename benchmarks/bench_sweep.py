"""Resume-vs-recompute benchmark for journaled sweeps.

One szlike sweep over a single E3SM variable, sliced into four uneven
time windows (t=26, window=8 -> shards of 8, 8, 8 and 2 frames).  The
bench runs the sweep three ways —

* **full** — a fresh journal, every shard encoded from scratch (what
  discarding the interrupted journal and starting over costs);
* **interrupted** — journaled, killed by a fault injector riding the
  runtime event stream after K=2 of N=4 shards have committed;
* **resumed** — the interrupted journal is reopened and the sweep
  finishes, replaying the two durable shards and encoding only the
  remaining two.

Asserts the tentpole acceptance criteria end to end: the resumed
archive is **byte-identical** to the uninterrupted one, the resume
provably recomputes only the incomplete shards (``computed == 2``,
``resumed == 2``), and — because the two journaled shards cover ~62%
of the frames — resuming beats recomputing by at least
``RESUME_SPEEDUP_FLOOR``x.

Appends a ``sweep`` record to the ``BENCH_codecs.json`` trajectory so
future PRs that touch the runtime, the journal or the engine replay
path have a resume-overhead baseline to diff against.
"""

from __future__ import annotations

import json
import shutil
import time

from repro.api import Bound, Session
from repro.pipeline.plan import _variable_frames

from .bench_codec_registry import _append_trajectory, _prior_record
from .conftest import save_json

#: workload: one E3SM variable, four uneven time windows.  The serial
#: executor completes shards in order, so a crash after two commits
#: leaves 8+8=16 of 26 frames durable and only 10 to recompute.
SWEEP_T, SWEEP_H, SWEEP_W = 26, 48, 48
SWEEP_WINDOW = 8
SWEEP_SHARDS = 4  # ceil(26 / 8)
CRASH_AFTER = 2
SWEEP_SEED = 11
REL_BOUND = 1e-2
SWEEP_REPS = 5  # min-of-reps after an untimed warmup pass

#: acceptance criterion: journal resume vs full recompute.  The two
#: committed shards hold 16/26 of the frames, so the ideal speedup is
#: ~2.6x; 2.0x leaves room for replay/verify overhead.
RESUME_SPEEDUP_FLOOR = 2.0

SWEEP_KW = dict(bound=Bound.nrmse(REL_BOUND), window=SWEEP_WINDOW,
                seed=SWEEP_SEED, variables=[0],
                dataset_overrides={"t": SWEEP_T, "h": SWEEP_H,
                                   "w": SWEEP_W})


class _CrashAfter:
    """Event observer that kills the sweep after ``k`` completions."""

    def __init__(self, k: int):
        self.k = k
        self.completed = 0

    def __call__(self, event):
        if event.kind == "completed":
            self.completed += 1
            if self.completed >= self.k:
                raise KeyboardInterrupt(
                    f"injected crash after {self.k} shards")


def _timed_sweep(session, **kwargs):
    # the planner memoises synthetic variables; clear it so every
    # measured run pays the same generation cost
    _variable_frames.cache_clear()
    t0 = time.perf_counter()
    archive = session.sweep("e3sm", **SWEEP_KW, **kwargs)
    return time.perf_counter() - t0, archive


def _clone_journal(src, dst):
    shutil.copy2(src, dst)
    shutil.copytree(str(src) + ".objects", str(dst) + ".objects")


def test_sweep_resume_speedup(tmp_path):
    with Session(codec="szlike", executor="serial") as session:
        # untimed warmup: JIT-free python, but primes imports/caches
        # and pins the reference bytes every later run must match
        _, warm = _timed_sweep(session)
        reference = warm.to_bytes()
        assert warm.stats["shards"] == SWEEP_SHARDS

        # build the interrupted journal once: crash after K commits
        interrupted = tmp_path / "interrupted.journal"
        crash = _CrashAfter(CRASH_AFTER)
        try:
            session.sweep("e3sm", journal=interrupted, on_event=crash,
                          **SWEEP_KW)
        except KeyboardInterrupt:
            pass
        else:  # pragma: no cover - the injector must fire
            raise AssertionError("fault injector never fired")
        task_lines = sum('"kind":"task"' in line for line
                         in interrupted.read_text().splitlines())
        assert task_lines == CRASH_AFTER

        # interleave the two measurements so machine noise (and the
        # journal's per-shard fsyncs, which both sides now pay) lands
        # on them evenly
        full_times, resume_times = [], []
        for rep in range(SWEEP_REPS):
            journal = tmp_path / f"full-{rep}.journal"
            seconds, archive = _timed_sweep(session, journal=journal)
            assert archive.to_bytes() == reference
            assert archive.stats["computed_shards"] == SWEEP_SHARDS
            full_times.append(seconds)

            journal = tmp_path / f"resume-{rep}.journal"
            _clone_journal(interrupted, journal)
            seconds, archive = _timed_sweep(session, journal=journal)
            assert archive.to_bytes() == reference
            assert archive.stats["resumed_shards"] == CRASH_AFTER
            assert archive.stats["computed_shards"] == \
                SWEEP_SHARDS - CRASH_AFTER
            resume_times.append(seconds)

    full_seconds = min(full_times)
    resume_seconds = min(resume_times)
    speedup = full_seconds / resume_seconds

    record = {
        "workload": (f"e3sm-{SWEEP_T}x{SWEEP_H}x{SWEEP_W}-szlike-"
                     f"window{SWEEP_WINDOW}-serial"),
        "shards": SWEEP_SHARDS,
        "completed_at_crash": CRASH_AFTER,
        "full_seconds": round(full_seconds, 6),
        "resume_seconds": round(resume_seconds, 6),
        "resume_speedup": round(speedup, 2),
        "resume_speedup_floor": RESUME_SPEEDUP_FLOOR,
        "archive_bytes": len(reference),
        "byte_identical": True,
        "recomputed_shards": SWEEP_SHARDS - CRASH_AFTER,
    }
    prior = _prior_record("sweep")
    if prior:
        record["prior_resume_speedup"] = prior.get("resume_speedup")
    save_json("bench_sweep", record)
    _append_trajectory({"sweep": record})
    print(json.dumps(record, indent=2))

    assert speedup >= RESUME_SPEEDUP_FLOOR, (
        f"journal resume only {speedup:.2f}x faster than full recompute "
        f"(floor {RESUME_SPEEDUP_FLOOR}x): full={full_seconds:.3f}s "
        f"resume={resume_seconds:.3f}s")
