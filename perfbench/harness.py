"""Shared benchmark plumbing: thread pinning, statistics, run facts and
the per-run :class:`Report` every workload fills.

A run measures *series* (one list of samples per quantity, never
shared between two metrics), turns each into one metric value with its
unit and sample count, and counts every operation it attempted and
every one whose output check failed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

#: checkout root (the directory holding ``perfbench/`` and ``src/``)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: BLAS threads per process: pinned so that executor threads x BLAS
#: threads never exceeds the two cores the benchmark budgets for
BLAS_THREADS = 1
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: one MB, for every MB and MB/s metric
MB = 1e6

#: nominal seconds of one :func:`host_reference` sample, about its
#: median on the 2-vCPU shared VM the benchmark was tuned on; the time
#: metrics in :data:`HOST_SCALED` are reported at this host speed
REFERENCE_S = 0.005
#: end-to-end metrics reported at the nominal host speed, each with the
#: power of the host's speed it moves with (1: a rate, -1: a time)
HOST_SCALED = {"compress_MBps": 1, "decompress_MBps": 1,
               "goodput_ops_s": 1, "setup_s": -1}

#: how many times a run repeats its set-up to report ``setup_s``; the
#: first of them run before the measured window and the rest after
#: it, so that like the other metrics ``setup_s`` samples the whole run
#: rather than the host's speed in its first seconds
SETUP_REPEATS = 7
SETUP_BEFORE = SETUP_REPEATS // 2 + 1


def pin_threads() -> None:
    """Pin BLAS threading for this process and its children.  Must run
    before NumPy is first imported."""
    for name in _BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)


def executor_width() -> int:
    """Session executor width: the usable cores, capped at two so the
    thread budget matches on every host."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def pin_process(cpus, pid: str = "self") -> None:
    """Run every thread of a process (this one by default), and the
    threads they start later, on ``cpus``."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except OSError:  # the thread ended meanwhile
            pass


@functools.lru_cache(maxsize=None)
def _reference_data():
    import numpy as np
    return np.random.default_rng(0).random(200_000)


def _reference_kernel() -> float:
    """A fixed pure-Python loop and a NumPy sort: the interpreter and
    NumPy work the workloads do, none of it the program's code."""
    import numpy as np
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    return acc + float(np.sort(_reference_data())[-1])


def host_reference(cpus=None) -> float:
    """Seconds :func:`_reference_kernel` takes on the host right now:
    the mean over ``cpus`` (default: those this thread may use), the
    calling thread pinned to each in turn.

    The vCPUs of a shared host speed up and slow down together by up to
    1.9x over minutes; a run's median sample says how fast the host ran
    during it, and :meth:`Report.at_host_speed` scales the time metrics
    to :data:`REFERENCE_S`.
    """
    _reference_data()  # made once, untimed
    before = os.sched_getaffinity(0)
    cpus = sorted(before if cpus is None else cpus)
    total = 0.0
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            _reference_kernel()
            total += time.perf_counter() - t0
    finally:
        os.sched_setaffinity(0, before)
    return total / len(cpus)


def child_env() -> Dict[str, str]:
    """Environment for subprocesses: pinned threads, ``src`` importable."""
    env = dict(os.environ)
    for name in _BLAS_ENV:
        env[name] = str(BLAS_THREADS)
    env["PYTHONPATH"] = SRC
    return env


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
#: tail percentiles a run may report, highest first (whole percents)
_TAILS = (99, 95, 90, 80, 75)


def tail(values: Sequence[float]) -> Optional[Tuple[int, float, int]]:
    """``(pct, value, beyond)`` for the highest percentile with at least
    ten samples strictly above it, or None for too small a sample."""
    if len(values) < 11:
        return None
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    for pct in _TAILS:
        value = cuts[pct - 1]
        beyond = sum(1 for v in values if v > value)
        if beyond >= 10:
            return pct, value, beyond
    return None


def tail_note(values: Sequence[float], convert=float) -> Dict[str, object]:
    """``{"tail": {pct, value, beyond}}`` for :meth:`Report.metric`, the
    value passed through ``convert``; empty when :func:`tail` finds
    none."""
    found = tail(values)
    if found is None:
        return {}
    pct, at, beyond = found
    return {"tail": {"pct": pct, "value": convert(at), "beyond": beyond}}


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / MB
    raise RuntimeError(f"no VmHWM in {path}")


# ----------------------------------------------------------------------
# run facts
# ----------------------------------------------------------------------
def _git_rev() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    """SHA-256 over every ``src/**/*.py`` (the code under test), so a
    checkout without git history still identifies its revision."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def run_facts(workload: str, seed: int, **extra) -> Dict[str, object]:
    """Host, toolchain and configuration facts stamped on every run."""
    import numpy as np
    from repro.entropy import get_default_backend
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed,
        "git_rev": _git_rev(), "src_sha256": _src_digest(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "entropy_backend": get_default_backend().name,
        **extra,
    }


# ----------------------------------------------------------------------
# the per-run report
# ----------------------------------------------------------------------
class Report:
    """Series, operation outcomes and metrics of one benchmark run."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.series: Dict[str, List[float]] = {}
        self.metrics: Dict[str, Dict[str, object]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.facts: Dict[str, object] = {}
        #: workload properties later claims cite (shares, hit rates)
        self.properties: Dict[str, float] = {}
        self.spans: Optional[List[dict]] = None

    # -- samples and outcomes ------------------------------------------
    def sample(self, series: str, value: float) -> None:
        self.series.setdefault(series, []).append(float(value))

    def outcome(self, what: str, problems: Sequence[str]) -> None:
        """Count one attempted operation; it failed if any output check
        reported a problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {problems[0]}")

    @contextmanager
    def operation(self, what: str):
        """Run one operation; an exception counts it as failed (the run
        goes on) and the ``problems`` list it yields collects failed
        output checks."""
        problems: List[str] = []
        try:
            yield problems
        except Exception as exc:  # one broken op must not end the run
            problems.append(f"{type(exc).__name__}: {exc}")
        self.outcome(what, problems)

    # -- metrics ---------------------------------------------------------
    def metric(self, name: str, value: float, unit: str,
               samples: int, **extra) -> None:
        if name in self.metrics:
            raise ValueError(f"metric {name!r} set twice")
        if not math.isfinite(value):
            raise ValueError(f"metric {name!r} is {value!r}")
        self.metrics[name] = {"value": float(value), "unit": unit,
                              "samples": int(samples), **extra}

    def median_metric(self, name: str, series: str, unit: str,
                      scale: float = 1.0, invert: bool = False) -> None:
        """Metric from the median of one series: ``scale * median`` or,
        with ``invert``, ``scale / median`` (a throughput from times)."""
        values = self.series[series]

        def convert(x: float) -> float:
            return scale / x if invert else scale * x

        self.metric(name, convert(statistics.median(values)), unit,
                    len(values), series=series,
                    **tail_note(values, convert))

    def at_host_speed(self) -> None:
        """Scale the :data:`HOST_SCALED` metrics from the host speed of
        this run (median ``host_ref_s`` sample) to :data:`REFERENCE_S`;
        each keeps its measured value as ``raw``."""
        ref = statistics.median(self.series["host_ref_s"])
        self.facts.update(host_ref_s=ref, reference_s=REFERENCE_S)
        for name, power in HOST_SCALED.items():
            m = self.metrics[name]
            scale = (ref / REFERENCE_S) ** power
            m["raw"] = m["value"]
            m["value"] = m["raw"] * scale
            if "tail" in m:
                m["tail"]["value"] *= scale

    # -- output ----------------------------------------------------------
    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def result_line(self) -> str:
        """The final stdout line: the machine-readable result."""
        return json.dumps({
            "correct": self.correct, "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                        for name, m in self.metrics.items()}})

    def summary(self) -> List[str]:
        """Human-readable lines printed before the result line."""
        lines = [f"perfbench {self.workload} seed={self.seed} "
                 f"trace={int(self.trace)}"]
        for name, m in self.metrics.items():
            line = (f"  {name:32s} {m['value']:14.6g} {m['unit']:11s} "
                    f"n={m['samples']}")
            if "raw" in m:
                line += f"  (measured {m['raw']:.6g})"
            tl = m.get("tail")
            if tl:
                line += (f"  (p{tl['pct']:g} of the series: "
                         f"{tl['value']:.6g}, {tl['beyond']} beyond)")
            lines.append(line)
        for name, value in sorted(self.properties.items()):
            lines.append(f"  property {name} = {value:.6g}")
        lines.append(f"  operations: {self.attempted} attempted, "
                     f"{self.failed} failed")
        lines.extend(f"  FAILED {msg}" for msg in self.failures)
        return lines

    def to_dict(self) -> Dict[str, object]:
        return {"facts": self.facts, "correct": self.correct,
                "attempted": self.attempted, "failed": self.failed,
                "failures": self.failures, "metrics": self.metrics,
                "properties": self.properties, "series": self.series,
                "spans": self.spans}


class RoundClock:
    """Times the operations of one round: their wall intervals, the
    process CPU they used and, unless ``prefix`` is None (the untimed
    warm-up), one sample per operation in series ``prefix + name``,
    each after a ``host_ref_s`` sample of the host's speed."""

    def __init__(self, report: Report, prefix: Optional[str]):
        self.report = report
        self.prefix = prefix
        self.windows: List[Tuple[float, float]] = []
        self.cpu = 0.0

    def __call__(self, series: Optional[str], fn):
        """Run ``fn()`` as one timed operation (``series`` None: no
        sample) and return its result."""
        if self.prefix is not None:
            self.report.sample("host_ref_s", host_reference())
        c0, t0 = time.process_time(), time.perf_counter()
        out = fn()
        t1 = time.perf_counter()
        self.cpu += time.process_time() - c0
        self.windows.append((t0, t1))
        if self.prefix is not None and series is not None:
            self.report.sample(self.prefix + series, t1 - t0)
        return out


class Deadline:
    """The measured window of a run: ``seconds`` from construction."""

    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def passed(self) -> bool:
        return time.perf_counter() >= self.end


def write_json(path: str, payload: object) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def stderr(*parts: object) -> None:
    print(*parts, file=sys.stderr, flush=True)
