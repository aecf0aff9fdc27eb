"""Span recording for traced runs, from outside the program.

:func:`instrument` wraps the public entry points of each layer with a
:class:`Tracer` and :meth:`Tracer.restore` puts the originals back.
Functions that other modules bound by name at import (``encode_ints``
in every baseline, ``generate_latents_batched`` in the compressor, ...)
are replaced in every ``repro`` module that holds them.  Nothing under
``src/`` changes; untraced runs never patch anything.

Each :class:`Span` records its layer and name, its parent, thread,
start and end (``time.perf_counter``, which on Linux is the
system-wide monotonic clock, so spans of a server process line up with
the client's), the thread CPU time of the call and its bytes in/out.

Layer times are thread CPU seconds: on a pool thread the wall time of
a call also counts the time it waited for the interpreter lock while
another thread ran, so wall durations of concurrent spans add up to
more than the wall time they share.  A span's *self* time is its CPU
time minus that of its child spans on the same thread.  Wall intervals
serve for fan-out walls and for the share of end-to-end wall time no
span covers.

Codec calls that an engine fan-out hands to pool threads start on a
thread with no open span; they take the open fan-out span as parent
(the most recent one, should two fan-outs run at once).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time
from dataclasses import asdict, dataclass
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

import numpy as np

from .harness import ROOT, Deadline, RoundClock, pin_process


def interval_union(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def clip(intervals: Iterable[Tuple[float, float]],
         windows: Sequence[Tuple[float, float]]
         ) -> List[Tuple[float, float]]:
    """Intersections of ``intervals`` with any of ``windows``."""
    out = []
    for start, end in intervals:
        for w0, w1 in windows:
            a, b = max(start, w0), min(end, w1)
            if b > a:
                out.append((a, b))
    return out


@dataclass
class Span:
    id: int
    parent: Optional[int]
    layer: str
    name: str
    thread: int
    start: float
    end: float = 0.0
    #: thread CPU seconds spent in the call
    cpu: float = 0.0
    bytes_in: int = 0
    bytes_out: int = 0
    #: symbols coded, for entropy spans
    items: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _nbytes(obj) -> int:
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    return 0


def _measure_call(span: Span, args: Sequence, out) -> None:
    """Default size accounting: first array/bytes argument in, the
    result (or the first element of a tuple result) out."""
    for arg in args:
        if isinstance(arg, (bytes, bytearray, memoryview, np.ndarray)):
            span.bytes_in = _nbytes(arg)
            if isinstance(arg, np.ndarray) and span.layer == "entropy":
                span.items = arg.size
            break
    result = out[0] if isinstance(out, tuple) and out else out
    span.bytes_out = _nbytes(result)
    if span.layer == "entropy" and not span.items \
            and isinstance(result, np.ndarray):
        span.items = result.size


def _measure_decode_ints(span: Span, args: Sequence, out) -> None:
    values, end = out
    offset = args[1] if len(args) > 1 else 0
    span.bytes_in, span.bytes_out = end - offset, values.nbytes
    span.items = values.size


def _measure_correct(span: Span, args: Sequence, out) -> None:
    span.bytes_in = _nbytes(args[1])
    span.bytes_out = len(out.payload)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._fanouts: List[Span] = []
        self._patches: List[tuple] = []
        #: off after :meth:`restore`: a module that imported a wrapped
        #: function while patched keeps it, and it must record nothing
        self.active = False

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, layer: str, name: str, *,
             fanout: bool = False, task: bool = False,
             measure: Callable = _measure_call) -> Callable:
        """``fn`` recording one span per call.  ``fanout`` marks an
        engine call whose pool tasks adopt it; ``task`` marks a call a
        pool thread may run with no open span.  A call nested directly
        in a span of the same layer and name records nothing (an
        override calling its base class)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack and (stack[-1].layer, stack[-1].name) == (layer, name):
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            if parent is None and task:
                with tracer._lock:
                    parent = tracer._fanouts[-1] if tracer._fanouts else None
            span = Span(next(tracer._ids), parent and parent.id, layer,
                        name, threading.get_ident(), time.perf_counter())
            stack.append(span)
            if fanout:
                with tracer._lock:
                    tracer._fanouts.append(span)
            cpu0 = time.thread_time()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.cpu = time.thread_time() - cpu0
                span.end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    if fanout:
                        tracer._fanouts.remove(span)
                    tracer.spans.append(span)
            measure(span, args, out)
            return out

        return traced

    # -- patching --------------------------------------------------------
    def patch_method(self, cls: type, attr: str, layer: str, name: str,
                     **kw) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, layer, name, **kw))
        self._patches.append((cls, attr, original))

    def patch_function(self, fn: Callable, layer: str, name: str,
                       **kw) -> None:
        """Replace ``fn`` wherever a ``repro`` module binds it."""
        traced = self.wrap(fn, layer, name, **kw)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, traced)
                    self._patches.append((mod, attr, fn))

    def restore(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def records(self) -> List[dict]:
        return [asdict(s) for s in self.spans]


def _defining(roots: Iterable[type], method: str) -> List[type]:
    """Classes in the MROs of ``roots`` that define ``method`` themselves
    (abstract declarations excluded), each once."""
    found: List[type] = []
    for root in roots:
        for cls in root.__mro__:
            fn = cls.__dict__.get(method)
            if (fn is not None and cls not in found
                    and not getattr(fn, "__isabstractmethod__", False)):
                found.append(cls)
    return found


def instrument(tracer: Tracer) -> Tracer:
    """Wrap every layer entry point the per-layer metrics read."""
    from repro.api import Session
    from repro.codecs import codec_specs
    from repro.compression import VAEHyperprior
    from repro.diffusion.sampler import generate_latents_batched
    from repro.entropy.backend import get_backend, list_backends
    from repro.pipeline.container import verify_member
    from repro.pipeline.engine import CodecEngine
    from repro.pipeline.plan import pack_shard_archive, read_shard_index
    from repro.pipeline.sources import NpyStackSource
    from repro.pipeline.training import TwoStageTrainer
    from repro.postprocess import ErrorBoundCorrector
    from repro.postprocess.coding import decode_ints, encode_ints

    t = tracer
    t.active = True
    t.patch_method(Session, "compress", "api", "compress")
    t.patch_method(Session, "decompress", "api", "decompress")
    t.patch_method(NpyStackSource, "read", "sources", "read")
    for method in ("compress", "compress_plan", "decompress"):
        t.patch_method(CodecEngine, method, "runtime", method, fanout=True)
    codecs = [spec.cls for spec in codec_specs().values()]
    for method, name in (("compress_bounded", "encode"),
                         ("decompress", "decode")):
        for cls in _defining(codecs, method):
            t.patch_method(cls, method, "codec", name, task=True)
    t.patch_function(encode_ints, "entropy", "encode_ints")
    t.patch_function(decode_ints, "entropy", "decode_ints",
                     measure=_measure_decode_ints)
    backends = [type(get_backend(name)) for name in list_backends()]
    for method in ("encode", "decode"):
        for cls in _defining(backends, method):
            t.patch_method(cls, method, "entropy", f"backend_{method}")
    t.patch_method(VAEHyperprior, "compress", "nn", "vae_encode")
    t.patch_method(VAEHyperprior, "decompress_latents", "nn",
                   "vae_decompress_latents")
    t.patch_method(VAEHyperprior, "decode_latents", "nn", "vae_decode")
    t.patch_function(generate_latents_batched, "nn", "sample")
    t.patch_method(ErrorBoundCorrector, "correct", "postprocess",
                   "correct", measure=_measure_correct)
    t.patch_method(ErrorBoundCorrector, "apply", "postprocess", "apply")
    for stage in ("train_vae", "train_diffusion", "fit_corrector"):
        t.patch_method(TwoStageTrainer, stage, "training", stage)
    t.patch_function(pack_shard_archive, "container", "pack")
    t.patch_function(read_shard_index, "container", "open_index")
    t.patch_function(verify_member, "container", "verify")
    return tracer


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def span_metrics(spans: Sequence[Span], units: int,
                 windows: Sequence[tuple], width: int,
                 cpu: float) -> Dict[str, float]:
    """Per-layer metrics derived from spans alone.

    Times and counts are per unit of work (``units``: rounds, or served
    jobs).  ``windows`` are the wall intervals of the timed operations,
    which the unattributed share refers to; ``cpu`` is the CPU time the
    measured process used in them, which the entropy share refers to.
    """
    children: Dict[int, List[Span]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def self_time(s: Span) -> float:
        return s.cpu - sum(c.cpu for c in children.get(s.id, ())
                           if c.thread == s.thread)

    def pick(layer: str, *names: str) -> List[Span]:
        return [s for s in spans if s.layer == layer
                and (not names or s.name in names)]

    def per_unit(value: float) -> float:
        return value / units if units else 0.0

    def total(items: Iterable[Span], self_only: bool = False) -> float:
        return sum(self_time(s) if self_only else s.cpu for s in items)

    wall = interval_union(windows)
    out: Dict[str, float] = {}
    out["api.compress_self_s"] = per_unit(total(pick("api", "compress"), True))
    out["api.decompress_self_s"] = per_unit(
        total(pick("api", "decompress"), True))
    out["sources.read_s"] = per_unit(total(pick("sources")))

    fanouts = pick("runtime")
    fanout_ids = {s.id for s in fanouts}
    tasks = [s for s in pick("codec") if s.parent in fanout_ids]
    fanout_wall = sum(s.duration for s in fanouts)
    busy = total(tasks)
    out["runtime.tasks"] = per_unit(len(tasks))
    out["runtime.fanout_wall_s"] = per_unit(fanout_wall)
    out["runtime.busy_s"] = per_unit(busy)
    out["runtime.parallel_eff"] = (busy / (fanout_wall * width)
                                   if fanout_wall else 0.0)

    out["codec.encode_self_s"] = per_unit(total(pick("codec", "encode"), True))
    out["codec.decode_self_s"] = per_unit(total(pick("codec", "decode"), True))

    def outermost(s: Span) -> bool:
        parent = by_id.get(s.parent)
        return parent is None or parent.layer != "entropy"

    entropy = [s for s in pick("entropy") if outermost(s)]
    enc = [s for s in entropy if "encode" in s.name]
    dec = [s for s in entropy if "decode" in s.name]
    symbols = sum(s.items for s in enc)
    out["entropy.encode_s"] = per_unit(total(enc))
    out["entropy.decode_s"] = per_unit(total(dec))
    out["entropy.calls"] = per_unit(len(entropy))
    out["entropy.symbols"] = per_unit(symbols)
    out["entropy.bits_per_symbol"] = (
        8.0 * sum(s.bytes_out for s in enc) / symbols if symbols else 0.0)
    out["entropy.share"] = total(entropy) / cpu if cpu else 0.0

    out["nn.vae_encode_s"] = per_unit(total(pick("nn", "vae_encode"), True))
    out["nn.sample_s"] = per_unit(total(pick("nn", "sample")))
    out["nn.vae_decode_s"] = per_unit(total(
        pick("nn", "vae_decode", "vae_decompress_latents"), True))

    out["postprocess.correct_self_s"] = per_unit(
        total(pick("postprocess", "correct"), True))
    out["postprocess.apply_self_s"] = per_unit(
        total(pick("postprocess", "apply"), True))

    out["container.pack_s"] = per_unit(total(pick("container", "pack")))
    out["container.open_index_s"] = per_unit(
        total(pick("container", "open_index")))
    out["container.verify_s"] = per_unit(total(pick("container", "verify")))

    covered = interval_union(clip([(s.start, s.end) for s in spans],
                                  windows))
    out["trace.unattributed_share"] = 1.0 - covered / wall if wall else 0.0
    return out


def run_rounds(one_round: Callable, report, deadline: Deadline,
               min_rounds: int, tracer: Optional[Tracer],
               alternate_cpus: bool = False) -> tuple:
    """An untimed warm-up round, then rounds until ``deadline`` (at
    least ``min_rounds``).  With a ``tracer`` every other round is
    traced, its samples going to ``traced.*`` series.  ``one_round``
    takes a :class:`~perfbench.harness.RoundClock`.  Each round also
    samples ``ops_per_s``: its operations that passed their checks per
    second of their wall time.  Returns the traced rounds' ``(count,
    wall intervals, CPU)``.

    With ``alternate_cpus`` the process runs on one CPU at a time, the
    CPUs taking turns every two rounds (an untraced and a traced one),
    for workloads that run one thread at a time.  The vCPUs of a
    shared host run at speeds that differ and change within seconds;
    taking turns samples each of them equally in every run.
    """
    one_round(RoundClock(report, None))
    cpus = sorted(os.sched_getaffinity(0))
    rounds, traced_rounds, windows, cpu = 0, 0, [], 0.0
    try:
        while rounds < min_rounds or not deadline.passed():
            if alternate_cpus:
                pin_process({cpus[rounds // 2 % len(cpus)]})
            traced = tracer is not None and rounds % 2 == 1
            clock = RoundClock(report, "traced." if traced else "")
            if traced:
                instrument(tracer)
            passed = report.attempted - report.failed
            try:
                one_round(clock)
            finally:
                if traced:
                    tracer.restore()
            wall = sum(t1 - t0 for t0, t1 in clock.windows)
            if wall:
                report.sample(clock.prefix + "ops_per_s",
                              (report.attempted - report.failed - passed)
                              / wall)
            if traced:
                traced_rounds += 1
                windows += clock.windows
                cpu += clock.cpu
            rounds += 1
    finally:
        pin_process(set(cpus))
    return traced_rounds, windows, cpu


def overhead(series: Dict[str, List[float]], names: Sequence[str]) -> float:
    """Traced / untraced wall for the same operations: the summed
    per-operation medians of the traced rounds over the untraced ones."""
    traced = sum(statistics.median(series["traced." + n]) for n in names)
    plain = sum(statistics.median(series[n]) for n in names)
    return traced / plain


def emit_layer_metrics(report, values: Dict[str, float],
                       samples: Dict[str, int], default_samples: int
                       ) -> None:
    """Set every per-layer metric ``BENCHMARK.json`` declares on
    ``report`` (0 where the workload gave no value: the layer did no
    work)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        per_layer = json.load(fh)["per_layer"]
    undeclared = set(values) - {m["name"] for m in per_layer}
    if undeclared:
        raise ValueError(f"per-layer values BENCHMARK.json does not "
                         f"declare: {sorted(undeclared)}")
    for m in per_layer:
        report.metric(m["name"], values.get(m["name"], 0.0), m["unit"],
                      samples.get(m["name"], default_samples))
