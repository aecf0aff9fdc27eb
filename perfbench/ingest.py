"""``ingest-szlike``: a facility ingesting a simulation dump with the
SZ3-class coder.

Set-up cuts a dump of ``T`` frames out of one fixed synthetic E3SM
simulation (the workload seed picks where) and writes it to ``.npy``.
Each round then runs, through the public API:

1. ``Session.compress(path, codec="szlike", shards=...)`` — out-of-core
   on the default thread executor under a fixed NRMSE bound; the
   archive must be byte-identical to the first compress of the dump;
2. ``Archive.save`` + lazy ``Archive.open(path)`` + full
   ``Session.decompress``; every shard must meet its pointwise bound;
3. a few ``decompress(select=slice(t0, t1))`` on a freshly opened
   file behind a :class:`~repro.pipeline.container.CountingReader`;
   each must equal the same slice of the full decode.  Every range
   straddles one shard boundary, so each select decodes two members
   (fanned out on the executor) and trims both.

Entropy coding, source reads, runtime fan-out and the RIX1 container
do the work here; ``nn`` and ``service`` do none.  ``goodput_ops_s``
counts the selects with the compress and the full decode, so it moves
with the select latency; the median select goes to the report as a
property.
"""

from __future__ import annotations

import os
import statistics

from .harness import MB, Deadline, Report, executor_width, peak_rss_mb
from .tracing import (Tracer, emit_layer_metrics, overhead, run_rounds,
                      span_metrics)

NAME = "ingest-szlike"

#: the simulation every dump is cut from; the workload seed picks the
#: dump, so dumps differ run to run while the field statistics (and so
#: the ratio) stay those of one simulation
SIM_SEED = 7
NRMSE_BOUND = 1e-2
SIZES = {
    False: dict(sim_t=320, t=64, hw=32, shards=4, selects=4,
                min_rounds=4),
    True: dict(sim_t=24, t=12, hw=16, shards=2, selects=2, min_rounds=2),
}


def setup(work: str, seed: int, toy: bool) -> dict:
    """Imports plus input generation: the dump on disk."""
    import numpy as np
    import repro.api  # noqa: F401  (the import cost belongs to set-up)
    from repro.data import get_dataset_spec
    size = SIZES[toy]
    sim = get_dataset_spec("e3sm", t=size["sim_t"], h=size["hw"],
                           w=size["hw"], seed=SIM_SEED).build().frames(0)
    t0 = int(np.random.default_rng(seed).integers(
        0, size["sim_t"] - size["t"] + 1))
    stack = np.ascontiguousarray(sim[t0:t0 + size["t"]], dtype=np.float32)
    path = os.path.join(work, "dump.npy")
    np.save(path, stack)
    return {"path": path, "stack": stack, "work": work}


def measure(state: dict, report: Report, seconds: float, trace: bool,
            toy: bool) -> None:
    import numpy as np
    from repro.api import Archive, Bound, Session
    from repro.pipeline.container import CountingReader

    size = SIZES[toy]
    stack, path = state["stack"], state["path"]
    arc_path = os.path.join(state["work"], "dump.shrd")
    bound = Bound.nrmse(NRMSE_BOUND)
    width = executor_width()
    rng = np.random.default_rng([report.seed, 1])
    first = {}
    read_shares = []
    tracer = Tracer() if trace else None

    def shard_problems(archive, restored):
        if restored.shape != stack.shape:
            return [f"decoded shape {restored.shape} != {stack.shape}"]
        problems = []
        for m in archive.index():
            x = stack[m.t0:m.t1].astype(np.float64)
            limit = bound.native_for(codec, x)
            err = float(np.max(np.abs(x - restored[m.t0:m.t1])))
            if not err <= limit:
                problems.append(f"shard {m.key} max error {err:.6g} > "
                                f"pointwise bound {limit:.6g}")
        return problems

    def one_round(timed):
        """One compress, one full decode, ``selects`` partial decodes."""
        archive = None
        with report.operation("compress") as problems:
            archive = timed("compress_s", lambda: session.compress(
                path, bound=bound, shards=size["shards"]))
            first.setdefault("archive", archive)
            if archive.to_bytes() != first["archive"].to_bytes():
                problems.append("archive differs from the first compress "
                                "of the same dump")
        if archive is None:
            return
        archive.save(arc_path)
        full = None
        with report.operation("decompress") as problems:
            full = timed("decompress_s", lambda: session.decompress(
                Archive.open(arc_path)))
            problems += shard_problems(archive, full)
        if full is None:
            return
        file_size = os.path.getsize(arc_path)
        members = archive.index()
        for _ in range(size["selects"]):
            k = int(rng.integers(1, len(members)))
            left, right = members[k - 1], members[k]
            a = int(rng.integers(left.t0, left.t1))
            b = int(rng.integers(right.t0, right.t1)) + 1
            with report.operation("select") as problems:
                with open(arc_path, "rb") as fh:
                    reader = CountingReader(fh)
                    part = timed("select_s", lambda: session.decompress(
                        Archive.open(reader), select=slice(a, b)))
                if not np.array_equal(part, full[a:b]):
                    problems.append(f"select [{a}, {b}) differs from the "
                                    f"full decode")
                read_shares.append(reader.bytes_read / file_size)

    with Session(codec="szlike", executor="thread",
                 workers=width) as session:
        codec = session.resolve_codec("szlike")
        traced_rounds, windows, cpu = run_rounds(
            one_round, report, Deadline(seconds), size["min_rounds"],
            tracer)

    nbytes = stack.nbytes
    archive = first["archive"]
    report.properties["container.select_read_share"] = (
        statistics.fmean(read_shares))
    if not trace:
        report.median_metric("compress_MBps", "compress_s", "MB/s",
                             nbytes / MB, invert=True)
        report.median_metric("decompress_MBps", "decompress_s", "MB/s",
                             nbytes / MB, invert=True)
        report.metric("ratio", nbytes / len(archive), "x",
                      len(report.series["compress_s"]))
        report.metric("peak_rss_MB", peak_rss_mb(), "MB", 1)
        report.median_metric("goodput_ops_s", "ops_per_s", "ops/s")
        report.properties["select_p50_ms"] = 1e3 * statistics.median(
            report.series["select_s"])
        return

    values = span_metrics(tracer.spans, traced_rounds, windows, width, cpu)
    payload = sum(e["payload_bytes"] for e in archive.describe()["entries"])
    values["container.overhead_bytes"] = len(archive) - payload
    values["container.select_read_share"] = (
        report.properties["container.select_read_share"])
    values["trace.overhead"] = overhead(report.series, (
        "compress_s", "decompress_s", "select_s"))
    report.properties["entropy.share"] = values["entropy.share"]
    report.properties["runtime.parallel_eff"] = values["runtime.parallel_eff"]
    report.spans = tracer.records()
    emit_layer_metrics(report, values,
                       {"container.select_read_share": len(read_shares)},
                       traced_rounds)
