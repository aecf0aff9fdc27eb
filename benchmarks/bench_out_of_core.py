"""Out-of-core ingestion smoke: bounded peak RSS + random access.

Compresses a multi-chunk on-disk ``.npy`` stack through the chunked
``Session.compress`` path and asserts a **hard peak-RSS ceiling** far
below the dataset size — the bounded-memory contract of the
out-of-core pipeline, measured with ``resource.ru_maxrss`` (a process
high-watermark, so the test data is written with plain buffered file
writes, never materializing the stack or mapping it resident).

It then reads one time window back through the footer index
(``select=``) with a byte-counting reader, asserting the partial read
touches O(footer + selected members) bytes, and appends an ``ooc``
record to the ``BENCH_codecs.json`` trajectory.

The workload (256x128x128 float64, ~33.5 MB) is sized for the
non-blocking CI smoke job: big enough that a slurping implementation
would blow the ceiling by several multiples, small enough to finish in
well under a minute of szlike encode.
"""

from __future__ import annotations

import pathlib
import resource
import sys
import time

import numpy as np

from repro.api import Archive, Bound, Session
from repro.pipeline.container import CountingReader
from repro.pipeline.sources import NpyStackSource

from .bench_codec_registry import _append_trajectory, _prior_record
from .conftest import save_json

REL_BOUND = 1e-2

#: workload geometry: 32 shards of 8 frames, streamed one shard at a
#: time (chunk working set ~1 MB vs a ~33.5 MB dataset; the codec's
#: per-shard transients scale with the chunk, so small shards keep the
#: measured high-watermark close to the true streaming floor)
OOC_T, OOC_H, OOC_W = 256, 128, 128
OOC_SHARDS = 32
OOC_CHUNK_SHARDS = 1
OOC_GEN_BLOCK = 32  # frames per buffered write while generating data

#: acceptance criterion: the compress-side RSS high-watermark may grow
#: by at most this much over the pre-compress baseline — a fraction of
#: the dataset, so any whole-stack slurp (or resident mmap) fails hard
OOC_RSS_CEILING_BYTES = 12 << 20
#: acceptance criterion: reading one window back must touch at most
#: this fraction of the archive
OOC_MAX_BYTES_RATIO = 0.35


def _rss_bytes() -> int:
    """Process peak RSS in bytes (``ru_maxrss`` is KB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak * (1 if sys.platform == "darwin" else 1024)


def _write_stack(path: pathlib.Path) -> int:
    """Stream a synthetic (T, H, W) stack to ``path`` in small blocks.

    Plain buffered writes on purpose: ``np.lib.format.open_memmap``
    would map the array and count its resident pages toward the very
    high-watermark this bench asserts on.
    """
    header = {"descr": "<f8", "fortran_order": False,
              "shape": (OOC_T, OOC_H, OOC_W)}
    y = np.linspace(0.0, np.pi, OOC_H)[:, None]
    x = np.linspace(0.0, np.pi, OOC_W)[None, :]
    rng = np.random.default_rng(11)
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for t0 in range(0, OOC_T, OOC_GEN_BLOCK):
            ts = np.arange(t0, min(t0 + OOC_GEN_BLOCK, OOC_T))
            block = (np.sin(0.05 * ts)[:, None, None]
                     * np.sin(y) * np.cos(x)
                     + 0.05 * rng.standard_normal(
                         (ts.size, OOC_H, OOC_W)))
            fh.write(np.ascontiguousarray(block).tobytes())
    return path.stat().st_size


def test_out_of_core_smoke(tmp_path):
    npy_path = tmp_path / "ooc_stack.npy"
    dataset_bytes = _write_stack(npy_path)
    assert OOC_RSS_CEILING_BYTES < dataset_bytes / 2, \
        "ceiling must stay meaningfully below the dataset size"

    session = Session(codec="szlike", executor="serial")

    # --- bounded-memory compress -----------------------------------
    baseline = _rss_bytes()
    t0 = time.perf_counter()
    archive = session.compress(
        str(npy_path), bound=Bound.nrmse(REL_BOUND), shards=OOC_SHARDS,
        chunk_shards=OOC_CHUNK_SHARDS)
    compress_wall = time.perf_counter() - t0
    rss_delta = max(0, _rss_bytes() - baseline)
    assert rss_delta <= OOC_RSS_CEILING_BYTES, (
        f"chunked compress grew peak RSS by {rss_delta} bytes "
        f"(ceiling {OOC_RSS_CEILING_BYTES}, dataset {dataset_bytes})")

    arc_path = tmp_path / "ooc_stack.shrd"
    archive.save(arc_path)
    arc_bytes = arc_path.stat().st_size

    # --- random access back through the footer index ---------------
    members = Archive.open(arc_path).index()
    assert len(members) == OOC_SHARDS
    target = members[len(members) // 2]
    with open(arc_path, "rb") as fh:
        counter = CountingReader(fh)
        t0 = time.perf_counter()
        window = session.decompress(Archive.open(counter),
                                    select=slice(target.t0, target.t1))
        partial_wall = time.perf_counter() - t0
        partial_bytes = counter.bytes_read
    bytes_ratio = partial_bytes / arc_bytes
    assert bytes_ratio <= OOC_MAX_BYTES_RATIO, (partial_bytes, arc_bytes)

    # the window must reconstruct the on-disk source within the bound
    src = NpyStackSource(npy_path).read(target.t0, target.t1)
    assert window.shape == src.shape
    rng_ = float(src.max() - src.min())
    nrmse = float(np.sqrt(np.mean((window - src) ** 2))) / rng_
    assert nrmse <= REL_BOUND * 1.01, nrmse
    session.close()

    row = {
        "workload": (f"npy-{OOC_T}x{OOC_H}x{OOC_W}-f8-"
                     f"x{OOC_SHARDS}shards-chunk{OOC_CHUNK_SHARDS}-"
                     f"szlike-serial"),
        "dataset_bytes": dataset_bytes,
        "archive_bytes": arc_bytes,
        "compress_seconds": round(compress_wall, 6),
        "rss_delta_bytes": int(rss_delta),
        "rss_ceiling_bytes": OOC_RSS_CEILING_BYTES,
        "partial_read_seconds": round(partial_wall, 6),
        "partial_bytes_read": int(partial_bytes),
        "bytes_read_ratio": round(bytes_ratio, 4),
        "window_nrmse": round(nrmse, 6),
    }
    prior = _prior_record("ooc")
    print(f"\nout-of-core smoke ({row['workload']}):")
    print(f"  dataset {dataset_bytes} B -> archive {arc_bytes} B in "
          f"{compress_wall:.2f}s")
    print(f"  peak-RSS delta {rss_delta} B "
          f"(ceiling {OOC_RSS_CEILING_BYTES} B, "
          f"dataset/ceiling x{dataset_bytes / OOC_RSS_CEILING_BYTES:.1f})")
    print(f"  window [{target.t0},{target.t1}) read in "
          f"{partial_wall:.3f}s over {partial_bytes} B "
          f"(ratio {bytes_ratio:.3f}), nrmse {nrmse:.5f}")
    if prior.get("compress_seconds"):
        print(f"  vs prior compress "
              f"{compress_wall / max(prior['compress_seconds'], 1e-9):.2f}x, "
              f"rss delta was {prior.get('rss_delta_bytes')} B")

    save_json("out_of_core_smoke", row)
    _append_trajectory({"ooc": row})
