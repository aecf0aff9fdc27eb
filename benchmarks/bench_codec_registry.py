"""Codec-registry smoke benchmark: perf baseline for every codec.

Times compress and decompress of **every registered codec** on one
fixed synthetic workload (E3SM-like, 12x16x16, seed 11) and appends a
record to the ``BENCH_codecs.json`` trajectory file at the repo root,
so future PRs that touch a codec or the engine have a
commit-over-commit perf baseline to diff against.

Learned codecs run *untrained* — this is a throughput smoke test of
the encode/decode machinery (VAE transforms, entropy coding, reverse
diffusion), not a rate-distortion measurement; untrained weights
execute the identical compute graph.  Bounded codecs run at a fixed
relative bound of 1e-2.

The record also carries an **executor comparison**: the same shard
plan (E3SM-like, 8 time shards) run through the serial, thread and
process backends for a sample of rule-based codecs, so the engine's
backend dispatch has its own perf trajectory.  Process pools are kept
warm across repetitions (fork cost is a per-sweep constant, not a
per-batch one) and reconstructions stay in the workers
(``keep_reconstruction=False``), matching how production sweeps run.
On a single-CPU box the thread and process backends measure within a
few percent of serial (there is nothing to parallelize); the process
pool's advantage over the GIL-bound codec loops appears with real
cores.

The ``nn`` block times compress+decompress of every learned codec,
embeds the top ops of a profiled decompress (``repro.nn.profile``; the
full table is written to ``BENCH_nn_profile.txt`` for CI to upload),
and carries a ``training`` row: the median milliseconds per stage-1
(VAE) and stage-2 (diffusion) step of the ``tiny`` ``ours`` config on
the ``flagship-ours`` window shape.  Every record carries the host
facts it was measured on (``host``).
Entries up to the one where every nn module got a single forward also
carry ``legacy_seconds``/``speedup`` against an in-run emulation of
the op-chain path; that path is gone, so later entries time the one
path there is.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np

from repro.api import Bound, Session
from repro.codecs import get_codec, list_codecs
from repro.data import get_dataset_spec
from repro.entropy import (ArithmeticDecoder, ArithmeticEncoder,
                           get_backend, list_backends)
from repro.entropy.coder import pmf_to_cumulative
from repro.pipeline.engine import CodecEngine
from repro.pipeline.plan import (pack_shard_archive, plan_shards,
                                 ShardEntry)
from repro.runtime import TaskRuntime

from .conftest import host_facts, save_json

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "BENCH_codecs.json"

REL_BOUND = 1e-2

#: executor-comparison workload: one E3SM variable, 8 time shards
EXEC_CODECS = ("szlike", "dpcm", "fazlike")
EXEC_SHARDS = 8
EXEC_WORKERS = 4
EXEC_REPS = 3  # min-of-reps after an untimed warmup pass


def _append_trajectory(record) -> bool:
    """Append to ``BENCH_codecs.json``, skipping gracefully (with a
    log line) when the file is corrupt or unwritable.

    The trajectory is a nice-to-have perf history; a read-only
    checkout or a truncated file must never crash the bench itself.
    """
    trajectory = []
    if TRAJECTORY.exists():
        try:
            trajectory = json.loads(TRAJECTORY.read_text())
            if not isinstance(trajectory, list):
                raise ValueError("trajectory root is not a JSON list")
        except (ValueError, OSError) as exc:
            print(f"warning: {TRAJECTORY.name} is corrupt or unreadable "
                  f"({exc}); skipping trajectory append")
            return False
    trajectory.append(record)
    try:
        TRAJECTORY.write_text(json.dumps(trajectory, indent=2))
    except OSError as exc:
        print(f"warning: cannot write {TRAJECTORY.name} ({exc}); "
              f"skipping trajectory append")
        return False
    return True


def _workload() -> np.ndarray:
    return get_dataset_spec("e3sm", t=12, h=16, w=16, seed=11) \
        .build().frames(0)


#: facade-vs-engine workload (kept smaller than the executor grid so
#: dispatch overhead is a visible fraction of the wall clock)
FACADE_SHARDS = 8
FACADE_OVERRIDES = {"t": 24, "h": 32, "w": 32, "seed": 11}
FACADE_REPS = 3


def _facade_overhead() -> dict:
    """Min-of-reps wall clock: direct engine drive vs Session facade.

    Both sides produce the identical shard archive; the assertion at
    the end is the acceptance criterion (facade overhead within
    noise).
    """
    from repro.codecs import pack_envelope
    plan = plan_shards("e3sm", variables=[0], shards=FACADE_SHARDS,
                       **FACADE_OVERRIDES)

    def engine_run() -> bytes:
        engine = CodecEngine("szlike", executor="serial")
        batch = engine.compress_plan(plan, bound=Bound.nrmse(REL_BOUND),
                                     keep_reconstruction=False)
        entries = [ShardEntry(shard_id=t.shard_id, variable=t.variable,
                              t0=t.t0, t1=t.t1,
                              payload=pack_envelope("szlike", r.payload))
                   for t, r in zip(plan, batch.results)]
        return pack_shard_archive(entries)

    session = Session(codec="szlike", executor="serial")

    def session_run() -> bytes:
        archive = session.compress(
            "e3sm", bound=Bound.nrmse(REL_BOUND), variables=[0],
            shards=FACADE_SHARDS, dataset_overrides=FACADE_OVERRIDES)
        return archive.to_bytes()

    walls = {}
    wires = {}
    for name, run in (("engine", engine_run), ("session", session_run)):
        run()  # untimed warmup (generation caches, codec cache)
        best = float("inf")
        for _ in range(FACADE_REPS):
            t0 = time.perf_counter()
            wires[name] = run()
            best = min(best, time.perf_counter() - t0)
        walls[name] = best
    session.close()

    assert wires["session"] == wires["engine"], \
        "facade archive differs from direct engine drive"
    return {
        "workload": (f"e3sm-{FACADE_OVERRIDES['t']}x"
                     f"{FACADE_OVERRIDES['h']}x{FACADE_OVERRIDES['w']}"
                     f"-x{FACADE_SHARDS}shards-szlike-serial"),
        "engine_seconds": round(walls["engine"], 6),
        "session_seconds": round(walls["session"], 6),
        "overhead_ratio": round(walls["session"]
                                / max(walls["engine"], 1e-9), 4),
    }


#: entropy-backend workload: a Gaussian-conditional-like symbol stream
#: (the shape every codec's hot path codes), min-of-reps per backend
ENTROPY_SYMBOLS = 60_000
ENTROPY_CONTEXTS = 64
ENTROPY_ALPHABET = 33
ENTROPY_REPS = 3
#: acceptance criterion: the vectorized backend must beat the
#: per-symbol arithmetic loop by at least this factor end to end.  The
#: floor was set against the streaming-class loop (one
#: ``ArithmeticEncoder.encode`` / ``ArithmeticDecoder.advance`` call
#: per symbol), so its denominator is timed on that loop, the
#: ``arithmetic-reference`` row, not on the fused ``arithmetic``
#: backend.
ENTROPY_MIN_SPEEDUP = 5.0
#: row name of the streaming-class reference loop
ARITHMETIC_REFERENCE = "arithmetic-reference"
#: acceptance criterion: the fused ``arithmetic`` backend must beat the
#: streaming-class loop it replaced by at least this factor end to end
#: while writing the same bytes
ARITHMETIC_MIN_SPEEDUP = 2.0
#: second stream: a large alphabet makes the decode-side symbol search
#: the dominant cost, which is exactly what the trans LUT removes —
#: this is the stream its speedup floor is asserted on
ENTROPY_LARGE_CONTEXTS = 16
ENTROPY_LARGE_ALPHABET = 512
#: acceptance criterion: the table-cached LUT backend must beat vrans
#: end to end on the large-alphabet stream by at least this factor
TRANS_MIN_SPEEDUP = 2.0
#: the Python-loop backends are ~100x off the pace on this stream;
#: cap their share of the bench wall clock, the vectorized pair still
#: runs the full stream
ENTROPY_LARGE_SLOW_CAP = 6_000


def _stream(n_ctx: int, alphabet: int, n: int, seed: int = 11):
    rng = np.random.default_rng(seed)
    pmf = rng.random((n_ctx, alphabet)) + 0.01
    tables = pmf_to_cumulative(pmf)
    contexts = rng.integers(0, n_ctx, size=n)
    # inverse-CDF draw so symbols follow their context's table
    u = rng.random(n) * tables[contexts, -1]
    symbols = (tables[contexts] <= u[:, None]).sum(axis=1) - 1
    return symbols, tables, contexts


def _reference_encode(symbols, tables, contexts) -> bytes:
    """Arithmetic-encode through the streaming classes, one
    ``ArithmeticEncoder.encode`` call per symbol: the loop the fused
    ``arithmetic`` backend replaced, kept as its bit-exact reference."""
    lo = tables[contexts, symbols].tolist()
    hi = tables[contexts, symbols + 1].tolist()
    tot = tables[contexts, -1].tolist()
    enc = ArithmeticEncoder()
    for a, b, t in zip(lo, hi, tot):
        enc.encode(a, b, t)
    return enc.finish()


def _reference_decode(data, tables, contexts) -> np.ndarray:
    """Inverse of :func:`_reference_encode`, one ``decode_target`` +
    ``searchsorted`` + ``advance`` per symbol."""
    dec = ArithmeticDecoder(data)
    out = np.empty(contexts.size, dtype=np.int64)
    for i, c in enumerate(contexts.tolist()):
        row = tables[c]
        total = int(row[-1])
        s = int(np.searchsorted(row, dec.decode_target(total),
                                side="right")) - 1
        dec.advance(int(row[s]), int(row[s + 1]), total)
        out[i] = s
    return out


def _time_coder(encode, decode, symbols, tables, contexts):
    """Min-of-reps encode/decode wall clock of one coder; returns the
    timing row and the stream it wrote."""
    enc = dec = float("inf")
    data = encode(symbols, tables, contexts)  # untimed warmup
    for _ in range(ENTROPY_REPS):
        t0 = time.perf_counter()
        data = encode(symbols, tables, contexts)
        enc = min(enc, time.perf_counter() - t0)
        t0 = time.perf_counter()
        out = decode(data, tables, contexts)
        dec = min(dec, time.perf_counter() - t0)
    np.testing.assert_array_equal(out, symbols)
    return {
        "encode_seconds": round(enc, 6),
        "decode_seconds": round(dec, 6),
        "encode_msym_per_s": round(symbols.size / enc / 1e6, 3),
        "decode_msym_per_s": round(symbols.size / dec / 1e6, 3),
        "stream_bytes": len(data),
        "symbols": int(symbols.size),
    }, data


def _time_backends(symbols, tables, contexts, slow_cap=None) -> dict:
    """Min-of-reps encode/decode wall clock per registered backend.

    ``slow_cap`` truncates the stream for the per-symbol Python-loop
    backends (arithmetic, rans) so a deliberately search-heavy stream
    does not spend the whole bench budget timing known-slow loops; the
    reported Msym/s stays comparable either way.
    """
    backends = {}
    for name in list_backends():
        be = get_backend(name)
        sym, ctx = symbols, contexts
        if slow_cap is not None and name in ("arithmetic", "rans"):
            sym, ctx = symbols[:slow_cap], contexts[:slow_cap]
        backends[name], _ = _time_coder(be.encode, be.decode, sym,
                                        tables, ctx)
    return backends


def _e2e_speedup(backends: dict, fast: str, slow: str) -> float:
    """End-to-end (encode+decode) speedup of ``fast`` over ``slow``,
    normalized per symbol (the slow side may run a capped stream)."""
    f, s = backends[fast], backends[slow]
    per_f = (f["encode_seconds"] + f["decode_seconds"]) / f["symbols"]
    per_s = (s["encode_seconds"] + s["decode_seconds"]) / s["symbols"]
    return per_s / max(per_f, 1e-12)


def _entropy_throughput() -> dict:
    """Per-backend symbol-coding throughput on two fixed streams.

    Every rule-based codec codes its integers through the default
    ``arithmetic`` backend, so this block is the trajectory to watch
    when touching the entropy layer.  The small-alphabet stream is the
    original vrans-vs-arithmetic trajectory; it also times the
    ``arithmetic-reference`` row (the streaming-class loop the fused
    backend replaced, which must write the same bytes) that both
    arithmetic floors divide by.  The large-alphabet stream stresses
    the decode-side symbol search that the trans LUT replaces with an
    O(1) gather.
    """
    symbols, tables, contexts = _stream(
        ENTROPY_CONTEXTS, ENTROPY_ALPHABET, ENTROPY_SYMBOLS)
    backends = _time_backends(symbols, tables, contexts)
    backends[ARITHMETIC_REFERENCE], stream = _time_coder(
        _reference_encode, _reference_decode, symbols, tables, contexts)
    assert stream == get_backend("arithmetic").encode(
        symbols, tables, contexts), "fused arithmetic changed its bytes"

    lsymbols, ltables, lcontexts = _stream(
        ENTROPY_LARGE_CONTEXTS, ENTROPY_LARGE_ALPHABET, ENTROPY_SYMBOLS)
    large = _time_backends(lsymbols, ltables, lcontexts,
                           slow_cap=ENTROPY_LARGE_SLOW_CAP)

    return {
        "workload": (f"{ENTROPY_SYMBOLS}sym-{ENTROPY_CONTEXTS}ctx-"
                     f"{ENTROPY_ALPHABET}alpha"),
        "backends": backends,
        "vrans_speedup_vs_arithmetic": round(
            _e2e_speedup(backends, "vrans", ARITHMETIC_REFERENCE), 2),
        "arithmetic_speedup_vs_reference": round(
            _e2e_speedup(backends, "arithmetic", ARITHMETIC_REFERENCE),
            2),
        "workload_large": (f"{ENTROPY_SYMBOLS}sym-"
                           f"{ENTROPY_LARGE_CONTEXTS}ctx-"
                           f"{ENTROPY_LARGE_ALPHABET}alpha"),
        "backends_large": large,
        "trans_speedup_vs_vrans": round(
            _e2e_speedup(large, "trans", "vrans"), 2),
    }


def _prior_record(key: str) -> dict:
    """Last trajectory entry carrying a ``key`` block, if any."""
    if not TRAJECTORY.exists():
        return {}
    try:
        trajectory = json.loads(TRAJECTORY.read_text())
    except (ValueError, OSError):
        return {}
    if not isinstance(trajectory, list):
        return {}
    for record in reversed(trajectory):
        if isinstance(record, dict) and key in record:
            return record[key]
    return {}


def _prior_entropy_record() -> dict:
    """Last trajectory entry carrying an ``entropy`` block, if any."""
    return _prior_record("entropy")


# ----------------------------------------------------------------------
# nn inference: per-codec timings + profile
# ----------------------------------------------------------------------
#: learned codecs driven by the nn stack
NN_CODECS = ("ours", "gcd", "cdc-eps", "cdc-x", "vae-sr")
NN_REPS = 3
NN_PROFILE_TXT = REPO_ROOT / "BENCH_nn_profile.txt"
NN_PROFILE_TOP = 5
#: training row: 6x32x32 windows every 2 frames of a 48-frame e3sm run
#: (the ``flagship-ours`` training set's shape), steps timed after warm-up
TRAIN_T, TRAIN_HW, TRAIN_SEED = 48, 32, 7
TRAIN_WARMUP, TRAIN_STEPS = 2, 30


def _training_row() -> dict:
    """Median and quartiles of the ms per VAE step and per diffusion
    step of ``tiny``.

    Unpinned wall clock: whole runs of the same code differ by more
    than their quartiles on a shared host, so a change shows only as
    a median outside the other entry's quartiles, repeated.
    """
    from repro.config import tiny
    from repro.pipeline.training import TrainingConfig, TwoStageTrainer

    window = tiny().pipeline.window
    sim = get_dataset_spec("e3sm", t=TRAIN_T, h=TRAIN_HW, w=TRAIN_HW,
                           seed=TRAIN_SEED).build().frames(0)
    windows = [sim[i:i + window] for i in range(0, TRAIN_T - window + 1, 2)]
    # one stamp per step: the gaps after the first step exclude set-up
    iters = TRAIN_WARMUP + TRAIN_STEPS + 1
    trainer = TwoStageTrainer(tiny(), TrainingConfig(
        vae_iters=iters, diffusion_iters=iters), seed=1)
    row = {"workload": f"e3sm-{len(windows)}x{window}x{TRAIN_HW}x{TRAIN_HW}"
                       f"-seed{TRAIN_SEED}",
           "config": "tiny", "steps": TRAIN_STEPS}
    for stage, run in (("vae", trainer.train_vae),
                       ("diffusion", trainer.train_diffusion)):
        stamps = []
        run(windows, on_step=lambda _it, _loss: stamps.append(
            time.perf_counter()))
        q1, med, q3 = 1e3 * np.percentile(np.diff(stamps)[TRAIN_WARMUP:],
                                          (25, 50, 75))
        row[f"{stage}_step_ms"] = round(float(med), 3)
        row[f"{stage}_step_iqr_ms"] = [round(float(q1), 3),
                                       round(float(q3), 3)]
    return row


def _nn_block(frames: np.ndarray) -> dict:
    """Timings per learned codec + hot-op profile.

    Returns the ``record["nn"]`` block: min-of-reps compress+decompress
    wall clock per codec (``fast_seconds``, the key earlier entries
    diff against), the top profiled ops of a flagship decompress and
    the training row.
    """
    from repro.nn import profile as nn_profile

    codecs = {}
    for name in NN_CODECS:
        codec = get_codec(name)
        bound = _bound_for(codec, frames)
        res = codec.compress(frames, bound, seed=0)  # untimed warmup
        codec.decompress(res.payload)
        fast = float("inf")
        for _ in range(NN_REPS):
            t0 = time.perf_counter()
            codec.compress(frames, bound, seed=0)
            codec.decompress(res.payload)
            fast = min(fast, time.perf_counter() - t0)
        codecs[name] = {"fast_seconds": round(fast, 6)}

    # hot-op profile of the flagship decompress — "optimize what the
    # profile actually blames", and the artifact CI uploads
    codec = get_codec("ours")
    res = codec.compress(frames, _bound_for(codec, frames), seed=0)
    with nn_profile.profile() as prof:
        codec.decompress(res.payload)
    try:
        NN_PROFILE_TXT.write_text(
            "hot ops of an `ours` decompress "
            "(e3sm-12x16x16-seed11; cumulative, parent/child overlap)\n"
            + prof.table() + "\n")
    except OSError as exc:  # read-only checkout: artifact is optional
        print(f"warning: cannot write {NN_PROFILE_TXT.name} ({exc})")
    return {
        "workload": "e3sm-12x16x16-seed11",
        "codecs": codecs,
        "profile_top": prof.top(NN_PROFILE_TOP),
        "training": _training_row(),
    }


def _print_nn(nn_row: dict, prior: dict) -> None:
    """Render the nn timing table, diffed against the prior entry."""
    prior_codecs = prior.get("codecs", {})
    print(f"\nnn inference ({nn_row['workload']}, "
          f"compress+decompress, min of {NN_REPS}):")
    print(f"{'codec':10s} {'seconds':>10s} {'vs prior':>9s}")
    for name, row in nn_row["codecs"].items():
        was = prior_codecs.get(name)
        if was:
            delta = (f"{row['fast_seconds'] / max(was['fast_seconds'], 1e-9):8.2f}x")
        else:
            delta = "      new"
        print(f"{name:10s} {row['fast_seconds']:10.4f} {delta}")
    print("hot ops (cumulative seconds, parent/child rows overlap):")
    for op in nn_row["profile_top"]:
        print(f"  {op['op']:<28} x{op['calls']:<6d} {op['seconds']:.4f}s "
              f"peak {op['peak_bytes'] / (1 << 20):.2f} MiB")
    train, was = nn_row["training"], prior.get("training", {})
    print(f"training ({train['workload']}, {train['config']}, median "
          f"[quartiles] of {train['steps']} steps, unpinned wall clock):")
    for stage in ("vae", "diffusion"):
        line = f"  {stage:10s} {_step_ms(train, stage)}"
        if f"{stage}_step_ms" in was:
            line += f"   prior {_step_ms(was, stage)}"
        print(line)


def _step_ms(train: dict, stage: str) -> str:
    """One stage of a training row; entries before the quartiles were
    recorded print the median alone."""
    text = f"{train[f'{stage}_step_ms']:8.2f} ms/step"
    iqr = train.get(f"{stage}_step_iqr_ms")
    return text + (f" [{iqr[0]:.2f}-{iqr[1]:.2f}]" if iqr else "")


def _print_entropy_table(workload: str, backends: dict,
                         prior_backends: dict) -> None:
    print(f"\nentropy backends ({workload}):")
    print(f"{'backend':20s} {'enc s':>10s} {'dec s':>10s} "
          f"{'Msym/s enc':>11s} {'Msym/s dec':>11s} {'bytes':>8s} "
          f"{'vs prior':>9s}")
    for name, row in backends.items():
        was = prior_backends.get(name)
        if was:
            # per-symbol normalization: stream lengths may differ
            # across entries (the slow-backend cap)
            now = ((row["encode_seconds"] + row["decode_seconds"])
                   / row.get("symbols", ENTROPY_SYMBOLS))
            then = ((was["encode_seconds"] + was["decode_seconds"])
                    / was.get("symbols", ENTROPY_SYMBOLS))
            delta = f"{now / max(then, 1e-12):8.2f}x"
        else:
            delta = "      new"
        print(f"{name:20s} {row['encode_seconds']:10.4f} "
              f"{row['decode_seconds']:10.4f} "
              f"{row['encode_msym_per_s']:11.2f} "
              f"{row['decode_msym_per_s']:11.2f} "
              f"{row['stream_bytes']:8d} {delta}")


def _print_entropy(entropy_row: dict, prior: dict) -> None:
    """Render the per-backend tables, diffed against the prior entry."""
    _print_entropy_table(entropy_row["workload"],
                         entropy_row["backends"],
                         prior.get("backends", {}))
    print(f"vrans end-to-end speedup vs {ARITHMETIC_REFERENCE}: "
          f"x{entropy_row['vrans_speedup_vs_arithmetic']:.1f} "
          f"(floor x{ENTROPY_MIN_SPEEDUP:.0f})")
    print(f"fused arithmetic end-to-end speedup vs "
          f"{ARITHMETIC_REFERENCE}: "
          f"x{entropy_row['arithmetic_speedup_vs_reference']:.1f} "
          f"(floor x{ARITHMETIC_MIN_SPEEDUP:.0f})")
    _print_entropy_table(entropy_row["workload_large"],
                         entropy_row["backends_large"],
                         prior.get("backends_large", {}))
    print(f"trans end-to-end speedup vs vrans (large alphabet): "
          f"x{entropy_row['trans_speedup_vs_vrans']:.1f} "
          f"(floor x{TRANS_MIN_SPEEDUP:.0f})")


# ----------------------------------------------------------------------
# seekable archives: partial decode vs full decode + bytes-read contract
# ----------------------------------------------------------------------
#: archive workload: one E3SM variable, 8 time shards, sized so a full
#: szlike decode takes a visible fraction of a second on one core
ARCHIVE_SHARDS = 8
ARCHIVE_OVERRIDES = {"t": 64, "h": 40, "w": 40, "seed": 11}
ARCHIVE_REPS = 3
#: acceptance criterion: decoding 1 of 8 shards through the footer
#: index must beat a full decode by at least this factor (serial
#: executor, so multi-core full decode cannot mask the win)
ARCHIVE_MIN_SPEEDUP = 4.0
#: acceptance criterion: the partial read must touch O(footer + one
#: member) bytes — at most this fraction of the archive
ARCHIVE_MAX_BYTES_RATIO = 0.35


def _archive_partial_decode(tmp_path) -> dict:
    """Seekable-archive trajectory: full vs 1-of-N-shard decode.

    Writes an indexed shard archive to disk, then times a full decode
    against a ``select=`` decode of a single shard, both through the
    lazy ``Archive.open(path)`` path on a serial session.  A
    :class:`~repro.pipeline.container.CountingReader` wraps the file
    handle for one partial decode to measure the exact bytes touched —
    the O(footer + selected member) I/O contract, asserted both as a
    ratio and against the per-member byte budget.
    """
    from repro.api import Archive
    from repro.pipeline.container import CountingReader

    session = Session(codec="szlike", executor="serial")
    archive = session.compress(
        "e3sm", bound=Bound.nrmse(REL_BOUND), variables=[0],
        shards=ARCHIVE_SHARDS, dataset_overrides=ARCHIVE_OVERRIDES)
    path = tmp_path / "bench_archive.shrd"
    archive.save(path)
    size = path.stat().st_size

    lazy = Archive.open(path)
    members = lazy.index()
    target = members[len(members) // 2]  # a mid-file shard

    full = partial = float("inf")
    session.decompress(lazy)  # untimed warmup (generation-free decode)
    session.decompress(lazy, select=target.key)
    for _ in range(ARCHIVE_REPS):
        t0 = time.perf_counter()
        stack = session.decompress(lazy)
        full = min(full, time.perf_counter() - t0)
        t0 = time.perf_counter()
        window = session.decompress(lazy, select=target.key)
        partial = min(partial, time.perf_counter() - t0)
    np.testing.assert_array_equal(window, stack[target.t0:target.t1])

    # bytes-read contract: head sniff + trailer/footer + one member
    with open(path, "rb") as fh:
        counter = CountingReader(fh)
        counted = Archive.open(counter)
        session.decompress(counted, select=target.key)
        partial_bytes = counter.bytes_read
    overhead = size - max(m.offset + m.length for m in members)
    budget = 16 + overhead + target.length + 256
    assert partial_bytes <= budget, (partial_bytes, budget)
    session.close()

    t, h, w = (ARCHIVE_OVERRIDES[k] for k in ("t", "h", "w"))
    return {
        "workload": (f"e3sm-{t}x{h}x{w}-x{ARCHIVE_SHARDS}shards-"
                     f"szlike-serial"),
        "archive_bytes": size,
        "full_decode_seconds": round(full, 6),
        "partial_decode_seconds": round(partial, 6),
        "partial_speedup": round(full / max(partial, 1e-9), 2),
        "partial_bytes_read": partial_bytes,
        "bytes_read_ratio": round(partial_bytes / size, 4),
    }


def _print_archive(row: dict, prior: dict) -> None:
    """Render the partial-decode row, diffed against the prior entry."""
    print(f"\nseekable archive ({row['workload']}, min of "
          f"{ARCHIVE_REPS}):")
    if prior.get("partial_decode_seconds"):
        delta = (f"  (vs prior "
                 f"{row['partial_decode_seconds'] / max(prior['partial_decode_seconds'], 1e-9):.2f}x)")
    else:
        delta = "  (new)"
    print(f"  full decode    {row['full_decode_seconds']:8.4f}s over "
          f"{row['archive_bytes']} bytes")
    print(f"  1-of-{ARCHIVE_SHARDS} decode  "
          f"{row['partial_decode_seconds']:8.4f}s over "
          f"{row['partial_bytes_read']} bytes{delta}")
    print(f"  speedup x{row['partial_speedup']:.1f} "
          f"(floor x{ARCHIVE_MIN_SPEEDUP:.0f}), bytes-read ratio "
          f"{row['bytes_read_ratio']:.3f} "
          f"(ceiling {ARCHIVE_MAX_BYTES_RATIO:.2f})")


def _bound_for(codec, frames):
    if codec.capabilities.bound_kind == "l2":
        return None  # unbounded: untrained codecs have no corrector
    rng_ = float(frames.max() - frames.min())
    return REL_BOUND * rng_


def test_codec_registry_smoke(benchmark, tmp_path):
    frames = _workload()
    rows = {}
    for name in list_codecs():
        codec = get_codec(name)
        bound = _bound_for(codec, frames)
        t0 = time.perf_counter()
        res = codec.compress(frames, bound, seed=0)
        t_enc = time.perf_counter() - t0
        t0 = time.perf_counter()
        rec = codec.decompress(res.payload)
        t_dec = time.perf_counter() - t0
        assert rec.shape == frames.shape
        np.testing.assert_array_equal(rec, res.reconstruction)
        rows[name] = {
            "compress_seconds": round(t_enc, 6),
            "decompress_seconds": round(t_dec, 6),
            "payload_bytes": len(res.payload),
            "ratio": round(float(res.ratio), 3),
            "bound_kind": codec.capabilities.bound_kind,
        }

    # executor comparison: one plan, three backends, identical streams
    plan = plan_shards("e3sm", variables=[0], shards=EXEC_SHARDS,
                       t=48, h=48, w=48, seed=11)
    executors = {"serial": TaskRuntime("serial"),
                 "thread": TaskRuntime("thread", EXEC_WORKERS),
                 "process": TaskRuntime("process", EXEC_WORKERS)}
    exec_rows = {}
    try:
        for codec_name in EXEC_CODECS:
            per_codec = {}
            payloads = {}
            for exec_name, ex in executors.items():
                engine = CodecEngine(codec_name, executor=ex)
                # untimed warmup over the full plan: forks the pool at
                # full width and fills every worker's generation cache
                engine.compress_plan(plan, bound=Bound.nrmse(REL_BOUND),
                                     keep_reconstruction=False)
                walls = []
                for _ in range(EXEC_REPS):
                    batch = engine.compress_plan(
                        plan, bound=Bound.nrmse(REL_BOUND),
                        keep_reconstruction=False)
                    walls.append(batch.wall_seconds)
                per_codec[exec_name] = round(min(walls), 6)
                payloads[exec_name] = [r.payload for r in batch.results]
            # backends must be interchangeable, not just comparable
            assert payloads["thread"] == payloads["serial"]
            assert payloads["process"] == payloads["serial"]
            exec_rows[codec_name] = per_codec
    finally:
        for ex in executors.values():
            ex.close()

    totals = {name: round(sum(r[name] for r in exec_rows.values()), 6)
              for name in executors}
    engine_row = {
        "workload": f"e3sm-48x48x48-seed11-x{EXEC_SHARDS}shards",
        "workers": EXEC_WORKERS,
        "per_codec_wall_seconds": exec_rows,
        "total_wall_seconds": totals,
    }

    # facade overhead: Session.compress over the same grid vs driving
    # the engine directly (plan -> compress_plan -> shard archive);
    # the facade adds only dispatch + codec-cache lookups, so the two
    # must stay within noise of each other
    facade_row = _facade_overhead()

    # entropy backends: per-backend symbol-coding throughput, diffed
    # against the previous trajectory entry
    prior_entropy = _prior_entropy_record()
    entropy_row = _entropy_throughput()

    # nn inference timings, plus the hot-op profile artifact
    prior_nn = _prior_record("nn")
    nn_row = _nn_block(frames)

    # seekable archives: 1-of-N-shard partial decode through the
    # footer index vs a full decode, plus the bytes-read contract
    prior_archive = _prior_record("archive")
    archive_row = _archive_partial_decode(tmp_path)

    print(f"\n{'codec':10s} {'enc s':>10s} {'dec s':>10s} "
          f"{'bytes':>8s} {'ratio':>8s}")
    for name, r in rows.items():
        print(f"{name:10s} {r['compress_seconds']:10.4f} "
              f"{r['decompress_seconds']:10.4f} "
              f"{r['payload_bytes']:8d} {r['ratio']:8.2f}")
    print(f"\n{'executor':10s} " + " ".join(f"{c:>10s}"
                                            for c in EXEC_CODECS)
          + f" {'total':>10s}")
    for exec_name in executors:
        cells = " ".join(f"{exec_rows[c][exec_name]:10.4f}"
                         for c in EXEC_CODECS)
        print(f"{exec_name:10s} {cells} {totals[exec_name]:10.4f}")

    print(f"\nfacade overhead ({facade_row['workload']}): "
          f"engine {facade_row['engine_seconds']:.4f}s, "
          f"session {facade_row['session_seconds']:.4f}s "
          f"(x{facade_row['overhead_ratio']:.3f})")
    # acceptance: the facade must sit within noise of the direct drive
    assert (facade_row["session_seconds"]
            <= facade_row["engine_seconds"] * 1.5 + 0.05), facade_row

    _print_entropy(entropy_row, prior_entropy)
    # acceptance: the vectorized backend must make symbol coding at
    # least 5x faster than the per-symbol arithmetic loop
    assert (entropy_row["vrans_speedup_vs_arithmetic"]
            >= ENTROPY_MIN_SPEEDUP), entropy_row
    # acceptance: the fused arithmetic loops must stay at least 2x
    # faster than the streaming-class loop they replaced
    assert (entropy_row["arithmetic_speedup_vs_reference"]
            >= ARITHMETIC_MIN_SPEEDUP), entropy_row
    # acceptance: the table-cached LUT backend must beat vrans at
    # least 2x end to end on the search-heavy large-alphabet stream
    assert (entropy_row["trans_speedup_vs_vrans"]
            >= TRANS_MIN_SPEEDUP), entropy_row

    _print_nn(nn_row, prior_nn)

    _print_archive(archive_row, prior_archive)
    # acceptance: the footer index must make a 1-of-8-shard read at
    # least 4x faster than a full decode, touching O(footer + member)
    # bytes rather than the whole file
    assert (archive_row["partial_speedup"]
            >= ARCHIVE_MIN_SPEEDUP), archive_row
    assert (archive_row["bytes_read_ratio"]
            <= ARCHIVE_MAX_BYTES_RATIO), archive_row

    record = {"workload": "e3sm-12x16x16-seed11",
              "host": host_facts(), "rel_bound": REL_BOUND,
              "codecs": rows, "executors": engine_row,
              "facade": facade_row, "entropy": entropy_row,
              "nn": nn_row, "archive": archive_row}
    save_json("codec_registry_smoke", record)

    # append to the trajectory file so PRs can diff perf over time
    # (best-effort: corrupt or unwritable files are logged and skipped)
    _append_trajectory(record)

    assert set(rows) == set(list_codecs())

    # benchmark fixture: the registry's hot rule-based path
    codec = get_codec("szlike")
    eb = REL_BOUND * float(frames.max() - frames.min())
    benchmark(lambda: codec.compress(frames, eb))
