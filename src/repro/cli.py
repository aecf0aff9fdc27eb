"""Command-line interface: ``python -m repro <command>`` (or the
``repro`` console script).

The CLI is a thin, declarative layer over :class:`repro.api.Session` —
it parses flags, builds a session, and formats results.  All dispatch
(which pipeline runs, which container format is read or written, how
bounds are normalized) lives in :mod:`repro.api`.

Subcommands
-----------
``train``       train any trainable codec (``--codec ours|vae-sr|
                cdc-eps|cdc-x|gcd``) on a ``.npy`` stack or a
                registered dataset (``--dataset``) and save a portable
                model artifact (``--save model.npz``);
``codecs``      list every registered codec and its contract;
``datasets``    list every registered synthetic dataset;
``compress``    compress a ``.npy`` frame stack — or a registered
                dataset via ``--dataset NAME`` — with any registered
                codec (``--codec``), optionally loading trained state
                from an artifact (``--codec-artifact model.npz``),
                sharded over the time axis (``--shards N``) and
                executed on a task runtime
                (``--executor serial|thread|process``);
``decompress``  reconstruct frames from any compressed container
                (codec and container format auto-detected);
``info``        inspect a compressed stream's accounting, or a model
                artifact's provenance (codec, state hash, training
                config, dataset);
``qoi``         certify quantities of interest of a reconstruction
                against the original (Sec. 3.5 bound propagation);
``spectrum``    compare radial energy spectra of original vs
                reconstruction (turbulence fidelity diagnostic).

A model artifact holds a trained codec's state plus a provenance
manifest (codec spec, training config, dataset spec, state hash), so a
single file moves any trained codec between machines — and because
artifact-loaded codecs are spec-portable, straight into process-pool
sweeps.  The artifact is the only way to name a trained model:
``train --save`` writes one, ``--codec-artifact`` loads one into
``compress``, ``sweep`` and ``decompress``; model-free codecs (the
rule-based families) need neither.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

import numpy as np

from . import __version__
from .api import Archive, Bound, Session, SessionError
from .codecs import codec_specs, get_codec, list_codecs
from .data.registry import (dataset_entries, get_dataset_spec,
                            list_datasets)
from .entropy.backend import list_backends as list_entropy_backends
from .runtime import MODES as EXECUTOR_MODES

__all__ = ["main", "build_parser"]

#: the default codec — the paper's pipeline, loaded from an artifact
_DEFAULT_CODEC = "ours"

#: exceptions the facade raises for user-input problems; printed as
#: ``error: ...`` with exit code 2 instead of a traceback
_USER_ERRORS = (SessionError, KeyError, ValueError, TypeError)


def _fail(exc) -> int:
    print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
    return 2


def _refuse_model(path: Optional[str]) -> bool:
    """Refuse (print why, return True) a model ``.npz`` given where a
    stack or an archive goes: a trained model is named only by
    ``--codec-artifact``."""
    if path and path.endswith(".npz"):
        print(f"error: {path} is a model file; pass it with "
              f"--codec-artifact", file=sys.stderr)
        return True
    return False


def _parse_shape(text: str):
    """``TxHxW`` (or ``T,H,W``) -> dict of dataset overrides."""
    parts = text.replace(",", "x").split("x")
    if len(parts) != 3:
        raise ValueError(f"expected TxHxW, got {text!r}")
    t, h, w = (int(p) for p in parts)
    return {"t": t, "h": h, "w": w}


def _parse_select(text: str):
    """One ``--select`` value -> the Session selector it means.

    ``T0:T1`` (either end optional) is a time range, a bare integer is
    a variable number, anything else is a shard id / variable name.
    """
    if ":" in text:
        a, b = text.split(":", 1)
        try:
            return slice(int(a) if a else None, int(b) if b else None)
        except ValueError:
            raise ValueError(f"bad time range {text!r}; expected "
                             f"T0:T1") from None
    if text.lstrip("-").isdigit():
        return int(text)
    return text


def _bound(args: argparse.Namespace, codec) -> Optional[Bound]:
    """The :class:`Bound` that ``--error-bound`` (the L2 ``tau``) or
    ``--nrmse-bound`` states.  A codec that requires a bound gets
    ``--nrmse-bound 0.01`` on a dataset and is refused on a file."""
    if args.error_bound is not None:
        return Bound.l2(args.error_bound)
    if args.nrmse_bound is not None:
        return Bound.nrmse(args.nrmse_bound)
    if not codec.capabilities.requires_bound:
        return None
    if args.dataset is None:
        raise SessionError(f"codec {codec.name!r} requires --error-bound "
                           f"or --nrmse-bound")
    # dataset sweeps default to the benchmarks' relative bound
    print(f"note: codec {codec.name!r} requires a bound; defaulting to "
          f"--nrmse-bound 0.01")
    return Bound.nrmse(1e-2)


def _session(args: argparse.Namespace, **extra) -> Session:
    """Build the session an invocation configures."""
    return Session(codec=getattr(args, "codec", None),
                   artifact=getattr(args, "codec_artifact", None),
                   seed=getattr(args, "seed", 0),
                   entropy_backend=getattr(args, "entropy_backend", None),
                   **extra)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _cmd_train(args: argparse.Namespace) -> int:
    save = args.save
    if not save.endswith(".npz"):
        save += ".npz"  # mirror np.savez so the printed path is real

    if args.dataset is not None:
        source = args.dataset
    elif args.data:
        source = np.load(args.data)
    else:
        print("error: give a (T, H, W) .npy file or --dataset NAME "
              f"(registered: {', '.join(list_datasets())})",
              file=sys.stderr)
        return 2

    session = Session(seed=args.seed)
    try:
        overrides = _parse_shape(args.shape) if args.shape else None
        _, manifest = session.train(
            args.codec, source, save=save, variable=args.variable,
            dataset_overrides=overrides, preset=args.preset,
            vae_iters=args.vae_iters,
            diffusion_iters=args.diffusion_iters,
            sr_iters=args.sr_iters, finetune_iters=args.finetune_iters,
            lam=args.lam, train_fraction=args.train_fraction,
            stride=args.stride, window=args.window,
            corrector=args.corrector, seed=args.seed, log=print)
    except _USER_ERRORS as exc:
        return _fail(exc)
    print(f"saved model artifact to {save} "
          f"(state {manifest.state_hash[:16]})")
    return 0


def _cmd_codecs(args: argparse.Namespace) -> int:
    print(f"{'name':10s} {'label':14s} {'bound':10s} "
          f"{'trained':8s} class")
    for name in list_codecs():
        spec = codec_specs()[name]
        codec = get_codec(name)
        caps = codec.capabilities
        print(f"{name:10s} {codec.label:14s} {caps.bound_kind:10s} "
              f"{'yes' if caps.needs_training else 'no':8s} "
              f"{spec.cls.__name__}")
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    print(f"{'name':8s} {'domain':12s} {'default (VxTxHxW)':18s} "
          f"{'paper shape':20s} {'paper GB':>9s} class")
    for name in list_datasets():
        entry = dataset_entries()[name]
        spec = get_dataset_spec(name)
        info = entry.cls.info
        default_shape = "x".join(str(d) for d in spec.shape)
        paper_shape = "x".join(str(d) for d in info.paper_shape)
        print(f"{name:8s} {info.domain:12s} {default_shape:18s} "
              f"{paper_shape:20s} {info.paper_size_gb:9.1f} "
              f"{entry.cls.__name__}")
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    if _refuse_model(args.data):
        return 2
    if args.dataset is not None:
        # dataset mode takes no input file: one positional is the output
        if args.output is not None:
            print("error: --dataset generates its own frames; drop the "
                  "input file argument", file=sys.stderr)
            return 2
        args.output, args.data = args.data, None
    elif not args.data:
        print("error: give a .npy input file or --dataset NAME "
              f"(registered: {', '.join(list_datasets())})",
              file=sys.stderr)
        return 2
    elif not args.output:
        print("error: output path required", file=sys.stderr)
        return 2

    try:
        session = _session(args, executor=args.executor,
                           workers=args.workers)
        codec = session.resolve_codec()
    except _USER_ERRORS as exc:
        return _fail(exc)
    # an artifact names its own codec; downstream reporting and the
    # default output name follow the loaded codec
    args.codec = codec.name

    try:
        bound = _bound(args, codec)
        if args.dataset is not None:
            overrides = _parse_shape(args.shape) if args.shape else None
            archive = session.compress(
                args.dataset, bound=bound,
                variables=[args.variable], shards=args.shards,
                dataset_overrides=overrides)
            output = args.output or f"{args.dataset}-{args.codec}.cdx"
        else:
            stem = args.data.rsplit("/", 1)[-1].rsplit(".", 1)[0]
            if args.chunk_shards is not None:
                # out-of-core: hand the path to the session so frames
                # stream through in bounded shard groups
                archive = session.compress(
                    args.data, bound=bound,
                    shards=args.shards if args.shards > 1 else None,
                    chunk_shards=args.chunk_shards, label=stem)
            else:
                frames = np.load(args.data)
                archive = session.compress(
                    frames, bound=bound,
                    shards=args.shards if args.shards > 1 else None,
                    label=stem)
            output = args.output
    except _USER_ERRORS as exc:
        return _fail(exc)
    finally:
        session.close()

    archive.save(output)
    s = archive.stats
    if archive.kind == "shard":
        print(f"ratio={s['ratio']:.2f}x nrmse={s['nrmse']:.6f} "
              f"bytes={s['bytes']} shards={s['shards']} "
              f"executor={s['executor']} "
              f"wall={s['wall_seconds']:.3f}s -> {output}")
    else:
        print(f"ratio={s['ratio']:.2f}x nrmse={s['nrmse']:.6f} "
              f"bytes={s['bytes']}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        session = _session(args, executor=args.executor,
                           workers=args.workers)
        codec = session.resolve_codec()
    except _USER_ERRORS as exc:
        return _fail(exc)
    args.codec = codec.name
    try:
        overrides = _parse_shape(args.shape) if args.shape else None
        archive = session.sweep(
            args.dataset, bound=_bound(args, codec),
            variables=args.variable or None,
            shards=args.shards, window=args.window,
            journal=args.journal, resume=args.resume,
            dataset_overrides=overrides)
    except _USER_ERRORS as exc:
        return _fail(exc)
    finally:
        session.close()

    archive.save(args.output)
    s = archive.stats
    print(f"ratio={s['ratio']:.2f}x nrmse={s['nrmse']:.6f} "
          f"bytes={s['bytes']} shards={s['shards']} "
          f"computed={s['computed_shards']} "
          f"resumed={s['resumed_shards']} "
          f"executor={s['executor']} "
          f"wall={s['wall_seconds']:.3f}s -> {args.output}")
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    if _refuse_model(args.data):
        return 2
    try:
        selects = [_parse_select(s) for s in (args.select or [])]
        select = (None if not selects
                  else selects[0] if len(selects) == 1 else selects)
        archive = Archive.open(args.data)
        session = _session(args)
        restored = session.decompress(archive,
                                      expect_codec=args.codec,
                                      select=select)
    except _USER_ERRORS as exc:
        return _fail(exc)
    partial = " (partial)" if select is not None else ""
    if isinstance(restored, dict):
        # a mapping archive reconstructs to one (V, T, H, W) stack,
        # variables in archive order (the order they were written in)
        names = list(restored)
        frames = np.stack([restored[n] for n in names])
        np.save(args.output, frames)
        print(f"wrote {frames.shape} ({', '.join(names)}){partial} to "
              f"{args.output}")
        return 0
    np.save(args.output, restored)
    if archive.kind == "shard" and select is None:
        print(f"wrote {restored.shape} "
              f"({len(archive.index())} shards) to "
              f"{args.output}")
    else:
        print(f"wrote {restored.shape}{partial} to {args.output}")
    return 0


def _fmt_provenance(value) -> str:
    if not value:
        return "<unrecorded>"
    return ", ".join(f"{k}={v}" for k, v in sorted(value.items()))


def _render_info(info: dict) -> int:
    kind = info["kind"]
    if kind == "artifact":
        m = info["manifest"]
        print(f"model artifact   : {m.codec} "
              f"(format v{m.format_version})")
        print(f"state hash       : {m.state_hash}")
        print(f"artifact key     : {m.key}")
        spec_params = m.spec.get("params", {})
        print(f"codec spec       : "
              f"{_fmt_provenance(spec_params) if spec_params else '<defaults>'}")
        print(f"training         : {_fmt_provenance(m.training)}")
        print(f"dataset          : {_fmt_provenance(m.dataset)}")
        return 0
    if kind == "envelope":
        print(f"codec            : {info['codec']}")
        print(f"total bytes      : {info['total_bytes']}")
        print(f"  payload        : {info['payload_bytes']}")
        return 0
    if "entries" in info:
        entries = info["entries"]
        seekable = ("seekable footer index" if info["indexed"]
                    else f"no footer (legacy {kind} layout, scanned)")
        print(f"shard archive    : {len(entries)} shards, "
              f"{len(info['variables'])} variable(s), {seekable}")
        print(f"total bytes      : {info['total_bytes']}")
        for e in entries:
            print(f"  {e['shard_id']:28s} codec={e['codec']:10s} "
                  f"var={e['variable']} frames=[{e['t0']},{e['t1']}) "
                  f"bytes={e['payload_bytes']} "
                  f"@{e['offset']}+{e['length']} "
                  f"crc={e['crc32']:08x}")
        return 0
    # raw pipeline blob
    blob = info["blob"]
    total = blob.total_bytes()
    print(f"shape            : {blob.shape}")
    print(f"window           : {blob.window}")
    print(f"keyframes        : {blob.keyframe_strategy} "
          f"(interval {blob.keyframe_interval})")
    print(f"sampler          : {blob.sampler} ({blob.sample_steps} steps)")
    print(f"entropy backend  : {blob.entropy_backend}")
    from .pipeline.compressor import window_starts
    print(f"windows          : "
          f"{len(window_starts(blob.shape[0], blob.window))}")
    print(f"keyframe latents : {blob.y_shape[0]}")
    print(f"total bytes      : {total}")
    print(f"  latent (L)     : {blob.latent_bytes()}")
    print(f"  guarantee (G)  : {blob.guarantee_bytes()}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    try:
        info = Session().info(args.data)
    except _USER_ERRORS as exc:
        return _fail(exc)
    return _render_info(info)


def _cmd_qoi(args: argparse.Namespace) -> int:
    from .postprocess.qoi import (DerivativeQoI, QuadraticQoI,
                                  evaluate_qois, mean_qoi)
    x = np.load(args.original)
    x_g = np.load(args.reconstruction)
    if x.shape != x_g.shape:
        print(f"error: shape mismatch {x.shape} vs {x_g.shape}",
              file=sys.stderr)
        return 2
    # the certificates are conditional on ||x - x_G||_2 <= tau; with the
    # original at hand the measured error is itself a valid tau
    tau = args.tau if args.tau else float(np.linalg.norm(x - x_g))
    qois = [mean_qoi(x.shape), QuadraticQoI()]
    qois += [DerivativeQoI(axis=a) for a in range(1, x.ndim)]
    print(f"PD bound tau = {tau:.6g}"
          + ("" if args.tau else " (measured L2 error)"))
    print(f"{'QoI':22s} {'abs error':>12s} {'certified':>12s} status")
    ok = True
    for r in evaluate_qois(x, x_g, qois, tau=tau):
        status = "OK" if r.within_bound else "VIOLATED"
        ok = ok and r.within_bound
        print(f"{r.name:22s} {r.achieved_error:12.4g} "
              f"{r.certified_bound:12.4g} {status}")
    return 0 if ok else 1


def _cmd_spectrum(args: argparse.Namespace) -> int:
    from .analysis import radial_energy_spectrum, spectral_relative_error
    x = np.load(args.original)
    x_g = np.load(args.reconstruction)
    if x.shape != x_g.shape:
        print(f"error: shape mismatch {x.shape} vs {x_g.shape}",
              file=sys.stderr)
        return 2
    k, e0 = radial_energy_spectrum(x)
    _, e1 = radial_energy_spectrum(x_g)
    err = spectral_relative_error(x, x_g, k_max=args.k_max)
    print(f"{'k':>4s} {'E_orig':>12s} {'E_recon':>12s} {'rel err':>10s}")
    for ki in range(min(len(err), (args.k_max or len(err) - 1) + 1)):
        print(f"{ki:4d} {e0[ki]:12.4e} {e1[ki]:12.4e} {err[ki]:10.3g}")
    finite = err[np.isfinite(err)]
    print(f"worst finite band error: "
          f"{finite.max() if finite.size else 0.0:.3g}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # lazy import: the service stack (HTTP server, telemetry) should
    # cost nothing on the compress/decompress paths
    import logging

    from .service import CompressionService, serve

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    try:
        service = CompressionService(
            args.cache_dir,
            workers=args.workers,
            max_queue=args.max_queue,
            rate_limit=args.rate_limit,
            cache_entries=args.cache_entries,
            cache_bytes=args.cache_bytes,
            codec=args.codec,
            executor=args.executor,
            seed=args.seed,
            entropy_backend=args.entropy_backend)
    except _USER_ERRORS as exc:
        return _fail(exc)
    try:
        return serve(service, host=args.host, port=args.port)
    finally:
        service.close()


# ----------------------------------------------------------------------
def _add_bound_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--nrmse-bound", type=float, default=None,
                       help="relative bound: NRMSE (Eq. 12)")
    group.add_argument("--error-bound", type=float, default=None,
                       help="absolute L2 bound tau (converted onto the "
                            "codec's native bound metric)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version",
                   version=f"repro {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train any trainable codec and "
                                     "save a model artifact")
    t.add_argument("data", nargs="?", default=None,
                   help="(T, H, W) .npy file (omit with --dataset)")
    t.add_argument("--codec", default=_DEFAULT_CODEC,
                   help="trainable codec name: ours (default), "
                        "vae-sr, cdc-eps, cdc-x, gcd")
    t.add_argument("--dataset", default=None,
                   help="train on a registered synthetic dataset "
                        "instead of a file (see 'repro datasets')")
    t.add_argument("--variable", type=int, default=0,
                   help="dataset variable index (with --dataset)")
    t.add_argument("--shape", default=None,
                   help="dataset shape override TxHxW (with --dataset)")
    t.add_argument("--save", required=True,
                   help="output model artifact path (.npz)")
    t.add_argument("--preset", choices=("tiny", "small"), default="tiny",
                   help="architecture preset (codec 'ours')")
    t.add_argument("--vae-iters", type=int, default=300)
    t.add_argument("--diffusion-iters", type=int, default=800)
    t.add_argument("--sr-iters", type=int, default=100,
                   help="SR refinement iterations (codec 'vae-sr')")
    t.add_argument("--finetune-iters", type=int, default=0)
    t.add_argument("--lam", type=float, default=1e-6)
    t.add_argument("--train-fraction", type=float, default=0.5)
    t.add_argument("--stride", type=int, default=1)
    t.add_argument("--window", type=int, default=6,
                   help="training window length for learned codecs "
                        "without a native window")
    t.add_argument("--no-corrector", dest="corrector",
                   action="store_false",
                   help="skip fitting the error-bound corrector "
                        "(learned baseline codecs)")
    t.add_argument("--seed", type=int, default=0)
    t.set_defaults(fn=_cmd_train)

    cl = sub.add_parser("codecs", help="list registered codecs")
    cl.set_defaults(fn=_cmd_codecs)

    dl = sub.add_parser("datasets", help="list registered datasets")
    dl.set_defaults(fn=_cmd_datasets)

    c = sub.add_parser("compress", help="compress a .npy stack or a "
                                        "registered dataset")
    c.add_argument("data", nargs="?", default=None,
                   help="(T, H, W) .npy file; with --dataset, the "
                        "output path instead (default "
                        "<dataset>-<codec>.cdx)")
    c.add_argument("output", nargs="?", default=None,
                   help="output compressed stream")
    c.add_argument("--codec", default=_DEFAULT_CODEC,
                   help="registered codec name (see 'repro codecs')")
    c.add_argument("--codec-artifact", default=None,
                   help="load trained codec state from a model "
                        "artifact (.npz written by 'repro train')")
    c.add_argument("--dataset", default=None,
                   help="compress a registered synthetic dataset "
                        "instead of a file (see 'repro datasets')")
    c.add_argument("--variable", type=int, default=0,
                   help="dataset variable index (with --dataset)")
    c.add_argument("--shape", default=None,
                   help="dataset shape override TxHxW (with --dataset)")
    c.add_argument("--shards", type=int, default=1,
                   help="split the time axis into N shards and write "
                        "a shard archive")
    c.add_argument("--chunk-shards", type=int, default=None,
                   help="out-of-core mode: stream the .npy input "
                        "through the engine N shards at a time, so "
                        "peak memory is O(chunk) not O(dataset); the "
                        "archive is byte-identical to in-memory "
                        "compression (--shards defaults to one shard "
                        "per 16 frames in this mode)")
    c.add_argument("--executor", default="thread",
                   choices=EXECUTOR_MODES,
                   help="execution backend for sharded compression")
    c.add_argument("--workers", type=int, default=None,
                   help="pool width (default: one per CPU, clamped to "
                        "the shard count)")
    _add_bound_flags(c)
    c.add_argument("--entropy-backend", default=None,
                   choices=list_entropy_backends(),
                   help="entropy coder for every written stream "
                        "(default: arithmetic, the legacy format; "
                        "vrans is the vectorized fast path, trans the "
                        "table-cached LUT coder with the fastest "
                        "decode; decoding always auto-detects from "
                        "the stream)")
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(fn=_cmd_compress)

    w = sub.add_parser(
        "sweep",
        help="journaled, resumable shard sweep over a registered "
             "dataset",
        description="Compress a registered dataset as a shard sweep "
                    "with an optional crash-safe journal: every "
                    "completed shard is durably recorded, and "
                    "re-running with --journal PATH --resume replays "
                    "completed shards and recomputes only the missing "
                    "ones, producing an archive byte-identical to an "
                    "uninterrupted run.")
    w.add_argument("dataset",
                   help="registered dataset name (see 'repro datasets')")
    w.add_argument("output", help="output shard archive path")
    w.add_argument("--codec", default=_DEFAULT_CODEC,
                   help="registered codec name (see 'repro codecs')")
    w.add_argument("--codec-artifact", default=None,
                   help="load trained codec state from a model "
                        "artifact (.npz written by 'repro train')")
    w.add_argument("--variable", type=int, action="append",
                   default=None, metavar="V",
                   help="dataset variable index; repeat for several "
                        "(default: every variable)")
    w.add_argument("--shape", default=None,
                   help="dataset shape override TxHxW")
    w.add_argument("--shards", type=int, default=None,
                   help="split each variable's time axis into N "
                        "near-equal shards")
    w.add_argument("--window", type=int, default=None,
                   help="fixed shard width in frames (last shard "
                        "short) instead of --shards")
    w.add_argument("--journal", default=None, metavar="PATH",
                   help="crash-safe sweep journal (JSONL + "
                        "content-addressed payloads in PATH.objects/)")
    w.add_argument("--resume", action="store_true",
                   help="allow resuming a journal that already has "
                        "completed shards (without this flag a "
                        "non-empty journal is refused)")
    w.add_argument("--executor", default="thread",
                   choices=EXECUTOR_MODES,
                   help="execution backend for the sweep")
    w.add_argument("--workers", type=int, default=None,
                   help="pool width (default: one per CPU, clamped to "
                        "the shard count)")
    _add_bound_flags(w)
    w.add_argument("--entropy-backend", default=None,
                   choices=list_entropy_backends(),
                   help="entropy coder for every written stream "
                        "(decoding auto-detects from the stream)")
    w.add_argument("--seed", type=int, default=0)
    w.set_defaults(fn=_cmd_sweep)

    d = sub.add_parser("decompress", help="reconstruct a stream")
    d.add_argument("data", help="compressed stream file")
    d.add_argument("output", help="output .npy path")
    d.add_argument("--codec", default=None,
                   help="expected codec (auto-detected from the stream)")
    d.add_argument("--codec-artifact", default=None,
                   help="load trained codec state from a model "
                        "artifact (.npz written by 'repro train')")
    d.add_argument("--select", action="append", default=None,
                   metavar="SEL",
                   help="partial decode: a shard id, a variable "
                        "number/name, or a T0:T1 time range; repeat "
                        "to select several members (indexed archives "
                        "read only the touched bytes)")
    d.set_defaults(fn=_cmd_decompress)

    i = sub.add_parser("info", help="inspect a compressed stream or a "
                                    "model artifact")
    i.add_argument("data", help="compressed stream or model artifact")
    i.set_defaults(fn=_cmd_info)

    q = sub.add_parser("qoi", help="certify quantities of interest")
    q.add_argument("original", help="(T, H, W) .npy original")
    q.add_argument("reconstruction", help="(T, H, W) .npy reconstruction")
    q.add_argument("--tau", type=float, default=None,
                   help="guaranteed L2 bound (default: measured error)")
    q.set_defaults(fn=_cmd_qoi)

    s = sub.add_parser("spectrum", help="compare radial energy spectra")
    s.add_argument("original", help="(T, H, W) .npy original")
    s.add_argument("reconstruction", help="(T, H, W) .npy reconstruction")
    s.add_argument("--k-max", type=int, default=8,
                   help="highest wavenumber band to print")
    s.set_defaults(fn=_cmd_spectrum)

    sv = sub.add_parser(
        "serve", help="run the long-running compression service "
                      "(HTTP JSON API with job queue, result cache "
                      "and /health + /metrics endpoints)")
    sv.add_argument("--host", default="127.0.0.1",
                    help="bind address (default: loopback only)")
    sv.add_argument("--port", type=int, default=8090,
                    help="bind port (0 picks a free one)")
    sv.add_argument("--workers", type=int, default=2,
                    help="job worker threads (each drives the "
                         "session executor)")
    sv.add_argument("--cache-dir", default=".repro-serve-cache",
                    help="content-addressed result cache directory")
    sv.add_argument("--max-queue", type=int, default=64,
                    help="bounded queue capacity; overflow is "
                         "rejected with HTTP 429")
    sv.add_argument("--rate-limit", type=float, default=0.0,
                    help="per-client requests/second (0 disables)")
    sv.add_argument("--cache-entries", type=int, default=256,
                    help="result cache LRU entry bound")
    sv.add_argument("--cache-bytes", type=int, default=1 << 30,
                    help="result cache LRU byte bound")
    sv.add_argument("--codec", default=None,
                    help="default codec for jobs that name none")
    sv.add_argument("--executor", default="thread",
                    help="session executor backend "
                         "(serial/thread/process)")
    sv.add_argument("--entropy-backend", default=None,
                    help="session entropy-coder selection")
    sv.add_argument("--seed", type=int, default=0)
    sv.set_defaults(fn=_cmd_serve)
    return p


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
