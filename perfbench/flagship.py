"""``flagship-ours``: the paper's own pipeline, end to end.

Set-up cuts training windows and a separate multi-window evaluation
dump out of one fixed synthetic E3SM simulation (the workload seed
picks the dump).  The run then trains the ``tiny`` keyframe VAE and
conditional diffusion model through the public
:class:`~repro.pipeline.training.TwoStageTrainer` (fixed step counts,
then ``build_compressor``), wraps the result as a codec, and repeats
rounds of:

1. ``Session.compress`` of the dump under a fixed NRMSE bound — the
   archive must be byte-identical to the first one;
2. ``Session.decompress`` — the output must meet the NRMSE bound and
   equal the first decode;
3. a short chunk of stage-1 and stage-2 training steps on a second
   trainer, so that step times sample the whole run like the other
   phases do (the codec under test is never retrained).

Per-step times come from the trainer's ``on_step`` callback.  This is
the only workload where ``nn`` works and the only one that runs the
autodiff backward path; ``sources``, ``runtime`` and ``service`` idle.

Its work runs on one thread at a time, so the rounds run on one CPU at
a time, the CPUs taking turns every two rounds (see
:func:`perfbench.tracing.run_rounds`): every run samples both vCPUs of
a shared host equally, and the host-speed sample taken before each
operation (:func:`perfbench.harness.host_reference`) runs on the CPU
the operation runs on.  ``goodput_ops_s`` counts all three operations
of a round, so it moves with the training speed; the training steps
per second go to the report as a property.
"""

from __future__ import annotations

import math
import statistics
import time

from .harness import (MB, Deadline, Report, RoundClock, executor_width,
                      peak_rss_mb)
from .ingest import SIM_SEED
from .tracing import (Tracer, emit_layer_metrics, instrument, overhead,
                      run_rounds, span_metrics)

NAME = "flagship-ours"

NRMSE_BOUND = 0.05
#: model trainer seed and the seed of the chunk trainer (fixed: the
#: workload seed varies the data, not the model)
TRAINER_SEED, CHUNK_SEED = 0, 1
SIZES = {
    False: dict(sim_t=320, hw=32, train_t=48, eval_t=24, vae_steps=30,
                diffusion_steps=30, chunk_steps=5, min_rounds=4),
    True: dict(sim_t=36, hw=16, train_t=18, eval_t=12, vae_steps=3,
               diffusion_steps=3, chunk_steps=3, min_rounds=2),
}


def setup(work: str, seed: int, toy: bool) -> dict:
    """Imports plus input generation: training windows and the dump."""
    import numpy as np
    import repro.api  # noqa: F401  (the import cost belongs to set-up)
    import repro.pipeline.training  # noqa: F401
    from repro.config import tiny
    from repro.data import get_dataset_spec
    size = SIZES[toy]
    window = tiny().pipeline.window
    sim = get_dataset_spec("e3sm", t=size["sim_t"], h=size["hw"],
                           w=size["hw"], seed=SIM_SEED).build().frames(0)
    train = [sim[i:i + window]
             for i in range(0, size["train_t"] - window + 1, 2)]
    t0 = int(np.random.default_rng(seed).integers(
        size["train_t"], size["sim_t"] - size["eval_t"] + 1))
    dump = np.ascontiguousarray(sim[t0:t0 + size["eval_t"]],
                                dtype=np.float32)
    return {"train": train, "dump": dump}


def measure(state: dict, report: Report, seconds: float, trace: bool,
            toy: bool) -> None:
    import numpy as np
    from repro.api import Bound, Session
    from repro.codecs import LatentDiffusionCodec
    from repro.config import tiny
    from repro.metrics import nrmse
    from repro.pipeline.training import TrainingConfig, TwoStageTrainer

    size = SIZES[toy]
    train, dump = state["train"], state["dump"]
    bound = Bound.nrmse(NRMSE_BOUND)
    tracer = Tracer() if trace else None
    first = {}

    def training(trainer, timed, prefix):
        """Both stages of ``trainer`` as one operation; per-step times
        from ``on_step`` (a stage's first step also pays its set-up, so
        only the gaps between steps are samples)."""
        with report.operation("train") as problems:
            for stage, run in (("vae", trainer.train_vae),
                               ("diffusion", trainer.train_diffusion)):
                stamps, losses = [], []

                def on_step(_it, loss):
                    stamps.append(time.perf_counter())
                    losses.append(loss)

                timed(None, lambda: run(train, on_step=on_step))
                if prefix is not None:
                    for a, b in zip(stamps, stamps[1:]):
                        report.sample(f"{prefix}{stage}_step_s", b - a)
                if not all(math.isfinite(v) for v in losses):
                    problems.append(f"{stage} training loss is not finite")

    deadline = Deadline(seconds)
    if trace:
        instrument(tracer)
    try:
        trainer = TwoStageTrainer(tiny(), TrainingConfig(
            vae_iters=size["vae_steps"],
            diffusion_iters=size["diffusion_steps"]), seed=TRAINER_SEED)
        training(trainer, RoundClock(report, ""), "")
        codec = LatentDiffusionCodec(
            compressor=trainer.build_compressor(train))
    finally:
        if trace:
            tracer.restore()
    # spans so far are the initial training's; rounds add the rest
    n_training_spans = len(tracer.spans) if trace else 0
    chunk_trainer = TwoStageTrainer(tiny(), TrainingConfig(
        vae_iters=size["chunk_steps"],
        diffusion_iters=size["chunk_steps"]), seed=CHUNK_SEED)

    def one_round(timed):
        archive = None
        with report.operation("compress") as problems:
            archive = timed("compress_s", lambda: session.compress(
                dump, bound=bound))
            first.setdefault("archive", archive)
            if archive.to_bytes() != first["archive"].to_bytes():
                problems.append("archive differs from the first compress "
                                "of the same dump")
        if archive is not None:
            with report.operation("decompress") as problems:
                restored = timed("decompress_s",
                                 lambda: session.decompress(archive))
                err = nrmse(dump, restored)
                if not err <= NRMSE_BOUND:
                    problems.append(f"NRMSE {err:.6g} > bound "
                                    f"{NRMSE_BOUND:g}")
                first.setdefault("restored", restored)
                if not np.array_equal(restored, first["restored"]):
                    problems.append("decode differs from the first decode")
        training(chunk_trainer, timed, timed.prefix)

    with Session(codec=codec, executor="thread",
                 workers=executor_width()) as session:
        traced_rounds, windows, cpu = run_rounds(
            one_round, report, deadline, size["min_rounds"], tracer,
            alternate_cpus=True)

    archive = first["archive"]
    blob = archive.blob()
    series = report.series
    steps = {stage: series[f"{stage}_step_s"]
             + series.get(f"traced.{stage}_step_s", [])
             for stage in ("vae", "diffusion")}
    if not trace:
        nbytes = dump.nbytes
        report.median_metric("compress_MBps", "compress_s", "MB/s",
                             nbytes / MB, invert=True)
        report.median_metric("decompress_MBps", "decompress_s", "MB/s",
                             nbytes / MB, invert=True)
        report.metric("ratio", nbytes / len(archive), "x",
                      len(series["compress_s"]))
        report.metric("peak_rss_MB", peak_rss_mb(), "MB", 1)
        report.median_metric("goodput_ops_s", "ops_per_s", "ops/s")
        # an even stage-1 + stage-2 mix, from the per-stage medians
        report.properties["train_iters_per_s"] = 2.0 / (
            statistics.median(steps["vae"])
            + statistics.median(steps["diffusion"]))
        return

    values = span_metrics(tracer.spans[n_training_spans:], traced_rounds,
                          windows, executor_width(), cpu)
    values["training.corrector_fit_s"] = sum(
        s.cpu for s in tracer.spans[:n_training_spans]
        if s.name == "fit_corrector")
    values["training.vae_step_ms"] = 1e3 * statistics.median(steps["vae"])
    values["training.diffusion_step_ms"] = 1e3 * statistics.median(
        steps["diffusion"])
    values["postprocess.payload_share"] = (len(blob.bound_payload)
                                           / len(archive))
    values["container.overhead_bytes"] = len(archive) - (
        len(blob.y_stream) + len(blob.z_stream) + len(blob.bound_payload))
    values["trace.overhead"] = overhead(series, ("compress_s",
                                                 "decompress_s"))
    report.properties["entropy.share"] = values["entropy.share"]
    report.spans = tracer.records()
    emit_layer_metrics(report, values, {
        "training.vae_step_ms": len(steps["vae"]),
        "training.diffusion_step_ms": len(steps["diffusion"]),
        "training.corrector_fit_s": 1}, traced_rounds)
