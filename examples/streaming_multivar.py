#!/usr/bin/env python
"""Streaming + multi-variable compression of a long simulation.

Demonstrates the two deployment-scale input shapes of the
:class:`repro.Session` facade:

1. **frame iterators** — feed frames one at a time (here from a
   generator that never materializes the full array) and get a
   self-describing stream archive back; the session compresses sealed
   chunks ``workers`` at a time on its executor, so it holds at most
   ``workers`` sealed chunks in memory;
2. **variable mappings** — compress several physical variables with
   one shared trained model, each variable a task on the session's
   executor, and aggregate the Eq. 11 accounting across the dataset.

Run time: ~2 minutes on a laptop CPU.

    python examples/streaming_multivar.py
"""

from repro import Archive, Bound, Session, TrainingConfig, TwoStageTrainer, tiny
from repro.data import E3SMSynthetic
from repro.data.base import train_test_windows


def frame_stream(dataset, variable):
    """Yield frames one by one — stand-in for a simulation's output."""
    frames = dataset.frames(variable)
    for frame in frames:
        yield frame


def main() -> None:
    cfg = tiny()
    dataset = E3SMSynthetic(t=48, h=16, w=16, seed=0, num_vars=3)

    # --- train once on the first variable's early time ------------------
    train, _ = train_test_windows(dataset.frames(0),
                                  window=cfg.pipeline.window,
                                  train_fraction=0.5, stride=2)
    trainer = TwoStageTrainer(
        cfg, TrainingConfig(vae_iters=200, diffusion_iters=400,
                            finetune_iters=0, lam=1e-6), seed=0)
    print("training shared model ...")
    trainer.train_vae(train)
    trainer.train_diffusion(train)
    session = Session(codec=trainer.build_compressor(train),
                      chunk_windows=2)

    # --- 1) streaming: an iterator source --------------------------------
    print("\n--- streaming compression (constant memory) ---")
    archive = session.compress(frame_stream(dataset, 0),
                               bound=Bound.nrmse(0.05))
    s = archive.stats
    print(f"stream archive: {s['chunks']} chunks, {s['frames']} frames, "
          f"ratio {s['ratio']:.1f}x over {s['bytes']} bytes")

    recon = session.decompress(Archive.open(archive.to_bytes()))
    print(f"round trip through {len(archive)} archive bytes: "
          f"{recon.shape} reconstructed")

    # --- 2) multi-variable: a mapping source -----------------------------
    print("\n--- multi-variable compression (3 climate variables) ---")
    stacks = {f"var{i}": dataset.frames(i)[:24] for i in range(3)}
    mv = session.compress(stacks, bound=Bound.nrmse(0.05))
    print(f"dataset-level ratio (Eq. 11 over all variables): "
          f"{mv.stats['ratio']:.1f}x; worst NRMSE "
          f"{mv.stats['nrmse']:.4f}")

    out = session.decompress(mv)
    assert set(out) == set(stacks)
    print("all variables round-trip through one archive.")


if __name__ == "__main__":
    main()
