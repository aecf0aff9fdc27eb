#!/usr/bin/env python
"""Combustion scenario: error-bound sweeps on sharp-front S3D data.

S3D ignition fields have sharp reaction fronts — the hard case for
transform coding.  This example trains the compressor on combustion
data, then sweeps the error bound to trace a rate-distortion curve and
prints a per-frame error profile showing keyframes vs generated frames
(the structure behind the paper's Fig. 2 bottom panel).

Run time: ~2 minutes on a laptop CPU.

    python examples/combustion_s3d.py
"""

import numpy as np

from repro import TrainingConfig, TwoStageTrainer, tiny
from repro.bound import Bound
from repro.codecs import as_codec
from repro.data import S3DSynthetic
from repro.data.base import train_test_windows
from repro.pipeline.compressor import window_starts


def main() -> None:
    cfg = tiny()
    dataset = S3DSynthetic(t=36, h=16, w=16, seed=3)
    frames = dataset.frames(1)  # a product-like species
    train, _ = train_test_windows(frames, window=cfg.pipeline.window,
                                  train_fraction=0.5, stride=2)

    print("training on S3D-like ignition fields ...")
    trainer = TwoStageTrainer(
        cfg, TrainingConfig(vae_iters=250, diffusion_iters=500,
                            finetune_iters=0, diffusion_batch=4,
                            lam=1e-6, vae_lr_decay_every=100), seed=0)
    trainer.train_vae(train)
    trainer.train_diffusion(train)
    compressor = trainer.build_compressor(train)

    # --- rate-distortion sweep ------------------------------------------
    print("\nNRMSE bound sweep (the paper's Fig. 3b procedure):")
    print(f"{'bound':>10} | {'ratio':>8} | {'achieved':>10}")
    print("-" * 34)
    codec = as_codec(compressor)
    for bound in (0.05, 0.02, 0.01, 0.005):
        res = codec.compress_bounded(frames, bound=Bound.nrmse(bound))
        print(f"{bound:>10.3f} | {res.ratio:8.1f} | "
              f"{res.achieved_nrmse:10.5f}")

    # --- per-frame error profile ----------------------------------------
    res = compressor.compress(frames)
    spec = compressor.spec()
    print("\nper-frame RMSE of the first window "
          "(* marks stored keyframes):")
    start = window_starts(frames.shape[0], cfg.pipeline.window)[0]
    chunk = slice(start, start + cfg.pipeline.window)
    err = np.sqrt(((frames[chunk] - res.reconstruction[chunk]) ** 2)
                  .mean(axis=(1, 2)))
    for i, e in enumerate(err):
        marker = "*" if i in spec.cond_idx else " "
        bar = "#" * int(60 * e / max(err.max(), 1e-12))
        print(f"  frame {i:2d}{marker} {e:9.5f} {bar}")
    print("\nkeyframes reconstruct via the VAE; intermediate frames are "
          "generated by the conditional latent diffusion model.")


if __name__ == "__main__":
    main()
