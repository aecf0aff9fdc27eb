#!/usr/bin/env python
"""Climate scenario: multi-variable archive compression with parallelism.

Mirrors the paper's E3SM use case (Sec. 4.2): several climate variables
share one trained compressor; each variable's frame stack is compressed
independently — here fanned out through the execution engine
(:class:`repro.pipeline.CodecEngine`) — and compared against the
rule-based SZ3/ZFP analogues at a matched error level.

Run time: ~2 minutes on a laptop CPU.

    python examples/climate_e3sm.py
"""

import numpy as np

from repro import Bound, TrainingConfig, TwoStageTrainer, tiny
from repro.baselines import SZLikeCompressor, ZFPLikeCompressor
from repro.data import E3SMSynthetic
from repro.data.base import train_test_windows
from repro.pipeline import CodecEngine


def main() -> None:
    cfg = tiny()
    num_vars = 3
    dataset = E3SMSynthetic(t=36, h=16, w=16, seed=7, num_vars=num_vars)

    # train on variable 0 only; deploy on all variables (the paper's
    # foundation-model style usage)
    frames0 = dataset.frames(0)
    train, _ = train_test_windows(frames0, window=cfg.pipeline.window,
                                  train_fraction=0.5, stride=2)
    print("training shared compressor on variable 0 ...")
    trainer = TwoStageTrainer(
        cfg, TrainingConfig(vae_iters=250, diffusion_iters=500,
                            finetune_iters=0, diffusion_batch=4,
                            lam=1e-6, vae_lr_decay_every=100), seed=0)
    trainer.train_vae(train)
    trainer.train_diffusion(train)
    compressor = trainer.build_compressor(train)

    stacks = [dataset.frames(v) for v in range(num_vars)]
    target = 0.02
    print(f"compressing {num_vars} variables in parallel "
          f"(NRMSE bound {target}) ...")
    engine = CodecEngine(compressor, max_workers=3)
    batch = engine.compress(stacks, bound=Bound.nrmse(target))
    results = [r.detail for r in batch.results]

    print(f"\n{'variable':>9} | {'ours CR':>8} | {'SZ3-like CR':>11} | "
          f"{'ZFP-like CR':>11} | {'NRMSE':>8}")
    print("-" * 60)
    sz, zfp = SZLikeCompressor(), ZFPLikeCompressor()
    for v, (stack, res) in enumerate(zip(stacks, results)):
        # rule-based compressors take a pointwise bound; pick one that
        # lands near the same NRMSE for an apples-to-apples row
        eb = 2.0 * target * (stack.max() - stack.min())
        sz_cr = stack.size * 4 / len(sz.compress(stack, eb))
        zfp_cr = stack.size * 4 / len(zfp.compress(stack, eb))
        print(f"{v:>9} | {res.ratio:8.1f} | {sz_cr:11.1f} | "
              f"{zfp_cr:11.1f} | {res.achieved_nrmse:8.5f}")
    mean_ratio = np.mean([r.ratio for r in results])
    print(f"\nmean compression ratio (ours): {mean_ratio:.1f}x, "
          f"every variable within the bound.")


if __name__ == "__main__":
    main()
