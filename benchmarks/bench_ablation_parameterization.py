"""Ablations: prediction parameterization, DPM-Solver, GDN nonlinearity.

Three design choices the paper fixes without ablation, measured inside
our pipeline (DESIGN.md §5):

* **ε vs x0 vs v prediction** for the latent denoiser.  The paper's
  latent model predicts ε (Eq. 7) while its CDC baseline is run in
  both ε- and X-form; here all three targets train on identical
  latents.  Storage is untouched by the choice — only reconstruction
  error moves — which the bench asserts (equal ratios).
* **DPM-Solver++(2M) vs DDIM vs ancestral** at an equal step budget
  on the same trained ε-model.
* **GDN vs SiLU** in the VAE at an equal rate weight λ.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import LatentDiffusionCompressor, TrainingConfig
from repro.compression import RDLoss, VAEHyperprior
from repro.config import VAEConfig, tiny
from repro.diffusion import ParameterizedDDPM, keyframe_spec
from repro.nn import Tensor
from repro.nn.optim import Adam, clip_grad_norm

from .conftest import TRAIN_CFG, dataset_frames, save_json, split, train_ours


@pytest.fixture(scope="module")
def e3sm_trained():
    frames = dataset_frames("e3sm")
    trainer, comp = train_ours(frames, seed=0)
    return frames, trainer, comp


# ----------------------------------------------------------------------
# Ablation A: prediction parameterization of the latent denoiser
# ----------------------------------------------------------------------
def test_ablation_parameterization(e3sm_trained, benchmark):
    frames, trainer, _ = e3sm_trained
    train, _ = split(frames)
    cfg = tiny()
    spec = keyframe_spec(cfg.pipeline.window,
                         cfg.pipeline.keyframe_strategy,
                         interval=cfg.pipeline.keyframe_interval)
    latents = trainer._latent_windows(train)

    results = {}
    for param in ("eps", "x0", "v"):
        rng = np.random.default_rng(17)
        model = ParameterizedDDPM(cfg.diffusion, parameterization=param,
                                  rng=rng)
        opt = Adam(model.parameters(), lr=TRAIN_CFG.diffusion_lr)
        model.train()
        for _ in range(400):
            idx = rng.integers(0, latents.shape[0], size=4)
            loss = model.training_loss(latents[idx], spec, rng)
            opt.zero_grad()
            loss.backward()
            clip_grad_norm(model.parameters(), TRAIN_CFG.grad_clip)
            opt.step()
        model.eval()
        comp = LatentDiffusionCompressor(trainer.vae, model,
                                         cfg.pipeline)
        res = comp.compress(frames)
        results[param] = {"nrmse": float(res.achieved_nrmse),
                          "ratio": float(res.ratio)}

    print(f"\nAblation (parameterization): {results}")
    save_json("ablation_parameterization", results)
    # the choice moves reconstruction error, never stored bytes
    ratios = [r["ratio"] for r in results.values()]
    assert max(ratios) - min(ratios) < 1e-9
    assert all(np.isfinite(r["nrmse"]) and r["nrmse"] < 0.5
               for r in results.values())

    # benchmark one training step of the eps model
    rng = np.random.default_rng(5)
    model_eps = ParameterizedDDPM(cfg.diffusion, parameterization="eps",
                                  rng=rng)

    def one_step():
        loss = model_eps.training_loss(latents[:4], spec, rng)
        loss.backward()

    benchmark.pedantic(one_step, rounds=3, iterations=1)


# ----------------------------------------------------------------------
# Ablation B: DPM-Solver++(2M) vs DDIM vs ancestral at equal steps
# ----------------------------------------------------------------------
def test_ablation_dpm_solver(e3sm_trained, benchmark):
    frames, _, comp = e3sm_trained
    steps = 4
    results = {}
    # every sampler runs 4 UNet steps spaced over the schedule
    # (ancestral respaced; it ran the whole schedule before it
    # honoured ``sample_steps``)
    for sampler in ("ancestral", "ddim", "dpm"):
        cfg = replace(comp.config, sampler=sampler, sample_steps=steps)
        c = LatentDiffusionCompressor(comp.vae, comp.ddpm, cfg,
                                      corrector=comp.corrector)
        res = c.compress(frames)
        results[sampler] = {"nrmse": float(res.achieved_nrmse),
                            "ratio": float(res.ratio)}
    print(f"\nAblation (solver @ {steps} steps): {results}")
    save_json("ablation_dpm_solver", results)
    # the higher-order solver must stay in the same quality band as
    # DDIM at equal budget (it strictly generalizes it)
    assert results["dpm"]["nrmse"] <= results["ddim"]["nrmse"] * 2.0
    assert all(np.isfinite(r["nrmse"]) for r in results.values())

    cfg = replace(comp.config, sampler="dpm", sample_steps=steps)
    c = LatentDiffusionCompressor(comp.vae, comp.ddpm, cfg,
                                  corrector=comp.corrector)
    benchmark.pedantic(lambda: c.compress(frames), rounds=1, iterations=1)


# ----------------------------------------------------------------------
# Ablation C: GDN vs SiLU in the VAE at equal lambda
# ----------------------------------------------------------------------
def test_ablation_gdn(benchmark):
    frames = dataset_frames("e3sm")
    train, _ = split(frames)
    from repro.pipeline.training import _normalize_window
    stack = np.concatenate([_normalize_window(w) for w in train], axis=0)

    results = {}
    for act in ("silu", "gdn"):
        cfg = VAEConfig(latent_channels=4, base_filters=8, num_down=2,
                        hyper_filters=4, kernel_size=3, activation=act)
        rng = np.random.default_rng(23)
        vae = VAEHyperprior(cfg, rng=rng)
        opt = Adam(vae.parameters(), lr=1e-3)
        loss_fn = RDLoss(lam=TRAIN_CFG.lam)
        vae.train()
        for _ in range(300):
            idx = rng.integers(0, stack.shape[0], size=4)
            batch = Tensor(stack[idx][:, None])
            opt.zero_grad()
            out = vae(batch, rng=rng)
            res = loss_fn(batch, out)
            res.loss.backward()
            clip_grad_norm(vae.parameters(), 1.0)
            opt.step()
        vae.eval()
        out = vae(Tensor(stack[:8][:, None]))
        mse = float(((out.x_hat.numpy() - stack[:8][:, None]) ** 2).mean())
        bits = float(out.total_bits.item()) / 8
        results[act] = {"eval_mse": mse, "eval_bytes": bits}

    print(f"\nAblation (VAE nonlinearity): {results}")
    save_json("ablation_gdn", results)
    var = float(stack[:8].var())
    for act, r in results.items():
        assert r["eval_mse"] < var, f"{act} failed to learn"
        assert np.isfinite(r["eval_bytes"])

    cfg = VAEConfig(latent_channels=4, base_filters=8, num_down=2,
                    hyper_filters=4, kernel_size=3, activation="gdn")
    vae = VAEHyperprior(cfg, rng=np.random.default_rng(0))
    x = Tensor(stack[:4][:, None])
    benchmark.pedantic(lambda: vae(x), rounds=3, iterations=1)
