"""Design-choice ablations beyond the paper's figures (DESIGN.md §5).

* factorized prior vs a fixed logistic prior for the hyper-latent
  (rate impact of the learned non-parametric density);
* DDIM vs ancestral sampling at equal step counts;
* PCA corrector vs a uniform residual quantizer at an equal L2 bound
  (payload size of the guarantee stage).
"""

import numpy as np
import pytest
from scipy import special as sp

from repro.entropy import FactorizedDensity
from repro.nn import Tensor
from repro.nn.optim import Adam
from repro.postprocess import ErrorBoundCorrector, ResidualPCA, blockify
from repro.postprocess.coding import encode_ints

from .conftest import dataset_frames, save_json, split


# ----------------------------------------------------------------------
# Ablation 1: learned factorized prior vs fixed logistic prior
# ----------------------------------------------------------------------
def _logistic_bits(z: np.ndarray, scale: float = 2.0) -> float:
    """Bits under a fixed zero-mean logistic with the given scale."""
    upper = sp.expit((z + 0.5) / scale)
    lower = sp.expit((z - 0.5) / scale)
    p = np.maximum(upper - lower, 1e-9)
    return float(-np.log2(p).sum())


def test_ablation_factorized_prior(benchmark):
    rng = np.random.default_rng(0)
    # bimodal, channel-dependent latents: realistic hyper-latent stats
    z = np.rint(np.concatenate([
        rng.normal(-3, 0.7, size=(16, 2, 4, 4)),
        rng.normal(2, 1.5, size=(16, 2, 4, 4))], axis=1))
    fd = FactorizedDensity(channels=4, rng=rng)
    opt = Adam(fd.parameters(), lr=5e-2)
    for _ in range(120):
        noisy = Tensor(z + rng.uniform(-0.5, 0.5, size=z.shape))
        opt.zero_grad()
        loss = fd.bits(noisy)
        loss.backward()
        opt.step()
    learned = fd.bits(Tensor(z)).item()
    fixed = _logistic_bits(z)
    print(f"\nAblation (prior): learned={learned:.0f} bits, "
          f"fixed logistic={fixed:.0f} bits "
          f"({fixed / learned:.2f}x more)")
    save_json("ablation_prior", {"learned_bits": learned,
                                 "fixed_logistic_bits": fixed})
    assert learned < fixed  # the learned prior earns its parameters

    benchmark(lambda: fd.bits(Tensor(z)).item())


# ----------------------------------------------------------------------
# Ablation 2: DDIM vs ancestral at equal step counts
# ----------------------------------------------------------------------
def test_ablation_sampler(ours_by_dataset, frames_by_dataset, benchmark):
    from dataclasses import replace

    from repro import LatentDiffusionCompressor

    frames = frames_by_dataset["e3sm"]
    comp = ours_by_dataset["e3sm"]
    steps = comp.ddpm.schedule.steps
    results = {}
    for sampler in ("ancestral", "ddim"):
        cfg = replace(comp.config, sampler=sampler, sample_steps=steps)
        c = LatentDiffusionCompressor(comp.vae, comp.ddpm, cfg,
                                      corrector=comp.corrector)
        res = c.compress(frames)
        results[sampler] = {"nrmse": float(res.achieved_nrmse),
                            "ratio": float(res.ratio)}
    print(f"\nAblation (sampler, {steps} steps): {results}")
    save_json("ablation_sampler", results)
    # the stochastic sampler tolerates an imperfect eps model better;
    # it is the pipeline default — check it is not worse
    assert (results["ancestral"]["nrmse"]
            <= results["ddim"]["nrmse"] * 1.05)

    cfg = replace(comp.config, sampler="ancestral")
    c = LatentDiffusionCompressor(comp.vae, comp.ddpm, cfg,
                                  corrector=comp.corrector)
    benchmark.pedantic(lambda: c.compress(frames), rounds=1, iterations=1)


# ----------------------------------------------------------------------
# Ablation 3: PCA corrector vs uniform residual quantization
# ----------------------------------------------------------------------
def _uniform_payload(residual: np.ndarray, tau: float) -> int:
    """Bytes to meet the L2 bound by direct elementwise quantization."""
    step = 2.0 * tau / np.sqrt(residual.size)
    q = np.rint(residual / step).astype(np.int64)
    return len(encode_ints(q.ravel()))


def test_ablation_postprocess(ours_by_dataset, frames_by_dataset,
                              benchmark):
    # (a) real pipeline residual: the diffusion error is close to
    # white at tiny scale, so PCA only needs to match the uniform
    # quantizer (parity band) — at paper scale residuals are smoother
    # and the PCA stage wins outright.
    frames = frames_by_dataset["e3sm"]
    comp = ours_by_dataset["e3sm"]
    res = comp.compress(frames)
    residual = frames - res.reconstruction
    tau = 0.4 * np.linalg.norm(residual)
    pca_res = comp.corrector.correct(frames, res.reconstruction, tau)
    uniform_bytes = _uniform_payload(residual, tau)

    # (b) structured (low-rank) residual: the regime the design
    # targets — here PCA must win decisively.
    rng = np.random.default_rng(0)
    T, H, W = 6, 16, 16
    yy, xx = np.meshgrid(np.arange(H), np.arange(W), indexing="ij")
    pattern = np.sin(2 * np.pi * xx / W) * np.cos(2 * np.pi * yy / H)
    s_resid = np.stack([(1.0 + 0.2 * t) * pattern for t in range(T)])
    s_resid += rng.normal(0, 0.02, size=s_resid.shape)
    base = rng.normal(size=s_resid.shape)
    # block=8: low-frequency structure needs blocks that span it (the
    # paper-scale corrector uses 16); the tiny pipeline's 4x4 blocks
    # cannot represent a wavelength-16 pattern in a few coefficients.
    pca = ResidualPCA(block=8, rank=16).fit(s_resid)
    corr = ErrorBoundCorrector(pca)
    s_tau = 0.2 * np.linalg.norm(s_resid)
    s_pca = corr.correct(base + s_resid, base, s_tau)
    s_uniform = _uniform_payload(s_resid, s_tau)

    print(f"\nAblation (postprocess): real residual @ tau={tau:.3g}: "
          f"PCA={pca_res.payload_bytes}B vs uniform={uniform_bytes}B; "
          f"structured residual @ tau={s_tau:.3g}: "
          f"PCA={s_pca.payload_bytes}B vs uniform={s_uniform}B")
    save_json("ablation_postprocess", {
        "real_pca_bytes": pca_res.payload_bytes,
        "real_uniform_bytes": uniform_bytes,
        "structured_pca_bytes": s_pca.payload_bytes,
        "structured_uniform_bytes": s_uniform,
    })
    assert pca_res.payload_bytes <= uniform_bytes * 1.2  # parity band
    assert s_pca.payload_bytes < s_uniform * 0.7         # decisive win

    benchmark.pedantic(
        lambda: comp.corrector.correct(frames, res.reconstruction, tau),
        rounds=1, iterations=1)


# ----------------------------------------------------------------------
# Ablation 4: one allocation over the stack vs a per-block budget share
# ----------------------------------------------------------------------
def _per_block_share_payload(corr, x, x_r, tau) -> bytes:
    """Reference: the corrector's earlier selection.

    Every block gets a fixed ``tau² / n_blocks`` share of the squared
    budget and keeps its largest coefficients, quantized with step
    ``2 tau_b / 2**coeff_quant_bits``, until it meets its share; a block
    that cannot is escaped.  Blocks under their share donate nothing.
    """
    rows, geom = blockify(x - x_r, corr.pca.block)
    nb, D = rows.shape
    tau_b2 = tau * tau / nb
    tau_b = np.sqrt(tau_b2)
    qstep = max(2.0 * tau_b / (1 << corr.coeff_quant_bits), 1e-12)
    esc_step = max(2.0 * tau_b / np.sqrt(D), 1e-12)
    coeffs = corr.pca.project(rows)
    order = np.argsort(-np.abs(coeffs), axis=1)
    sorted_c = np.take_along_axis(coeffs, order, axis=1)
    q_sorted = np.rint(sorted_c / qstep)
    q_tilde = q_sorted * qstep
    block_err2 = np.einsum("ij,ij->i", rows, rows)
    hits = (block_err2[:, None]
            - np.cumsum(2.0 * sorted_c * q_tilde - q_tilde ** 2, axis=1)
            <= tau_b2)
    counts = np.zeros(nb, dtype=np.int64)
    kept_idx, kept_q, esc_vals = [], [], []
    escape = np.zeros(nb, dtype=bool)
    for b in np.nonzero(block_err2 > tau_b2)[0]:
        if hits[b].any():
            m = int(np.argmax(hits[b])) + 1
            nz = q_sorted[b, :m] != 0
            counts[b] = nz.sum()
            kept_idx.extend(order[b, :m][nz].tolist())
            kept_q.extend(q_sorted[b, :m][nz].astype(np.int64).tolist())
        else:
            escape[b] = True
            esc_vals.append(np.rint(rows[b] / esc_step).astype(np.int64))
    return corr._pack(tau, geom, counts, kept_idx, kept_q, escape,
                      esc_vals, qstep, esc_step)


def test_ablation_postprocess_vectorized(benchmark):
    """The paper's future-work item: a cheaper guarantee stage.

    The corrector allocates coefficients over the whole stack, so it
    spends the squared budget that a per-block share leaves unspent in
    blocks under their share.  On the same input its payload must be
    no larger than the per-block share's, and both must meet ``tau``
    when decoded.
    """
    import time

    rng = np.random.default_rng(0)
    shape = (16, 64, 64)
    x = rng.standard_normal(shape).cumsum(axis=1)
    x_r = x + 0.3 * rng.standard_normal(shape)
    pca = ResidualPCA(block=8, rank=32).fit(
        (x - x_r) + 0.05 * rng.standard_normal(shape))
    tau = 0.3 * float(np.linalg.norm(x - x_r))
    corr = ErrorBoundCorrector(pca)

    t0 = time.perf_counter()
    res = corr.correct(x, x_r, tau)
    t_global = time.perf_counter() - t0
    t0 = time.perf_counter()
    share = _per_block_share_payload(corr, x, x_r, tau)
    t_share = time.perf_counter() - t0

    share_l2 = float(np.linalg.norm(x - corr.apply(x_r, share)))
    assert res.achieved_l2 <= tau * (1 + 1e-9)
    assert share_l2 <= tau * (1 + 1e-9)
    assert res.payload_bytes <= len(share)
    print(f"\nAblation (postprocess allocation): global "
          f"{res.payload_bytes} B @ {res.achieved_l2 / tau:.4f} tau in "
          f"{t_global * 1e3:.0f} ms; per-block share {len(share)} B @ "
          f"{share_l2 / tau:.4f} tau in {t_share * 1e3:.0f} ms")
    save_json("ablation_postprocess_vectorized", {
        "global_bytes": res.payload_bytes, "share_bytes": len(share),
        "global_l2_over_tau": res.achieved_l2 / tau,
        "share_l2_over_tau": share_l2 / tau,
        "global_s": t_global, "share_s": t_share})

    benchmark(lambda: corr.correct(x, x_r, tau))
