"""Inference path: one forward in both modes, conv dispatch, profiler.

Every module has one forward, so its ``no_grad`` output must be
**bitwise** equal to its grad-mode output; these cases guard against a
mode branch coming back.  The im2col and tap-loop conv kernels are
*different* summation orders, so comparisons across the dispatch
boundary use ``allclose`` instead.
"""

import numpy as np
import pytest

from repro.config import DiffusionConfig
from repro.diffusion import ConditionalDDPM, keyframe_spec, splice
from repro.diffusion.sampler import (_init_windows_batched,
                                     ancestral_sample,
                                     ancestral_sample_batched, ddim_sample,
                                     ddim_sample_batched,
                                     generate_latents_batched)
from repro.diffusion.unet import _SelfAttention
from repro.nn import (GDN, Conv2d, ConvTranspose2d, GroupNorm, LayerNorm,
                      Linear, Sequential, SiLU, Tanh, Tensor, no_grad)
from repro.nn import conv as conv_mod
from repro.nn import modules as modules_mod
from repro.nn import profile as nn_profile
from repro.nn.attention import scaled_dot_product_attention

RNG = np.random.default_rng(42)


def arr(*shape):
    return RNG.normal(size=shape)


def _grad_vs_nograd(module, x):
    """Forward ``x`` in grad mode and under ``no_grad``; return both."""
    y_grad = module(Tensor(x)).numpy()
    with no_grad():
        y_fast = module(Tensor(x)).numpy()
    return y_grad, y_fast


class TestModuleEquivalence:
    """no_grad forwards are bitwise equal to grad-mode forwards."""

    @pytest.mark.parametrize("module,shape", [
        (Linear(6, 4, rng=np.random.default_rng(0)), (3, 6)),
        (Conv2d(3, 5, 3, padding=1, rng=np.random.default_rng(1)),
         (2, 3, 8, 8)),
        (Conv2d(3, 5, 3, stride=2, padding=1, rng=np.random.default_rng(2)),
         (2, 3, 9, 9)),
        (Conv2d(3, 5, 1, rng=np.random.default_rng(3)), (2, 3, 6, 6)),
        (ConvTranspose2d(4, 2, 4, stride=2, padding=1,
                         rng=np.random.default_rng(4)), (2, 4, 5, 5)),
        (GroupNorm(2, 6), (2, 6, 4, 4)),
        (LayerNorm(7), (3, 5, 7)),
        (SiLU(), (3, 4)),
        (Tanh(), (3, 4)),
        (GDN(4), (2, 4, 5, 5)),
        (GDN(4, inverse=True), (2, 4, 5, 5)),
        (Sequential(Conv2d(2, 4, 3, padding=1, rng=np.random.default_rng(5)),
                    SiLU(),
                    Conv2d(4, 2, 3, padding=1, rng=np.random.default_rng(6))),
         (2, 2, 6, 6)),
    ], ids=["linear", "conv", "conv-stride", "conv-1x1", "convT",
            "groupnorm", "layernorm", "silu", "tanh", "gdn", "igdn",
            "sequential-fused"])
    def test_bitwise(self, module, shape):
        x = arr(*shape)
        y_grad, y_fast = _grad_vs_nograd(module, x)
        np.testing.assert_array_equal(y_grad, y_fast)

    def test_sdpa_bitwise(self):
        q, k, v = arr(2, 5, 3), arr(2, 5, 3), arr(2, 5, 3)
        y_grad = scaled_dot_product_attention(
            Tensor(q, requires_grad=True), Tensor(k), Tensor(v)).numpy()
        with no_grad():
            y_fast = scaled_dot_product_attention(
                Tensor(q), Tensor(k), Tensor(v)).numpy()
        np.testing.assert_array_equal(y_grad, y_fast)

    def test_unet_bitwise(self):
        cfg = DiffusionConfig(latent_channels=2, base_channels=4,
                              channel_mults=(1, 2), time_embed_dim=8,
                              num_frames=4, train_steps=8, finetune_steps=2,
                              num_groups=2)
        model = ConditionalDDPM(cfg, rng=np.random.default_rng(0))
        x = arr(2, 4, 2, 4, 4)
        y_grad = model.unet(Tensor(x), 3).numpy()
        with no_grad():
            y_fast = model.unet(Tensor(x), 3).numpy()
        np.testing.assert_array_equal(y_grad, y_fast)


class TestConvDispatch:
    def test_im2col_matches_taps(self, monkeypatch):
        x, w = arr(2, 3, 7, 7), arr(4, 3, 3, 3)
        monkeypatch.setattr(conv_mod, "IM2COL_MAX_BYTES", 1 << 40)
        y_im2col = conv_mod._conv2d_forward(x, w, stride=2, padding=1)
        monkeypatch.setattr(conv_mod, "IM2COL_MAX_BYTES", 0)
        y_taps = conv_mod._conv2d_forward(x, w, stride=2, padding=1)
        np.testing.assert_allclose(y_im2col, y_taps, atol=1e-12)

    def test_1x1_skips_im2col(self):
        assert not conv_mod._use_im2col(2, 3, 4, 4, 1, 1, 8)

    def test_grad_weight_im2col_matches_taps(self, monkeypatch):
        x, g = arr(2, 3, 6, 6), arr(2, 4, 6, 6)
        monkeypatch.setattr(conv_mod, "IM2COL_MAX_BYTES", 1 << 40)
        dw_im2col = conv_mod._conv2d_grad_weight(x, g, 1, 1, (3, 3))
        monkeypatch.setattr(conv_mod, "IM2COL_MAX_BYTES", 0)
        dw_taps = conv_mod._conv2d_grad_weight(x, g, 1, 1, (3, 3))
        np.testing.assert_allclose(dw_im2col, dw_taps, atol=1e-12)


class TestEinsumCache:
    def test_matches_plain_einsum(self):
        a, b = arr(3, 4, 5, 5), arr(2, 4)
        out = conv_mod.cached_einsum("bchw,oc->bohw", a, b)
        # the planned contraction may sum in a different order than the
        # naive einsum loop, so this is a value check, not a bitwise one
        np.testing.assert_allclose(
            out, np.einsum("bchw,oc->bohw", a, b), atol=1e-12)

    def test_path_cached_per_signature(self, monkeypatch):
        monkeypatch.setattr(conv_mod, "_EINSUM_PATHS", {})
        a, b = arr(2, 3, 4, 4), arr(5, 3)
        conv_mod.cached_einsum("bchw,oc->bohw", a, b)
        assert len(conv_mod._EINSUM_PATHS) == 1
        conv_mod.cached_einsum("bchw,oc->bohw", a, b)       # same signature
        assert len(conv_mod._EINSUM_PATHS) == 1
        conv_mod.cached_einsum("bchw,oc->bohw", arr(2, 3, 6, 6), b)
        assert len(conv_mod._EINSUM_PATHS) == 2             # new shape


class TestPadKernel:
    def test_pad2d_matches_np_pad(self):
        x = arr(2, 3, 5, 4)
        np.testing.assert_array_equal(
            conv_mod._pad2d(x, 2),
            np.pad(x, ((0, 0), (0, 0), (2, 2), (2, 2))))


class TestProfiler:
    def test_records_kernels_and_restores(self):
        module = Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0))
        x = arr(1, 2, 6, 6)
        from_op = Tensor.__dict__["_from_op"].__func__
        with nn_profile.profile() as prof:
            with no_grad():
                module(Tensor(x))
        assert prof.stats["conv2d.forward"].calls == 1
        assert prof.stats["conv2d"].calls == 1       # the node itself
        assert prof.stats["conv2d.forward"].seconds >= 0.0
        assert prof.stats["conv2d.forward"].peak_bytes == 3 * 6 * 6 * 8
        # patches removed once the outermost profiler exits
        assert not hasattr(conv_mod._conv2d_forward, "__wrapped__")
        assert not hasattr(modules_mod._linear_forward, "__wrapped__")
        assert Tensor.__dict__["_from_op"].__func__ is from_op

    def test_records_fused_node_kernels(self):
        attn = _SelfAttention(4, np.random.default_rng(0))
        with nn_profile.profile() as prof:
            with no_grad():
                attn(Tensor(arr(2, 3, 4)))
        for kernel, calls in (("norm.forward", 1),
                              ("linear.forward", 2), ("sdpa.forward", 1)):
            assert prof.stats[kernel].calls == calls, kernel
        # one census row per fused node, under its op name
        for op in ("layer_norm", "linear", "sdpa"):
            assert prof.stats[op].calls >= 1, op

    def test_labels_name_the_kernel_that_ran(self):
        """A conv2d backward reports its own kernels; a transposed-conv
        forward is not reported as a conv2d input gradient."""
        x = Tensor(arr(2, 3, 8, 8), requires_grad=True)
        conv = Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(0))
        down = Conv2d(4, 4, 3, stride=2, padding=1,
                      rng=np.random.default_rng(1))
        y = down(conv(x))
        with nn_profile.profile() as backward:
            y.sum().backward()
        calls = {name: s.calls for name, s in backward.stats.items()}
        assert calls["conv2d.grad_input"] == 2
        assert calls["conv2d.grad_input.flipped_corr"] == 1
        assert calls["conv2d.grad_input.col2im"] == 1
        assert calls["conv2d.grad_weight"] == 2
        # the stride-1 input gradient is a forward of the flipped kernel
        assert calls["conv2d.forward"] == 1
        assert "conv_transpose2d.taps" not in calls

        up = ConvTranspose2d(4, 2, 4, stride=2, padding=1,
                             rng=np.random.default_rng(2))
        with nn_profile.profile() as forward:
            with no_grad():
                up(Tensor(arr(2, 4, 5, 5)))
        assert forward.stats["conv_transpose2d.taps"].calls == 1
        assert not any(name.startswith("conv2d.") for name in forward.stats)

    def test_records_grad_mode_op_census(self):
        module = Linear(4, 3, rng=np.random.default_rng(0))
        with nn_profile.profile() as prof:
            module(Tensor(arr(2, 4), requires_grad=True))
        # grad mode routes through Tensor._from_op: op names show up
        assert any(s.calls for name, s in prof.stats.items()
                   if name in ("matmul", "linear", "add"))

    def test_nested_profilers_both_record(self):
        module = SiLU()
        with nn_profile.profile() as outer:
            with no_grad():
                module(Tensor(arr(2, 2)))
                with nn_profile.profile() as inner:
                    module(Tensor(arr(2, 2)))
        assert outer.stats["silu"].calls == 2
        assert inner.stats["silu"].calls == 1

    def test_module_report_and_top(self):
        with nn_profile.profile():
            with no_grad():
                SiLU()(Tensor(arr(2, 2)))
        table = nn_profile.report()
        assert "silu" in table
        rows = nn_profile.top(3)
        assert rows and all(
            {"op", "calls", "seconds", "peak_bytes"} <= set(r) for r in rows)

    def test_table_sorted_by_seconds(self):
        prof = nn_profile.OpProfiler()
        prof.record("cheap", 0.001, 10)
        prof.record("hot", 0.5, 20)
        assert [name for name, _ in prof.sorted_items()] == ["hot", "cheap"]


def _small_model():
    cfg = DiffusionConfig(latent_channels=2, base_channels=4,
                          channel_mults=(1, 2), time_embed_dim=8,
                          num_frames=4, train_steps=6, finetune_steps=2,
                          num_groups=2)
    return ConditionalDDPM(cfg, rng=np.random.default_rng(0))


def _cond_windows(n_win=3, n=4, c=2, h=4, w=4, seed=5):
    return np.random.default_rng(seed).normal(size=(n_win, n, c, h, w))


class TestBatchedSampler:
    """Stacked-window sampling vs the sequential per-window loops.

    The noise streams are bitwise identical (one generator per window,
    drawn in the sequential order); the chains agree to BLAS rounding —
    GEMM summation order depends on the batch extent — so the
    comparisons use a tight allclose rather than array_equal.
    """

    def test_init_windows_bitwise(self):
        spec = keyframe_spec(4, "interpolation", interval=3)
        cond = _cond_windows()
        batched = _init_windows_batched(
            cond, spec, [np.random.default_rng(100 + b) for b in range(3)])
        for b in range(3):
            noise = np.random.default_rng(100 + b).standard_normal(
                cond[b:b + 1].shape)
            seq = splice(noise, cond[b:b + 1], spec)
            np.testing.assert_array_equal(batched[b], seq[0])

    def test_ancestral_matches_sequential(self):
        model = _small_model()
        spec = keyframe_spec(4, "interpolation", interval=3)
        cond = _cond_windows()
        batched = ancestral_sample_batched(
            model, cond, spec,
            [np.random.default_rng(7 + b) for b in range(3)])
        for b in range(3):
            seq = ancestral_sample(model, cond[b:b + 1], spec,
                                   rng=np.random.default_rng(7 + b))
            np.testing.assert_allclose(batched[b], seq[0],
                                       rtol=0, atol=1e-10)

    def test_ddim_matches_sequential(self):
        model = _small_model()
        spec = keyframe_spec(4, "interpolation", interval=3)
        cond = _cond_windows(seed=9)
        batched = ddim_sample_batched(
            model, cond, spec, steps=4,
            rngs=[np.random.default_rng(20 + b) for b in range(3)])
        for b in range(3):
            seq = ddim_sample(model, cond[b:b + 1], spec, steps=4,
                              rng=np.random.default_rng(20 + b))
            np.testing.assert_allclose(batched[b], seq[0],
                                       rtol=0, atol=1e-10)

    def test_dpm_fallback_is_sequential(self):
        """Samplers without a batched form concatenate per-window runs."""
        from repro.diffusion.sampler import generate_latents
        model = _small_model()
        spec = keyframe_spec(4, "interpolation", interval=3)
        cond = _cond_windows(n_win=2, seed=11)
        batched = generate_latents_batched(
            model, cond, spec, sampler="dpm", steps=3,
            rngs=[np.random.default_rng(30 + b) for b in range(2)])
        for b in range(2):
            seq = generate_latents(model, cond[b:b + 1], spec, sampler="dpm",
                                   steps=3, rng=np.random.default_rng(30 + b))
            np.testing.assert_array_equal(batched[b], seq[0])

    def test_rng_count_validated(self):
        model = _small_model()
        spec = keyframe_spec(4, "interpolation", interval=3)
        with pytest.raises(ValueError):
            ancestral_sample_batched(model, _cond_windows(), spec,
                                     [np.random.default_rng(0)])

    def test_posterior_step_none_noise_is_mean(self):
        model = _small_model()
        sched = model.schedule
        y = arr(1, 4, 2, 4, 4)
        eps = arr(1, 4, 2, 4, 4)
        np.testing.assert_array_equal(
            sched.posterior_step(y, 1, eps, None),
            sched.posterior_step(y, 1, eps, np.zeros_like(y)))
