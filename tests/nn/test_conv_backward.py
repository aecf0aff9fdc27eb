"""The conv2d backward kernels against the transposed-conv tap loop.

``_conv2d_grad_input`` runs a flipped-kernel correlation (stride 1,
square ``k x k`` kernels with k > 1 and ``p < k``) or one GEMM plus
col2im adds (every other shape); the tap loop it replaced is kept as
the ``ConvTranspose2d`` forward and serves as the oracle here.  Different summation orders, so values are compared to a
relative tolerance, not bitwise.
"""

import itertools

import numpy as np
import pytest

from repro.compression import VAEHyperprior
from repro.compression.rd_loss import RDLoss
from repro.config import tiny
from repro.diffusion import ConditionalDDPM, keyframe_spec
from repro.nn import Tensor
from repro.nn import conv as conv_mod

RNG = np.random.default_rng(3)
BUDGETS = {"default": conv_mod.IM2COL_MAX_BYTES, "taps": 0}


def _relative_error(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)


def _grid():
    """stride x padding x kernel x input channels x odd/even grids; the
    8-row grid drops its last input rows at stride 2."""
    for s, p, k, cin, hw in itertools.product(
            (1, 2), (0, 1, 2), (1, 3, 5), (1, 3), ((7, 9), (8, 5))):
        if min(hw) + 2 * p >= k:
            yield s, p, k, cin, hw


@pytest.mark.parametrize("budget", sorted(BUDGETS))
@pytest.mark.parametrize("s,p,k,cin,hw", list(_grid()))
def test_grad_input_matches_tap_loop(monkeypatch, budget, s, p, k, cin, hw):
    monkeypatch.setattr(conv_mod, "IM2COL_MAX_BYTES", BUDGETS[budget])
    x = RNG.normal(size=(2, cin) + hw)
    w = RNG.normal(size=(4, cin, k, k))
    g = RNG.normal(size=conv_mod._conv2d_forward(x, w, s, p).shape)
    got = conv_mod._conv2d_grad_input(g, w, s, p, x.shape)
    want = conv_mod._conv_transpose2d_taps(g, w, s, p, x.shape)
    assert got.shape == x.shape
    assert _relative_error(got, want) <= 1e-12


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("kh,kw,p", [(3, 3, 3), (3, 1, 4), (1, 3, 0),
                                     (3, 5, 1), (5, 2, 2)])
def test_grad_input_odd_kernels_and_wide_padding(s, kh, kw, p):
    """Non-square kernels, and paddings past ``k - 1`` whose outer
    output rows read only zeros."""
    x = RNG.normal(size=(2, 3, 7, 6))
    w = RNG.normal(size=(4, 3, kh, kw))
    g = RNG.normal(size=conv_mod._conv2d_forward(x, w, s, p).shape)
    got = conv_mod._conv2d_grad_input(g, w, s, p, x.shape)
    want = conv_mod._conv_transpose2d_taps(g, w, s, p, x.shape)
    assert got.shape == x.shape
    assert _relative_error(got, want) <= 1e-12


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("s", [1, 2])
def test_grad_weight_gemm_matches_taps(monkeypatch, s, k):
    x, w = RNG.normal(size=(2, 3, 7, 9)), RNG.normal(size=(4, 3, k, k))
    g = RNG.normal(size=conv_mod._conv2d_forward(x, w, s, 1).shape)
    gemm = conv_mod._conv2d_grad_weight(x, g, s, 1, (k, k))
    monkeypatch.setattr(conv_mod, "IM2COL_MAX_BYTES", 0)
    taps = conv_mod._conv2d_grad_weight(x, g, s, 1, (k, k))
    assert _relative_error(gemm, taps) <= 1e-12


def test_grad_input_is_the_adjoint_of_the_forward():
    """<conv(x), g> == <x, grad_input(g)> on a row-dropping stride."""
    x, w = RNG.normal(size=(2, 3, 8, 6)), RNG.normal(size=(5, 3, 3, 3))
    y = conv_mod._conv2d_forward(x, w, 2, 1)
    g = RNG.normal(size=y.shape)
    dx = conv_mod._conv2d_grad_input(g, w, 2, 1, x.shape)
    np.testing.assert_allclose((y * g).sum(), (x * dx).sum(), rtol=1e-12)


def _unet_backward():
    cfg = tiny().diffusion
    model = ConditionalDDPM(cfg, rng=np.random.default_rng(0))
    spec = keyframe_spec(cfg.num_frames, "interpolation", interval=3)
    y0 = RNG.normal(size=(2, cfg.num_frames, cfg.latent_channels, 8, 8))
    loss = model.training_loss(y0, spec, np.random.default_rng(1), t=5)
    return loss.backward


def _vae_backward():
    vae = VAEHyperprior(tiny().vae, rng=np.random.default_rng(0))
    x = RNG.normal(size=(2, 1, 16, 16))
    out = vae(Tensor(x), rng=np.random.default_rng(1))
    return RDLoss(lam=0.01)(Tensor(x), out).loss.backward


@pytest.mark.parametrize("build", [_unet_backward, _vae_backward],
                         ids=["unet", "vae"])
def test_backward_makes_no_einsum_call(monkeypatch, build):
    """Under the default budget every conv backward kernel is a GEMM;
    the forward pass (1x1 convs, transposed convs) may still einsum."""
    backward = build()
    calls = []

    def counting(subscripts, *operands):
        calls.append(subscripts)
        return np.einsum(subscripts, *operands)

    monkeypatch.setattr(conv_mod, "cached_einsum", counting)
    backward()
    assert calls == []
