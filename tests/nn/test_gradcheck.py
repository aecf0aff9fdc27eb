"""Central-difference gradient checks for every autodiff op."""

import numpy as np
import pytest

from repro.nn import Tensor, functional as F

from .util import check_gradients

RNG = np.random.default_rng(7)


def arr(*shape):
    return RNG.normal(size=shape)


def pos(*shape):
    return RNG.uniform(0.5, 2.0, size=shape)


class TestElementwiseBinary:
    def test_add(self):
        check_gradients(F.add, [arr(3, 4), arr(3, 4)])

    def test_add_broadcast(self):
        check_gradients(F.add, [arr(3, 4), arr(4)])

    def test_add_broadcast_keepdim(self):
        check_gradients(F.add, [arr(3, 1, 5), arr(1, 4, 5)])

    def test_sub(self):
        check_gradients(F.sub, [arr(2, 3), arr(2, 3)])

    def test_mul(self):
        check_gradients(F.mul, [arr(3, 4), arr(3, 4)])

    def test_mul_broadcast_scalar_like(self):
        check_gradients(F.mul, [arr(3, 4), arr(1, 1)])

    def test_div(self):
        check_gradients(F.div, [arr(3, 4), pos(3, 4)])

    def test_div_broadcast(self):
        check_gradients(F.div, [arr(2, 3, 4), pos(4)])


class TestMatmul:
    def test_2d(self):
        check_gradients(F.matmul, [arr(3, 4), arr(4, 5)])

    def test_batched(self):
        check_gradients(F.matmul, [arr(2, 3, 4), arr(2, 4, 5)])

    def test_batched_broadcast(self):
        check_gradients(F.matmul, [arr(2, 3, 4), arr(4, 5)])

    def test_vec_rhs(self):
        check_gradients(F.matmul, [arr(3, 4), arr(4)])

    def test_vec_lhs(self):
        check_gradients(F.matmul, [arr(4), arr(4, 5)])


class TestUnary:
    @pytest.mark.parametrize("op,maker", [
        (F.exp, arr), (F.tanh, arr), (F.sigmoid, arr), (F.relu, arr),
        (F.silu, arr), (F.gelu, arr), (F.softplus, arr), (F.erf, arr),
        (F.neg, arr), (F.abs, arr),
        (F.log, pos), (F.sqrt, pos),
    ])
    def test_op(self, op, maker):
        x = maker(3, 5)
        if op in (F.relu, F.abs):
            # keep away from the kink
            x = x + np.sign(x) * 0.2
        check_gradients(op, [x])

    def test_leaky_relu(self):
        x = arr(4, 4)
        x = x + np.sign(x) * 0.2
        check_gradients(lambda t: F.leaky_relu(t, 0.1), [x])

    def test_pow(self):
        check_gradients(lambda t: t ** 3.0, [pos(3, 3)])


class TestReductions:
    def test_sum_all(self):
        check_gradients(lambda t: F.sum(t), [arr(3, 4)])

    def test_sum_axis(self):
        check_gradients(lambda t: F.sum(t, axis=1), [arr(3, 4, 2)])

    def test_sum_keepdims(self):
        check_gradients(lambda t: F.sum(t, axis=(0, 2), keepdims=True),
                        [arr(3, 4, 2)])

    def test_mean_all(self):
        check_gradients(lambda t: F.mean(t), [arr(5, 2)])

    def test_mean_axis(self):
        check_gradients(lambda t: F.mean(t, axis=-1), [arr(3, 4)])

    def test_var(self):
        check_gradients(lambda t: F.var(t, axis=1), [arr(3, 6)])

    def test_var_keepdims(self):
        check_gradients(lambda t: F.var(t, axis=(1, 2), keepdims=True),
                        [arr(2, 3, 4)])

    def test_max(self):
        x = np.linspace(0, 1, 12).reshape(3, 4)  # unique values, no ties
        check_gradients(lambda t: F.max(t, axis=1), [x])

    def test_min(self):
        x = np.linspace(0, 1, 12).reshape(4, 3)
        check_gradients(lambda t: F.min(t, axis=0), [x])


class TestShape:
    def test_reshape(self):
        check_gradients(lambda t: F.reshape(t, (2, 6)), [arr(3, 4)])

    def test_transpose(self):
        check_gradients(lambda t: F.transpose(t, (2, 0, 1)), [arr(2, 3, 4)])

    def test_swapaxes(self):
        check_gradients(lambda t: F.swapaxes(t, 0, 2), [arr(2, 3, 4)])

    def test_broadcast_to(self):
        check_gradients(lambda t: F.reshape(t, (1, 4)) * np.ones((3, 4)),
                        [arr(4)])

    def test_concat(self):
        check_gradients(lambda a, b: F.concat([a, b], axis=1),
                        [arr(2, 3), arr(2, 4)])

    def test_stack(self):
        check_gradients(lambda a, b: F.stack([a, b], axis=0),
                        [arr(2, 3), arr(2, 3)])

    def test_split(self):
        check_gradients(lambda t: F.split(t, 2, axis=1)[0] * 2.0 +
                        F.split(t, 2, axis=1)[1],
                        [arr(3, 4)])

    def test_getitem_slice(self):
        check_gradients(lambda t: t[:, 1:3], [arr(3, 5)])

    def test_getitem_fancy(self):
        idx = np.array([0, 2, 2])
        check_gradients(lambda t: t[idx], [arr(4, 3)])

    def test_flip(self):
        check_gradients(lambda t: F.flip(t, axis=1), [arr(2, 5)])

    def test_pad_constant(self):
        check_gradients(lambda t: F.pad(t, [(1, 2), (0, 1)]), [arr(3, 4)])

    def test_pad_reflect(self):
        check_gradients(lambda t: F.pad(t, [(0, 0), (2, 1)], mode="reflect"),
                        [arr(3, 5)])

    def test_pad_reflect_2d(self):
        check_gradients(
            lambda t: F.pad(t, [(0, 0), (0, 0), (1, 2), (2, 1)],
                            mode="reflect"),
            [arr(1, 2, 4, 5)])


class TestComposite:
    def test_softmax(self):
        check_gradients(lambda t: F.softmax(t, axis=-1), [arr(3, 5)])

    def test_log_softmax(self):
        check_gradients(lambda t: F.log_softmax(t, axis=1), [arr(2, 4)])

    def test_clip(self):
        x = arr(4, 4) * 2
        x = x[np.abs(np.abs(x) - 1.0) > 0.1].reshape(-1)  # avoid boundary
        check_gradients(lambda t: F.clip(t, -1.0, 1.0), [x])

    def test_where(self):
        cond = RNG.random((3, 4)) > 0.5
        check_gradients(lambda a, b: F.where(cond, a, b),
                        [arr(3, 4), arr(3, 4)])

    def test_mse_loss(self):
        check_gradients(F.mse_loss, [arr(3, 4), arr(3, 4)],
                        weight=np.ones(()))

    def test_l1_loss(self):
        a, b = arr(3, 4), arr(3, 4)
        b = a + np.sign(b - a) * (np.abs(b - a) + 0.1)  # keep off the kink
        check_gradients(F.l1_loss, [a, b], weight=np.ones(()))


class TestConv:
    def test_conv2d_basic(self):
        check_gradients(
            lambda x, w: F.conv2d(x, w), [arr(2, 3, 6, 6), arr(4, 3, 3, 3)],
            atol=1e-5)

    def test_conv2d_stride_pad(self):
        check_gradients(
            lambda x, w: F.conv2d(x, w, stride=2, padding=1),
            [arr(1, 2, 7, 7), arr(3, 2, 3, 3)], atol=1e-5)

    def test_conv2d_bias(self):
        check_gradients(
            lambda x, w, b: F.conv2d(x, w, b, stride=1, padding=1),
            [arr(1, 2, 5, 5), arr(2, 2, 3, 3), arr(2)], atol=1e-5)

    def test_conv2d_kernel1(self):
        check_gradients(
            lambda x, w: F.conv2d(x, w), [arr(2, 3, 4, 4), arr(5, 3, 1, 1)],
            atol=1e-5)

    def test_conv_transpose2d_basic(self):
        check_gradients(
            lambda x, w: F.conv_transpose2d(x, w),
            [arr(2, 3, 4, 4), arr(3, 2, 3, 3)], atol=1e-5)

    def test_conv_transpose2d_stride(self):
        check_gradients(
            lambda x, w, b: F.conv_transpose2d(x, w, b, stride=2, padding=1,
                                               output_padding=1),
            [arr(1, 2, 4, 4), arr(2, 3, 3, 3), arr(3)], atol=1e-5)

    def test_avg_pool(self):
        check_gradients(lambda x: F.avg_pool2d(x, 2), [arr(2, 3, 4, 6)])

    def test_upsample(self):
        check_gradients(lambda x: F.upsample_nearest2d(x, 2),
                        [arr(2, 3, 3, 3)])


class TestConvNumerics:
    """Cross-check conv forward values against a naive implementation."""

    def test_conv2d_matches_naive(self):
        x = arr(2, 3, 8, 8)
        w = arr(4, 3, 3, 3)
        stride, padding = 2, 1
        out = F.conv2d(Tensor(x), Tensor(w), stride=stride,
                       padding=padding).numpy()
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding),
                        (padding, padding)))
        B, _, Hp, Wp = xp.shape
        Ho = (Hp - 3) // stride + 1
        Wo = (Wp - 3) // stride + 1
        ref = np.zeros((B, 4, Ho, Wo))
        for b in range(B):
            for o in range(4):
                for i in range(Ho):
                    for j in range(Wo):
                        patch = xp[b, :, i * stride:i * stride + 3,
                                   j * stride:j * stride + 3]
                        ref[b, o, i, j] = (patch * w[o]).sum()
        np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_conv_transpose_shape(self):
        x = Tensor(arr(1, 3, 5, 5))
        w = Tensor(arr(3, 2, 4, 4))
        y = F.conv_transpose2d(x, w, stride=2, padding=1)
        assert y.shape == (1, 2, 10, 10)

    def test_conv_transpose_is_conv_adjoint(self):
        """<conv(x), y> == <x, convT(y)> for matching shapes."""
        x = arr(1, 2, 6, 6)
        w = arr(3, 2, 3, 3)  # conv weight (O=3, I=2)
        y = F.conv2d(Tensor(x), Tensor(w), stride=2, padding=1).numpy()
        g = arr(*y.shape)
        lhs = float((y * g).sum())
        # conv_transpose2d with the same weight array (now read as
        # (Cin=3, Cout=2)) is exactly the adjoint map; output_padding
        # recovers the original 6x6 extent.
        xt = F.conv_transpose2d(Tensor(g), Tensor(w), stride=2, padding=1,
                                output_padding=1).numpy()
        rhs = float((x * xt).sum())
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


class TestAttention:
    def test_sdpa_grad(self):
        check_gradients(
            F.scaled_dot_product_attention,
            [arr(2, 4, 3), arr(2, 4, 3), arr(2, 4, 3)], atol=1e-5)

    def test_sdpa_grad_cross_lengths(self):
        """Query and key lengths differ, value depth differs from the
        key depth, and two batch axes lead."""
        check_gradients(
            F.scaled_dot_product_attention,
            [arr(2, 3, 5, 4), arr(2, 3, 6, 4), arr(2, 3, 6, 2)], atol=1e-5)

    def test_sdpa_grad_constant_key_value(self):
        k, v = arr(2, 5, 3), arr(2, 5, 3)
        check_gradients(
            lambda q: F.scaled_dot_product_attention(q, k, v),
            [arr(2, 4, 3)], atol=1e-5)


class TestConvKernelDispatch:
    """Both conv kernels must carry correct gradients.

    The byte-budget heuristic is forced each way so the single-GEMM
    kernels (im2col forward, col2im input gradient) and the tap loops
    are each gradchecked explicitly, whatever the default dispatch
    would pick for these shapes.
    """

    #: stride-2 (hw, k, p): a grid whose last rows no output reads,
    #: a 5x5 and a 1x1 kernel
    CASES = (((7, 7), 3, 1), ((8, 6), 3, 1), ((7, 9), 5, 2),
             ((6, 7), 1, 0))

    def _check(self):
        for hw, k, p in self.CASES:
            check_gradients(
                lambda x, w, b: F.conv2d(x, w, b, stride=2, padding=p),
                [arr(2, 3, *hw), arr(4, 3, k, k), arr(4)], atol=1e-5)

    def test_conv2d_im2col_forced(self, monkeypatch):
        from repro.nn import conv as conv_mod
        monkeypatch.setattr(conv_mod, "IM2COL_MAX_BYTES", 1 << 40)
        self._check()

    def test_conv2d_taps_forced(self, monkeypatch):
        from repro.nn import conv as conv_mod
        monkeypatch.setattr(conv_mod, "IM2COL_MAX_BYTES", 0)
        self._check()


class TestGDNFused:
    """The fused GDN op's analytic backward against numeric gradients."""

    @pytest.mark.parametrize("inverse", [False, True])
    def test_gdn_fused(self, inverse):
        from repro.nn.gdn import _PEDESTAL, _gdn_apply
        C = 3
        beta_p = np.sqrt(RNG.uniform(0.5, 1.5, size=C) + _PEDESTAL)
        gamma_p = np.sqrt(RNG.uniform(0.05, 0.2, size=(C, C)) + _PEDESTAL)
        # bounds far below the drawn parameters: the straight-through
        # lower_bound mask stays smooth around the evaluation point
        check_gradients(
            lambda x, b, g: _gdn_apply(x, b, g, 1e-4, 1e-4, inverse),
            [arr(2, C, 4, 4), beta_p, gamma_p], atol=1e-5)

    def test_token_roundtrip_spatial(self):
        x = Tensor(arr(2, 3, 4, 2, 5))
        t = F.spatial_tokens(x)
        assert t.shape == (6, 10, 4)
        back = F.untokenize_spatial(t, x.shape)
        np.testing.assert_allclose(back.numpy(), x.numpy())

    def test_token_roundtrip_temporal(self):
        x = Tensor(arr(2, 3, 4, 2, 5))
        t = F.temporal_tokens(x)
        assert t.shape == (20, 3, 4)
        back = F.untokenize_temporal(t, x.shape)
        np.testing.assert_allclose(back.numpy(), x.numpy())

    def test_token_grads(self):
        check_gradients(
            lambda x: F.untokenize_temporal(
                F.temporal_tokens(x) * 2.0, (1, 3, 2, 2, 2)),
            [arr(1, 3, 2, 2, 2)])
