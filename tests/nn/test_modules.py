"""Unit tests for the layer/module system."""

import numpy as np
import pytest

from repro.nn import (Conv2d, ConvTranspose2d, GroupNorm, LayerNorm, Linear,
                      Module, ModuleList, Parameter, Sequential, SiLU, Tensor,
                      no_grad)
from repro.diffusion.unet import (ResBlock, SpaceTimeAttention,
                                  TemporalAttention, _SelfAttention)
from repro.nn import serialization

from .util import check_gradients, check_module_gradients

RNG = np.random.default_rng(11)


class TinyNet(Module):
    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(3)
        self.fc1 = Linear(4, 8, rng=rng)
        self.act = SiLU()
        self.fc2 = Linear(8, 2, rng=rng)

    def forward(self, x):
        return self.fc2(self.act(self.fc1(x)))


class TestModuleSystem:
    def test_named_parameters(self):
        net = TinyNet()
        names = [n for n, _ in net.named_parameters()]
        assert names == ["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]

    def test_num_parameters(self):
        net = TinyNet()
        assert net.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_state_dict_roundtrip(self):
        net, net2 = TinyNet(), TinyNet()
        for p in net.parameters():
            p.data += 1.0
        net2.load_state_dict(net.state_dict())
        for (n1, p1), (n2, p2) in zip(net.named_parameters(),
                                      net2.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_load_state_dict_strict_missing(self):
        net = TinyNet()
        state = net.state_dict()
        state.pop("fc1.weight")
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_load_state_dict_shape_mismatch(self):
        net = TinyNet()
        state = net.state_dict()
        state["fc1.weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_train_eval_propagates(self):
        net = TinyNet()
        net.eval()
        assert not net.fc1.training
        net.train()
        assert net.fc2.training

    def test_zero_grad(self):
        net = TinyNet()
        x = Tensor(RNG.normal(size=(3, 4)))
        net(x).sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_sequential(self):
        rng = np.random.default_rng(5)
        seq = Sequential(Linear(3, 5, rng=rng), SiLU(), Linear(5, 2, rng=rng))
        assert len(seq) == 3
        y = seq(Tensor(RNG.normal(size=(4, 3))))
        assert y.shape == (4, 2)
        assert len(list(seq.named_parameters())) == 4

    def test_module_list(self):
        ml = ModuleList([Linear(2, 2), Linear(2, 2)])
        assert len(ml) == 2
        assert len(list(TinyNetHolder(ml).named_parameters())) == 4


class TinyNetHolder(Module):
    def __init__(self, ml):
        super().__init__()
        self.blocks = ml


class TestLayers:
    def test_linear_shapes(self):
        lin = Linear(6, 3, rng=np.random.default_rng(0))
        y = lin(Tensor(RNG.normal(size=(2, 5, 6))))
        assert y.shape == (2, 5, 3)

    def test_linear_gradcheck(self):
        lin = Linear(4, 3, rng=np.random.default_rng(0))

        def f(x, w, b):
            lin.weight.data = w.data
            lin.bias.data = b.data
            return lin(x)

        # direct functional check instead: y = x W^T + b
        check_gradients(
            lambda x, w, b: (x @ w.transpose()) + b,
            [RNG.normal(size=(5, 4)), RNG.normal(size=(3, 4)),
             RNG.normal(size=3)])

    def test_conv2d_module(self):
        conv = Conv2d(3, 8, 3, stride=2, padding=1,
                      rng=np.random.default_rng(0))
        y = conv(Tensor(RNG.normal(size=(2, 3, 8, 8))))
        assert y.shape == (2, 8, 4, 4)

    def test_conv_transpose_module(self):
        convt = ConvTranspose2d(8, 3, 3, stride=2, padding=1,
                                output_padding=1,
                                rng=np.random.default_rng(0))
        y = convt(Tensor(RNG.normal(size=(2, 8, 4, 4))))
        assert y.shape == (2, 3, 8, 8)

    def test_conv_roundtrip_shapes(self):
        """Encoder stride-2 stack then mirrored decoder restores shape."""
        rng = np.random.default_rng(0)
        enc = Sequential(Conv2d(1, 4, 3, stride=2, padding=1, rng=rng),
                         SiLU(),
                         Conv2d(4, 8, 3, stride=2, padding=1, rng=rng))
        dec = Sequential(ConvTranspose2d(8, 4, 3, stride=2, padding=1,
                                         output_padding=1, rng=rng),
                         SiLU(),
                         ConvTranspose2d(4, 1, 3, stride=2, padding=1,
                                         output_padding=1, rng=rng))
        x = Tensor(RNG.normal(size=(1, 1, 16, 16)))
        z = enc(x)
        assert z.shape == (1, 8, 4, 4)
        y = dec(z)
        assert y.shape == x.shape

    def test_groupnorm_statistics(self):
        gn = GroupNorm(2, 4)
        x = Tensor(RNG.normal(size=(3, 4, 5, 5)) * 10 + 3)
        y = gn(x).numpy()
        # per (batch, group) mean ~ 0, var ~ 1
        yg = y.reshape(3, 2, 2 * 25)
        np.testing.assert_allclose(yg.mean(axis=2), 0.0, atol=1e-6)
        np.testing.assert_allclose(yg.var(axis=2), 1.0, atol=1e-3)

    def test_groupnorm_invalid(self):
        with pytest.raises(ValueError):
            GroupNorm(3, 4)

    def test_groupnorm_gradcheck(self):
        gn = GroupNorm(2, 4)

        def f(x):
            return gn(x)

        check_gradients(f, [RNG.normal(size=(2, 4, 3, 3))], atol=1e-5)

    def test_layernorm(self):
        ln = LayerNorm(6)
        x = Tensor(RNG.normal(size=(4, 6)) * 5 + 1)
        y = ln(x).numpy()
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-3)

    def test_layernorm_gradcheck(self):
        ln = LayerNorm(5)
        check_gradients(lambda x: ln(x), [RNG.normal(size=(3, 5))],
                        atol=1e-5)


def _perturbed(module, seed=0):
    """Move parameters off their init (unit norm scales, zero biases)."""
    rng = np.random.default_rng(seed)
    for p in module.parameters():
        p.data = p.data + 0.3 * rng.normal(size=p.data.shape)
    return module


class TestModuleGradchecks:
    """Fused nodes and the composites built on them, over the input and
    every parameter, against central differences."""

    @pytest.mark.parametrize("bias", [True, False])
    def test_linear_tokens(self, bias):
        lin = _perturbed(Linear(4, 3, bias=bias,
                                rng=np.random.default_rng(0)))
        check_module_gradients(lin, lin, [RNG.normal(size=(2, 3, 4))],
                               atol=1e-5)

    @pytest.mark.parametrize("groups,shape", [
        (3, (2, 6, 2, 3)), (2, (2, 4, 5)), (1, (3, 4, 2, 2))])
    def test_groupnorm(self, groups, shape):
        gn = _perturbed(GroupNorm(groups, shape[1]), 1)
        check_module_gradients(gn, gn, [RNG.normal(size=shape)], atol=1e-5)

    def test_layernorm_tokens(self):
        ln = _perturbed(LayerNorm(5), 2)
        check_module_gradients(ln, ln, [RNG.normal(size=(2, 3, 5))],
                               atol=1e-5)

    @pytest.mark.parametrize("out_ch", [6, 4])
    def test_resblock(self, out_ch):
        block = _perturbed(ResBlock(4, out_ch, 8, 2,
                                    np.random.default_rng(3)), 3)
        check_module_gradients(
            block, block,
            [RNG.normal(size=(2, 4, 3, 3)), RNG.normal(size=(2, 8))],
            atol=1e-5)

    def test_self_attention(self):
        attn = _perturbed(_SelfAttention(6, np.random.default_rng(4)), 4)
        check_module_gradients(attn, attn, [RNG.normal(size=(2, 4, 6))],
                               atol=1e-5)

    @pytest.mark.parametrize("cls", [TemporalAttention, SpaceTimeAttention])
    def test_factorized_attention(self, cls):
        attn = _perturbed(cls(4, np.random.default_rng(5)), 5)
        check_module_gradients(lambda x: attn(x, 2, 3), attn,
                               [RNG.normal(size=(6, 4, 2, 3))], atol=1e-5)


class TestNoGrad:
    def test_no_grad_blocks_graph(self):
        net = TinyNet()
        with no_grad():
            y = net(Tensor(RNG.normal(size=(2, 4))))
        assert not y.requires_grad
        assert y._backward is None

    def test_nested(self):
        from repro.nn import is_grad_enabled
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()


class TestSerialization:
    def test_file_roundtrip(self, tmp_path):
        net, net2 = TinyNet(), TinyNet()
        for p in net.parameters():
            p.data += RNG.normal(size=p.data.shape)
        path = tmp_path / "ckpt.npz"
        serialization.save_module(net, path)
        serialization.load_module(net2, path)
        for (_, p1), (_, p2) in zip(net.named_parameters(),
                                    net2.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_bytes_roundtrip(self):
        state = {"a": RNG.normal(size=(3, 3)), "b": np.arange(5.0)}
        blob = serialization.state_to_bytes(state)
        back = serialization.state_from_bytes(blob)
        assert set(back) == {"a", "b"}
        np.testing.assert_array_equal(back["a"], state["a"])
