"""Codec-registry contract tests.

One parametrized round-trip test covers **every** registered codec —
the nine baselines and the latent-diffusion pipeline — under the shared
contract: the declared bound kind holds, ``decompress(payload)`` is
deterministic, and it reproduces the reconstruction reported at
compression time bit for bit.  A second parametrized test pins the
acceptance criterion of the execution engine: parallel execution is
bit-identical to serial for every codec.
"""

import numpy as np
import pytest

from repro import TrainingConfig, TwoStageTrainer, tiny
from repro.bound import Bound
from repro.codecs import (Codec, LatentDiffusionCodec, as_codec,
                          codec_specs, get_codec, list_codecs,
                          register_codec)
from repro.config import DiffusionConfig, VAEConfig
from repro.data import E3SMSynthetic
from repro.data.base import train_test_windows
from repro.metrics import nrmse
from repro.pipeline.engine import CodecEngine

#: loose relative target every codec must honour through the
#: normalized compress_bounded() path
NRMSE_TARGET = 0.08

VAE1 = VAEConfig(in_channels=1, latent_channels=4, base_filters=8,
                 num_down=2, hyper_filters=4, kernel_size=3)
VAE3 = VAEConfig(in_channels=3, latent_channels=4, base_filters=8,
                 num_down=2, hyper_filters=4, kernel_size=3)
DIFF = DiffusionConfig(latent_channels=4, base_channels=8,
                       channel_mults=(1, 2), time_embed_dim=16,
                       num_frames=6, train_steps=4, finetune_steps=2,
                       num_groups=2)

#: minimal training budgets per learned family (contract, not quality)
_TRAIN_KW = {
    "cdc-eps": dict(vae_iters=6, diffusion_iters=4),
    "cdc-x": dict(vae_iters=6, diffusion_iters=4),
    "gcd": dict(vae_iters=6, diffusion_iters=4),
    "vae-sr": dict(vae_iters=6, sr_iters=4),
}
_CTOR_KW = {
    "cdc-eps": dict(vae_cfg=VAE3, diff_cfg=DIFF),
    "cdc-x": dict(vae_cfg=VAE3, diff_cfg=DIFF),
    "gcd": dict(vae_cfg=VAE1, diff_cfg=DIFF),
    "vae-sr": dict(vae_cfg=VAE1),
}


@pytest.fixture(scope="module")
def frames():
    ds = E3SMSynthetic(t=12, h=16, w=16, seed=7)
    return ds.normalized_frames(0) * 3.0 + 1.0


@pytest.fixture(scope="module")
def train_windows(frames):
    train, _ = train_test_windows(frames, window=6, train_fraction=0.5,
                                  stride=3)
    return train


@pytest.fixture(scope="module")
def codecs_by_name(frames, train_windows):
    """Every registered codec, trained just enough to honour bounds."""
    out = {}
    for name in list_codecs():
        if name == "ours":
            trainer = TwoStageTrainer(
                tiny(), TrainingConfig(vae_iters=20, diffusion_iters=30,
                                       finetune_iters=0), seed=0)
            trainer.train_vae(train_windows)
            trainer.train_diffusion(train_windows)
            codec = LatentDiffusionCodec(
                compressor=trainer.build_compressor(train_windows))
        else:
            codec = get_codec(name, **_CTOR_KW.get(name, {}))
            if codec.capabilities.needs_training:
                codec.train(train_windows, **_TRAIN_KW[name])
                codec.fit_corrector(train_windows, max_windows=1)
        out[name] = codec
    return out


@pytest.mark.parametrize("name", sorted(codec_specs()))
def test_roundtrip_contract(name, codecs_by_name, frames):
    """Bound holds, payload decodes deterministically and exactly."""
    codec = codecs_by_name[name]
    res = codec.compress_bounded(frames, bound=Bound.nrmse(NRMSE_TARGET),
                                 seed=3)
    assert res.codec == name
    assert len(res.payload) > 0
    assert res.accounting.latent_bytes > 0
    assert res.accounting.original_bytes == frames.size * 4

    # the normalized NRMSE target holds for every bound kind
    assert res.achieved_nrmse <= NRMSE_TARGET * (1 + 1e-9)
    assert nrmse(frames, res.reconstruction) <= NRMSE_TARGET * (1 + 1e-9)

    # the native bound kind holds against the *decoded* stream
    rec1 = codec.decompress(res.payload)
    kind = codec.capabilities.bound_kind
    native = codec.native_bound(frames, Bound.nrmse(NRMSE_TARGET))
    if kind == "pointwise":
        assert np.abs(frames - rec1).max() <= native * (1 + 1e-9)
    elif kind == "rmse":
        assert np.sqrt(((frames - rec1) ** 2).mean()) <= \
            native * (1 + 1e-9)
    else:  # l2
        assert np.linalg.norm(frames - rec1) <= native * (1 + 1e-9)

    # deterministic decode that reproduces the compression-time output
    # bit for bit, and the NRMSE reported for it
    rec2 = codec.decompress(res.payload)
    np.testing.assert_array_equal(rec1, rec2)
    assert rec1.shape == res.reconstruction.shape
    assert rec1.tobytes() == res.reconstruction.tobytes()
    assert res.achieved_nrmse == nrmse(frames, rec1)


@pytest.mark.parametrize("name", sorted(codec_specs()))
def test_parallel_engine_bit_identical(name, codecs_by_name, frames):
    """Acceptance: engine output is bit-identical to serial, per codec."""
    codec = codecs_by_name[name]
    stacks = [frames, frames * 0.5 + 2.0]
    serial = CodecEngine(codec, max_workers=1, base_seed=11).compress(
        stacks, bound=Bound.nrmse(0.1))
    parallel = CodecEngine(codec, max_workers=3, base_seed=11).compress(
        stacks, bound=Bound.nrmse(0.1))
    assert len(serial.results) == len(parallel.results) == 2
    for a, b in zip(serial.results, parallel.results):
        assert a.payload == b.payload
        np.testing.assert_array_equal(a.reconstruction, b.reconstruction)
        assert a.seed == b.seed
    # aggregation is order-independent too
    assert serial.accounting().compressed_bytes == \
        parallel.accounting().compressed_bytes
    assert serial.reports[0].seed == 11
    assert serial.reports[1].seed == 11 + 7919


class TestRegistry:
    def test_all_families_registered(self):
        names = set(list_codecs())
        assert {"szlike", "zfplike", "tthresh", "mgard", "dpcm",
                "fazlike", "cdc-eps", "cdc-x", "gcd", "vae-sr",
                "ours"} <= names

    def test_unknown_codec_raises_with_known_names(self):
        with pytest.raises(KeyError, match="szlike"):
            get_codec("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            @register_codec("szlike")
            class Dup(Codec):  # pragma: no cover - never constructed
                def compress(self, frames, bound=None, *, seed=0):
                    raise NotImplementedError

                def decompress(self, payload):
                    raise NotImplementedError

    def test_name_normalization(self):
        assert get_codec("  SZLike ").name == "szlike"
        assert get_codec("CDC_EPS").name == "cdc-eps"

    def test_as_codec_wraps_native_objects(self):
        from repro.baselines import SZLikeCompressor, TTHRESHLikeCompressor
        c = as_codec(SZLikeCompressor(max_level=3))
        assert c.name == "szlike" and c.impl.max_level == 3
        assert as_codec(TTHRESHLikeCompressor()).name == "tthresh"
        assert as_codec("mgard").name == "mgard"
        assert as_codec(c) is c
        with pytest.raises(TypeError):
            as_codec(object())

    def test_as_codec_distinguishes_cdc_parameterizations(self):
        from repro.baselines import CDCCompressor
        eps = as_codec(CDCCompressor(VAE3, DIFF, parameterization="eps"))
        x = as_codec(CDCCompressor(VAE3, DIFF, parameterization="x"))
        assert eps.name == "cdc-eps"
        assert x.name == "cdc-x"

    def test_rule_based_requires_bound(self):
        with pytest.raises(ValueError, match="bound"):
            get_codec("szlike").compress(np.zeros((4, 4, 4)))

    def test_bound_normalization_table(self):
        frames = np.linspace(0.0, 2.0, 4 * 4 * 4).reshape(4, 4, 4)
        n = frames.size
        pw = get_codec("szlike")
        assert pw.native_bound(frames, Bound.nrmse(0.1)) == \
            pytest.approx(0.1 * 2.0)
        assert pw.native_bound(frames, Bound.l2(8.0)) == \
            pytest.approx(8.0 / np.sqrt(n))
        rm = get_codec("tthresh")
        assert rm.native_bound(frames, Bound.l2(8.0)) == \
            pytest.approx(8.0 / np.sqrt(n))
        l2 = get_codec("ours")
        assert l2.native_bound(frames, Bound.l2(8.0)) == 8.0
        assert l2.native_bound(frames, Bound.nrmse(0.1)) == \
            pytest.approx(0.1 * 2.0 * np.sqrt(n))
        with pytest.raises(TypeError, match="must be a Bound"):
            pw.native_bound(frames, 1.0)
        assert pw.native_bound(frames) is None
