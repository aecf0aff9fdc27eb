"""Bound value-type tests: constructors, conversions, the codec check."""

import numpy as np
import pytest

from repro.bound import BOUND_KINDS, Bound


@pytest.fixture(scope="module")
def frames():
    rng = np.random.default_rng(3)
    return rng.normal(size=(5, 12, 12)).cumsum(axis=0)


class TestConstructors:
    def test_kinds(self):
        assert Bound.pointwise(0.5).kind == "pointwise"
        assert Bound.rmse(0.1).kind == "rmse"
        assert Bound.l2(25.0).kind == "l2"
        assert Bound.nrmse(1e-3).kind == "nrmse"

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError, match="bound kind"):
            Bound("max-abs", 0.1)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"),
                                       float("inf")])
    def test_invalid_value_rejected(self, value):
        with pytest.raises(ValueError, match="finite and positive"):
            Bound.nrmse(value)

    def test_parse(self):
        assert Bound.parse("nrmse:1e-3") == Bound.nrmse(1e-3)
        assert Bound.parse("l2:25") == Bound.l2(25.0)
        assert Bound.parse("POINTWISE: 0.5") == Bound.pointwise(0.5)
        assert Bound.parse("0.01") == Bound.nrmse(0.01)  # bare number
        with pytest.raises(ValueError):
            Bound.parse("junk:1")

    def test_frozen_hashable_picklable(self):
        import pickle
        b = Bound.nrmse(1e-3)
        with pytest.raises(Exception):
            b.value = 2.0
        assert pickle.loads(pickle.dumps(b)) == b
        assert len({b, Bound.nrmse(1e-3), Bound.l2(1.0)}) == 2


class TestConversions:
    @pytest.mark.parametrize("kind", BOUND_KINDS)
    def test_same_kind_is_identity(self, kind, frames):
        b = Bound(kind, 0.25)
        assert b.to(kind, frames=frames) is b

    @pytest.mark.parametrize("src", ["rmse", "l2", "nrmse"])
    @pytest.mark.parametrize("dst", ["rmse", "l2", "nrmse"])
    def test_exact_subgroup_roundtrips(self, src, dst, frames):
        """rmse/l2/nrmse are exact linear bijections of each other."""
        b = Bound(src, 0.125)
        back = b.to(dst, frames=frames).to(src, frames=frames)
        assert back.kind == src
        assert back.value == pytest.approx(b.value, rel=1e-12)

    @pytest.mark.parametrize("dst", ["rmse", "l2", "nrmse"])
    def test_pointwise_roundtrips_are_conservative(self, dst, frames):
        """Conversions through pointwise contract (never loosen)."""
        b = Bound.pointwise(0.125)
        back = b.to(dst, frames=frames).to("pointwise", frames=frames)
        assert back.value <= b.value * (1 + 1e-12)
        other = Bound(dst, 0.125)
        there = other.to("pointwise", frames=frames).to(dst,
                                                       frames=frames)
        assert there.value <= other.value * (1 + 1e-12)

    def test_pointwise_source_routes_through_l2(self, frames):
        """max|err| <= ||err||_2: a pointwise target converts to the
        *same* L2 value, and to rmse as value / sqrt(n) — enforcing
        either guarantees the pointwise bound."""
        n = frames.size
        b = Bound.pointwise(0.5)
        assert b.to("l2", frames=frames).value == 0.5
        assert b.to("rmse", frames=frames).value \
            == pytest.approx(0.5 / np.sqrt(n))

    def test_pointwise_bound_holds_on_l2_native_codec(self):
        """Regression: Bound.pointwise must actually bound max|err|
        when enforced by an rmse/l2-native codec."""
        from repro.codecs import get_codec
        rng = np.random.default_rng(11)
        frames = rng.normal(size=(8, 16, 16)).cumsum(axis=0)
        codec = get_codec("tthresh")  # rmse-native
        target = 0.05
        native = Bound.pointwise(target).native_for(codec, frames)
        res = codec.compress(frames, native)
        assert np.abs(res.reconstruction - frames).max() \
            <= target * (1 + 1e-9)

    def test_matches_legacy_table(self, frames):
        """The exact formulas of the retired codecs/base.py table."""
        n = frames.size
        rng_ = float(frames.max() - frames.min())
        # nrmse -> native kinds
        assert Bound.nrmse(0.01).to("pointwise", frames=frames).value \
            == pytest.approx(0.01 * rng_)
        assert Bound.nrmse(0.01).to("l2", frames=frames).value \
            == pytest.approx(0.01 * rng_ * np.sqrt(n))
        # l2 tau -> native kinds
        assert Bound.l2(5.0).to("rmse", frames=frames).value \
            == pytest.approx(5.0 / np.sqrt(n))
        assert Bound.l2(5.0).to("l2", frames=frames).value == 5.0

    def test_explicit_stats_instead_of_frames(self):
        assert Bound.nrmse(0.1).to("rmse", data_range=2.0).value \
            == pytest.approx(0.2)
        assert Bound.rmse(0.5).to("l2", n=100).value \
            == pytest.approx(5.0)

    def test_missing_stats_raise(self):
        with pytest.raises(ValueError, match="element count"):
            Bound.rmse(0.5).to("l2")
        with pytest.raises(ValueError, match="data range"):
            Bound.rmse(0.5).to("nrmse")
        with pytest.raises(ValueError, match="bound kind"):
            Bound.rmse(0.5).to("junk")

    def test_native_for_codec(self, frames):
        from repro.codecs import get_codec
        sz = get_codec("szlike")       # pointwise-native
        tt = get_codec("tthresh")      # rmse-native
        b = Bound.nrmse(0.01)
        rng_ = float(frames.max() - frames.min())
        assert b.native_for(sz, frames) == pytest.approx(0.01 * rng_)
        assert b.native_for(tt, frames) == pytest.approx(0.01 * rng_)

    def test_native_bound_delegates_to_bound(self, frames):
        """Codec.native_bound is Bound.to onto the native metric."""
        from repro.codecs import get_codec
        codec = get_codec("szlike")
        b = Bound.nrmse(0.02)
        assert codec.native_bound(frames, b) \
            == b.to("pointwise", frames=frames).value
        assert codec.native_bound(frames) is None

    def test_raw_float_rejected_with_hint(self, frames):
        from repro.codecs import get_codec
        with pytest.raises(TypeError, match="Codec.compress"):
            get_codec("szlike").native_bound(frames, 0.5)


class TestOursRangeIsFloat64:
    """``ours`` takes an NRMSE target's data range in float64 whatever
    the input dtype.  A float32 stack holding 1.0 and -2**-25 has a
    range of 1.0 in float32 and 1.0000000298 in float64, and the two
    taus write different payloads."""

    #: sha256 of the archive a Session writes at NRMSE 0.05; re-pinned
    #: when blobs became v4 and the ``tiny`` chain 8 respaced steps
    PIN = ("0a08957b93a23a47dd8a15ba6cc6c860"
           "659914f98bbd055b65b2ec6ac7fcf7c0")

    @staticmethod
    def _codec_and_stack():
        from repro import TrainingConfig, TwoStageTrainer, tiny
        from repro.codecs import LatentDiffusionCodec
        from repro.data import E3SMSynthetic
        from repro.data.base import train_test_windows
        cfg = tiny()
        x = E3SMSynthetic(t=16, h=16, w=16, seed=4).frames(0)
        train, _ = train_test_windows(x, window=cfg.pipeline.window,
                                      train_fraction=0.5, stride=2)
        # untrained weights (seeded init) with a fitted corrector
        comp = TwoStageTrainer(cfg, TrainingConfig(),
                               seed=0).build_compressor(train)
        f = ((x - x.min()) / (x.max() - x.min())).astype(np.float32)
        f.flat[np.argmin(f)] = -2.0 ** -25
        return LatentDiffusionCodec(compressor=comp), f

    def test_session_archive_pinned(self):
        import hashlib

        from repro.api import Session
        codec, f = self._codec_and_stack()
        wide = f.astype(np.float64)
        r32 = float(f.max() - f.min())
        r64 = float(wide.max() - wide.min())
        assert r32 == 1.0 and r64 > r32
        with Session(codec=codec, seed=3) as session:
            data = session.compress(f, bound=Bound.nrmse(0.05)).data
        assert hashlib.sha256(data).hexdigest() == self.PIN
        taus = {r: 0.05 * r * np.sqrt(f.size) for r in (r32, r64)}
        assert codec.compress(f, taus[r64], seed=3).payload == data
        assert codec.compress(f, taus[r32], seed=3).payload != data
