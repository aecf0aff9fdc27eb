"""Tests for the MGARD-analogue and DPCM baselines."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.dpcm import DPCMCompressor
from repro.baselines.mgard import (MGARDLikeCompressor,
                                   _interpolate_from_level, _level_mask)
from repro.postprocess.coding import decode_ints


def _advecting_stack(t=9, h=17, w=16, seed=0):
    rng = np.random.default_rng(seed)
    ts = np.linspace(0, 1, t)[:, None, None]
    ys = np.linspace(0, 1, h)[None, :, None]
    xs = np.linspace(0, 1, w)[None, None, :]
    base = np.sin(2 * np.pi * (xs - 0.5 * ts)) * np.cos(np.pi * ys)
    return 10.0 * base + 0.05 * rng.standard_normal((t, h, w))


def _residual_codes(x, order):
    """The quantized residual planes of a DPCM stream."""
    stream = DPCMCompressor(order=order).compress(x, error_bound=1e-3)
    q, _ = decode_ints(stream, 4 + struct.calcsize("<IIIId"))
    return q.reshape(x.shape)


class TestLevelHelpers:
    def test_level_mask_counts(self):
        mask = _level_mask((8, 8, 8), 1)
        assert mask.sum() == 4 * 4 * 4
        assert mask[0, 0, 0] and mask[2, 4, 6]
        assert not mask[1, 0, 0]

    def test_level0_mask_is_everything(self):
        assert _level_mask((4, 5, 6), 0).all()

    def test_interpolation_reproduces_linear_fields(self):
        """Multilinear interpolation is exact on multilinear data."""
        t, h, w = 9, 9, 9
        ts = np.arange(t)[:, None, None].astype(float)
        ys = np.arange(h)[None, :, None].astype(float)
        xs = np.arange(w)[None, None, :].astype(float)
        lin = 2 * ts + 3 * ys - xs + 1
        interp = _interpolate_from_level(lin, 2)
        np.testing.assert_allclose(interp, lin, atol=1e-10)

    def test_interpolation_is_convex_combination(self):
        """Interpolated values never exceed the lattice range."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((9, 9, 9))
        level = 2
        interp = _interpolate_from_level(x, level)
        lattice = x[::4, ::4, ::4]
        assert interp.max() <= lattice.max() + 1e-12
        assert interp.min() >= lattice.min() - 1e-12


class TestMGARDLike:
    def test_pointwise_bound_honored(self):
        x = _advecting_stack()
        comp = MGARDLikeCompressor(levels=2)
        for eb in (1e-1, 1e-2, 1e-3):
            rec = comp.decompress(comp.compress(x, error_bound=eb))
            assert np.abs(x - rec).max() <= eb * (1 + 1e-9)

    def test_compresses(self):
        x = _advecting_stack(16, 32, 32)
        stream = MGARDLikeCompressor(levels=3).compress(x, error_bound=1e-2)
        assert len(stream) < x.size * 8 / 4

    def test_progressive_decode_levels(self):
        """Coarser reads are smooth views with monotone error."""
        x = _advecting_stack(9, 17, 17, seed=1)
        comp = MGARDLikeCompressor(levels=3)
        stream = comp.compress(x, error_bound=1e-3)
        errs = []
        for lvl in range(4):
            rec = comp.decompress(stream, max_level=lvl)
            assert rec.shape == x.shape
            errs.append(np.abs(x - rec).max())
        # full decode is best; coarser never better than full
        assert errs[0] <= 1e-3 * (1 + 1e-9)
        assert all(e >= errs[0] for e in errs[1:])

    def test_progressive_level_out_of_range(self):
        x = _advecting_stack(5, 9, 9)
        comp = MGARDLikeCompressor(levels=2)
        stream = comp.compress(x, error_bound=1e-2)
        with pytest.raises(ValueError):
            comp.decompress(stream, max_level=3)

    def test_decoder_ignores_constructor_params(self):
        """Budget split travels in the header, not the object."""
        x = _advecting_stack(9, 16, 16, seed=2)
        stream = MGARDLikeCompressor(
            levels=2, budget_ratio=0.3).compress(x, error_bound=1e-2)
        rec = MGARDLikeCompressor(
            levels=4, budget_ratio=0.9).decompress(stream)
        assert np.abs(x - rec).max() <= 1e-2 * (1 + 1e-9)

    def test_rejects_bad_inputs(self):
        comp = MGARDLikeCompressor()
        with pytest.raises(ValueError):
            comp.compress(np.zeros((4, 4)), error_bound=0.1)
        with pytest.raises(ValueError):
            comp.compress(np.zeros((4, 4, 4)), error_bound=-1.0)
        with pytest.raises(ValueError):
            MGARDLikeCompressor(levels=0)
        with pytest.raises(ValueError):
            MGARDLikeCompressor(budget_ratio=1.0)
        with pytest.raises(ValueError):
            comp.decompress(b"ZZZZ" + b"\x00" * 32)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           t=st.integers(4, 10), h=st.integers(5, 12),
           w=st.integers(5, 12))
    def test_bound_property_random_shapes(self, seed, t, h, w):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((t, h, w)).cumsum(axis=1)
        eb = 0.05
        comp = MGARDLikeCompressor(levels=2)
        rec = comp.decompress(comp.compress(x, error_bound=eb))
        assert np.abs(x - rec).max() <= eb * (1 + 1e-9)


class TestDPCM:
    def test_pointwise_bound_honored_both_orders(self):
        x = _advecting_stack()
        for order in (1, 2):
            comp = DPCMCompressor(order=order)
            for eb in (1e-1, 1e-3):
                rec = comp.decompress(comp.compress(x, error_bound=eb))
                assert np.abs(x - rec).max() <= eb * (1 + 1e-9)

    def test_order2_beats_order1_on_linear_motion(self):
        """Linear extrapolation wins when frames drift linearly: from
        t = 2 on it predicts the ramp, so its residual codes are
        smaller in magnitude, and its stream is shorter."""
        t = np.arange(12, dtype=float)[:, None, None]
        rng = np.random.default_rng(0)
        spatial = rng.standard_normal((1, 16, 16))
        x = spatial + 0.7 * t  # per-pixel linear ramp in time
        q1, q2 = (_residual_codes(x, order) for order in (1, 2))
        assert np.abs(q2[2:]).sum() < np.abs(q1[2:]).sum()
        # one shared velocity makes order 1's residual a near-constant
        # that its histogram codes almost for free, so the sizes are
        # compared on per-pixel velocities
        x = spatial + rng.uniform(0.2, 1.2, (1, 16, 16)) * t
        s1 = DPCMCompressor(order=1).compress(x, error_bound=1e-3)
        s2 = DPCMCompressor(order=2).compress(x, error_bound=1e-3)
        assert len(s2) < len(s1)

    def test_stream_records_order(self):
        x = _advecting_stack(6, 8, 8)
        stream = DPCMCompressor(order=2).compress(x, error_bound=1e-2)
        rec = DPCMCompressor(order=1).decompress(stream)
        assert np.abs(x - rec).max() <= 1e-2 * (1 + 1e-9)

    def test_static_sequence_is_cheap(self):
        x = np.tile(np.random.default_rng(1).standard_normal((1, 16, 16)),
                    (10, 1, 1))
        comp = DPCMCompressor(order=1)
        stream = comp.compress(x, error_bound=1e-3)
        # after frame 0 every residual is exactly zero
        assert len(stream) < x.size * 2

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            DPCMCompressor(order=3)
        comp = DPCMCompressor()
        with pytest.raises(ValueError):
            comp.compress(np.zeros((4, 4)), error_bound=0.1)
        with pytest.raises(ValueError):
            comp.compress(np.zeros((4, 4, 4)), error_bound=0.0)
        with pytest.raises(ValueError):
            comp.decompress(b"NOPE" + b"\x00" * 16)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), order=st.sampled_from([1, 2]))
    def test_bound_property(self, seed, order):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((6, 7, 9))
        eb = 0.02
        comp = DPCMCompressor(order=order)
        rec = comp.decompress(comp.compress(x, error_bound=eb))
        assert np.abs(x - rec).max() <= eb * (1 + 1e-9)
