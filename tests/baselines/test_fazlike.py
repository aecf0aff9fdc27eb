"""Tests for the FAZ-analogue (integer wavelet + modular auto-select)."""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import fazlike
from repro.baselines.fazlike import (FAZLikeCompressor, WaveletCoder,
                                     _corner_sizes, lift_forward,
                                     lift_inverse)
from repro.entropy.backend import using_backend
from repro.postprocess.coding import encode_ints


def _smooth_stack(t=8, h=16, w=16, seed=0):
    rng = np.random.default_rng(seed)
    ts = np.linspace(0, 1, t)[:, None, None]
    ys = np.linspace(0, 1, h)[None, :, None]
    xs = np.linspace(0, 1, w)[None, None, :]
    return (np.sin(2 * np.pi * (xs + ts)) * np.cos(np.pi * ys)
            + 0.02 * rng.standard_normal((t, h, w)))


class TestLifting:
    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 33), seed=st.integers(0, 10 ** 6))
    def test_roundtrip_exact_any_length(self, n, seed):
        """Integer lifting must invert exactly for every length."""
        rng = np.random.default_rng(seed)
        x = rng.integers(-10 ** 6, 10 ** 6, size=(n, 3, 2))
        w = lift_forward(x, 0)
        back = lift_inverse(w, 0)
        np.testing.assert_array_equal(back, x)

    @settings(max_examples=25, deadline=None)
    @given(axis=st.integers(0, 2), seed=st.integers(0, 10 ** 6))
    def test_roundtrip_all_axes(self, axis, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(-1000, 1000, size=(7, 9, 8))
        np.testing.assert_array_equal(
            lift_inverse(lift_forward(x, axis), axis), x)

    def test_detail_band_small_on_smooth_signal(self):
        """5/3 details vanish on locally linear signals."""
        x = np.arange(64, dtype=np.int64).reshape(64, 1, 1) * 10
        w = lift_forward(x, 0)
        # interior details vanish; the final one sees only the mirrored
        # left neighbour and keeps the ramp slope
        detail = w[32:-1]
        assert np.abs(detail).max() <= 1  # only rounding residue

    def test_band_layout(self):
        x = np.arange(8, dtype=np.int64).reshape(8, 1, 1)
        w = lift_forward(x, 0)
        assert w.shape == x.shape
        # approx band carries the signal's scale, detail is tiny
        assert np.abs(w[:4]).mean() > np.abs(w[4:]).mean()

    def test_short_axis_passthrough(self):
        x = np.array([[[5]]], dtype=np.int64)
        np.testing.assert_array_equal(lift_forward(x, 0), x)
        np.testing.assert_array_equal(lift_inverse(x, 0), x)


class TestCornerSizes:
    def test_dyadic(self):
        assert _corner_sizes((8, 8, 8), 2) == [(8, 8, 8), (4, 4, 4),
                                               (2, 2, 2)]

    def test_odd_sizes_ceil(self):
        assert _corner_sizes((9, 5, 7), 1) == [(9, 5, 7), (5, 3, 4)]

    def test_size_one_axes_stay(self):
        assert _corner_sizes((1, 8, 8), 1) == [(1, 8, 8), (1, 4, 4)]


class TestWaveletCoder:
    def test_pointwise_bound_honored(self):
        x = 100.0 * _smooth_stack()
        coder = WaveletCoder(levels=2)
        for eb in (1e-1, 1e-3):
            rec = coder.decompress(coder.compress(x, error_bound=eb))
            assert np.abs(x - rec).max() <= eb * (1 + 1e-9)

    def test_compresses_smooth_data(self):
        x = _smooth_stack(16, 32, 32)
        stream = WaveletCoder(levels=3).compress(x, error_bound=1e-3)
        assert len(stream) < x.size * 8 / 3

    def test_odd_shapes_roundtrip(self):
        x = _smooth_stack(7, 13, 11, seed=3)
        coder = WaveletCoder(levels=2)
        rec = coder.decompress(coder.compress(x, error_bound=1e-2))
        assert rec.shape == x.shape
        assert np.abs(x - rec).max() <= 1e-2 * (1 + 1e-9)

    def test_rejects_bad_inputs(self):
        coder = WaveletCoder()
        with pytest.raises(ValueError):
            coder.compress(np.zeros((4, 4)), error_bound=0.1)
        with pytest.raises(ValueError):
            coder.compress(np.zeros((4, 4, 4)), error_bound=0.0)
        with pytest.raises(ValueError):
            WaveletCoder(levels=0)
        with pytest.raises(ValueError):
            coder.decompress(b"JUNK" + b"\x00" * 16)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           t=st.integers(2, 9), h=st.integers(4, 12), w=st.integers(4, 12))
    def test_bound_property_random_shapes(self, seed, t, h, w):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((t, h, w)).cumsum(axis=2)
        eb = 0.03
        coder = WaveletCoder(levels=2)
        rec = coder.decompress(coder.compress(x, error_bound=eb))
        assert np.abs(x - rec).max() <= eb * (1 + 1e-9)


class TestFAZLike:
    def test_bound_and_roundtrip(self):
        x = _smooth_stack(8, 16, 16, seed=4)
        comp = FAZLikeCompressor(levels=2)
        for eb in (1e-1, 1e-3):
            rec = comp.decompress(comp.compress(x, error_bound=eb))
            assert np.abs(x - rec).max() <= eb * (1 + 1e-9)

    def test_never_larger_than_both_modules(self):
        x = _smooth_stack(8, 16, 16, seed=5)
        comp = FAZLikeCompressor(levels=2)
        eb = 1e-3
        combined = comp.compress(x, error_bound=eb)
        wav = comp.wavelet.compress(x, error_bound=eb)
        prd = comp.predictor.compress(x, error_bound=eb)
        assert len(combined) <= min(len(wav), len(prd)) + 5  # +tag/magic

    def test_chosen_module_reported(self):
        x = _smooth_stack(8, 16, 16, seed=6)
        comp = FAZLikeCompressor(levels=2)
        stream = comp.compress(x, error_bound=1e-3)
        assert comp.chosen_module(stream) in ("wavelet", "predictor")

    def test_rejects_foreign_stream(self):
        comp = FAZLikeCompressor()
        with pytest.raises(ValueError):
            comp.decompress(b"XXXX\x00" + b"\x00" * 8)
        with pytest.raises(ValueError):
            comp.chosen_module(b"XXXX\x00")
        with pytest.raises(ValueError):
            comp.decompress(b"FAZ1\x07" + b"\x00" * 8)  # bad tag


class TestCodesOnlyTheWinner:
    """Both modules are quantized, only the estimated winner is entropy
    coded, and the choice is the one exact lengths would make."""

    def _run(self, x, eb, estimate=None, backend=None):
        comp = FAZLikeCompressor(levels=2)
        written = []

        def counting(values, backend=None):
            out = encode_ints(values, backend)
            written.append(len(out))
            return out

        patches = [mock.patch.object(fazlike, "encode_ints", counting)]
        if estimate is not None:
            patches.append(mock.patch.object(
                fazlike, "estimate_encoded_size", estimate))
        with contextlib.ExitStack() as stack:
            for p in patches:
                stack.enter_context(p)
            if backend:
                stack.enter_context(using_backend(backend))
            stream, recon = comp.encode(x, eb)
            coded = sum(written)
            wav = comp.wavelet.compress(x, eb)
            prd = comp.predictor.compress(x, eb)
        exact = "wavelet" if len(wav) <= len(prd) else "predictor"
        assert comp.chosen_module(stream) == exact
        np.testing.assert_array_equal(comp.decompress(stream), recon)
        module = comp.wavelet if exact == "wavelet" else comp.predictor
        head = len(module.quantize(x, eb)[0])
        return coded, len(stream) - 5 - head  # FAZ1 + module tag

    @pytest.mark.parametrize("eb", [1e-1, 1e-2, 1e-3])
    def test_only_the_winner_is_coded(self, eb):
        x = _smooth_stack(8, 16, 16, seed=7)
        written, streams = self._run(x, eb)
        assert written == streams

    def test_estimates_too_close_to_rank_code_both(self):
        x = _smooth_stack(8, 16, 16, seed=7)
        written, streams = self._run(x, 1e-2, estimate=lambda v: 0)
        assert written > streams

    def test_non_default_backend_codes_both(self):
        x = _smooth_stack(8, 16, 16, seed=7)
        written, streams = self._run(x, 1e-2, backend="vrans")
        assert written > streams
