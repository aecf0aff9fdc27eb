"""PCA error-bound guarantee tests (Sec. 3.5)."""

import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.postprocess import (BoundResult, ErrorBoundCorrector, ResidualPCA,
                               blockify, decode_ints, encode_ints,
                               unblockify)
from repro.postprocess.coding import estimate_encoded_size

RNG = np.random.default_rng(0)
DATA = pathlib.Path(__file__).parent / "data"


def smooth_residuals(t=6, h=16, w=16, seed=1, scale=0.3):
    """Residual frames with low-rank spatial structure + noise."""
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(np.linspace(0, np.pi, h), np.linspace(0, np.pi, w),
                         indexing="ij")
    out = np.zeros((t, h, w))
    for i in range(t):
        out[i] = (np.sin(2 * yy + i) * np.cos(3 * xx)
                  + 0.5 * np.sin(5 * xx + 0.3 * i))
    out += rng.normal(0, 0.05, size=out.shape)
    return out * scale


class TestBlockify:
    def test_roundtrip_exact_division(self):
        x = RNG.normal(size=(3, 16, 16))
        rows, geom = blockify(x, 4)
        assert rows.shape == (3 * 16, 16)
        np.testing.assert_allclose(unblockify(rows, geom), x)

    def test_roundtrip_with_padding(self):
        x = RNG.normal(size=(2, 10, 13))
        rows, geom = blockify(x, 4)
        np.testing.assert_allclose(unblockify(rows, geom), x)

    def test_rejects_bad_ndim(self):
        with pytest.raises(ValueError):
            blockify(np.zeros((4, 4)), 2)

    def test_block_content_layout(self):
        x = np.arange(16.0).reshape(1, 4, 4)
        rows, _ = blockify(x, 2)
        np.testing.assert_array_equal(rows[0], [0, 1, 4, 5])


class TestResidualPCA:
    def test_fit_produces_orthonormal_basis(self):
        pca = ResidualPCA(block=4, rank=8).fit(smooth_residuals())
        gram = pca.basis.T @ pca.basis
        np.testing.assert_allclose(gram, np.eye(8), atol=1e-10)

    def test_project_reconstruct_consistency(self):
        pca = ResidualPCA(block=4, rank=16).fit(smooth_residuals())
        rows, _ = blockify(smooth_residuals(seed=2), 4)
        c = pca.project(rows)
        # full-rank (16 = 4*4): perfect reconstruction
        np.testing.assert_allclose(pca.reconstruct(c), rows, atol=1e-8)

    def test_truncation_reduces_energy(self):
        pca = ResidualPCA(block=4, rank=3).fit(smooth_residuals())
        rows, _ = blockify(smooth_residuals(seed=3), 4)
        approx = pca.reconstruct(pca.project(rows))
        assert np.linalg.norm(rows - approx) < np.linalg.norm(rows)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            ResidualPCA().project(np.zeros((1, 64)))

    def test_state_roundtrip(self):
        pca = ResidualPCA(block=4, rank=5).fit(smooth_residuals())
        pca2 = ResidualPCA.from_state(pca.state())
        np.testing.assert_array_equal(pca.basis, pca2.basis)

    def test_degenerate_training_set_still_full_rank(self):
        """Rank-deficient residuals are completed to the requested rank."""
        flat = np.zeros((4, 8, 8))
        flat[:, 0, 0] = 1.0
        pca = ResidualPCA(block=4, rank=6).fit(flat)
        assert pca.basis.shape == (16, 6)
        gram = pca.basis.T @ pca.basis
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-10)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ResidualPCA(block=0)
        with pytest.raises(ValueError):
            ResidualPCA(rank=0)


class TestIntCodec:
    def test_roundtrip(self):
        vals = RNG.integers(-50, 50, size=300)
        data = encode_ints(vals)
        back, off = decode_ints(data)
        np.testing.assert_array_equal(back, vals)
        assert off == len(data)

    def test_empty(self):
        data = encode_ints(np.zeros(0, dtype=np.int64))
        back, _ = decode_ints(data)
        assert back.size == 0

    def test_constant(self):
        vals = np.full(40, 7)
        back, _ = decode_ints(encode_ints(vals))
        np.testing.assert_array_equal(back, vals)

    def test_concatenated_payloads(self):
        a = RNG.integers(-5, 5, size=20)
        b = RNG.integers(100, 120, size=7)
        blob = encode_ints(a) + encode_ints(b)
        av, off = decode_ints(blob)
        bv, off2 = decode_ints(blob, off)
        np.testing.assert_array_equal(av, a)
        np.testing.assert_array_equal(bv, b)
        assert off2 == len(blob)

    def test_huge_range_falls_back_to_varints(self):
        info = np.iinfo(np.int64)
        vals = np.array([0, 10_000_000, -123456, 42, info.min, info.max,
                         info.min + 1, info.max - 1])
        data = encode_ints(vals)
        back, off = decode_ints(data)
        np.testing.assert_array_equal(back, vals)
        assert off == len(data)

    def test_bad_magic_raises(self):
        with pytest.raises(ValueError):
            decode_ints(b"XX" + b"\x00" * 30)

    def test_skewed_compresses(self):
        vals = np.zeros(2000, dtype=np.int64)
        vals[::50] = 3
        data = encode_ints(vals)
        assert len(data) < 2000  # far below 1 byte per symbol


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.integers(-4, 4), st.integers(-10 ** 6, 10 ** 6)),
                min_size=0, max_size=300))
def test_size_estimate_tracks_encoded_length(vals):
    """Headers and varints are sized exactly, the coded body to within
    the coder's few termination bytes."""
    arr = np.array(vals, dtype=np.int64)
    assert abs(estimate_encoded_size(arr) - len(encode_ints(arr))) <= 6


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-2000, 2000), min_size=0, max_size=200))
def test_int_codec_roundtrip_property(vals):
    arr = np.array(vals, dtype=np.int64)
    back, _ = decode_ints(encode_ints(arr))
    np.testing.assert_array_equal(back, arr)


class TestErrorBoundCorrector:
    def make(self, rank=12, block=4):
        pca = ResidualPCA(block=block, rank=rank).fit(smooth_residuals())
        return ErrorBoundCorrector(pca)

    def test_bound_is_satisfied(self):
        corr = self.make()
        x = smooth_residuals(seed=5) + 2.0
        x_r = x + smooth_residuals(seed=6, scale=0.2)
        tau = 0.5 * np.linalg.norm(x - x_r)
        res = corr.correct(x, x_r, tau)
        assert res.achieved_l2 <= tau * (1 + 1e-9)

    def test_decoder_matches_encoder(self):
        corr = self.make()
        x = smooth_residuals(seed=7)
        x_r = x + smooth_residuals(seed=8, scale=0.15)
        res = corr.correct(x, x_r, tau=0.4 * np.linalg.norm(x - x_r))
        x_g = corr.apply(x_r, res.payload)
        np.testing.assert_allclose(x_g, res.corrected, atol=1e-12)

    def test_tighter_bound_costs_more_bytes(self):
        corr = self.make()
        x = smooth_residuals(seed=9)
        x_r = x + smooth_residuals(seed=10, scale=0.2)
        err = np.linalg.norm(x - x_r)
        loose = corr.correct(x, x_r, tau=0.8 * err)
        tight = corr.correct(x, x_r, tau=0.2 * err)
        assert tight.payload_bytes > loose.payload_bytes
        assert tight.achieved_l2 <= 0.2 * err * (1 + 1e-9)

    def test_no_correction_needed(self):
        corr = self.make()
        x = smooth_residuals(seed=11)
        res = corr.correct(x, x.copy(), tau=1.0)
        assert res.n_coefficients == 0
        assert res.n_escape_blocks == 0
        np.testing.assert_allclose(res.corrected, x)

    def test_escape_path_guarantees_bound(self):
        """Residuals orthogonal to a tiny basis still meet the bound."""
        pca = ResidualPCA(block=4, rank=1).fit(smooth_residuals())
        corr = ErrorBoundCorrector(pca)
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, 8, 8))          # white noise: PCA-hostile
        x_r = x + rng.normal(0, 0.5, size=x.shape)
        tau = 0.1 * np.linalg.norm(x - x_r)
        res = corr.correct(x, x_r, tau)
        assert res.achieved_l2 <= tau * (1 + 1e-9)
        assert res.n_escape_blocks > 0
        x_g = corr.apply(x_r, res.payload)
        np.testing.assert_allclose(x_g, res.corrected, atol=1e-12)

    def test_invalid_inputs(self):
        corr = self.make()
        x = smooth_residuals()
        with pytest.raises(ValueError):
            corr.correct(x, x[:, :8], tau=1.0)
        with pytest.raises(ValueError):
            corr.correct(x, x, tau=0.0)
        with pytest.raises(ValueError):
            ErrorBoundCorrector(ResidualPCA())  # unfitted
        with pytest.raises(ValueError):
            ErrorBoundCorrector(self.make().pca, coeff_quant_bits=1)

    def test_wrong_geometry_raises(self):
        corr = self.make()
        x = smooth_residuals(seed=13)
        x_r = x + smooth_residuals(seed=14, scale=0.1)
        res = corr.correct(x, x_r, tau=0.5 * np.linalg.norm(x - x_r))
        with pytest.raises(ValueError):
            corr.apply(x_r[:, :8], res.payload)


def test_frozen_payload_decodes_bitwise():
    """A G payload written by the per-block-share encoder (92 kept
    coefficients, one escape block) still decodes to the same bytes."""
    data = np.load(DATA / "bound_payload_v1.npz")
    pca = ResidualPCA.from_state({"block": int(data["block"]),
                                  "rank": int(data["rank"]),
                                  "basis": data["basis"]})
    out = ErrorBoundCorrector(pca).apply(data["x_r"],
                                         data["payload"].tobytes())
    np.testing.assert_array_equal(out, data["decoded"])


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.05, 0.9))
def test_bound_guarantee_property(seed, frac):
    """For random data and random bound fractions the guarantee holds."""
    rng = np.random.default_rng(seed)
    pca = ResidualPCA(block=4, rank=6).fit(
        rng.normal(size=(4, 8, 8)))
    corr = ErrorBoundCorrector(pca)
    x = rng.normal(size=(2, 8, 8)) * rng.uniform(0.5, 3.0)
    x_r = x + rng.normal(size=x.shape) * rng.uniform(0.05, 0.5)
    tau = frac * np.linalg.norm(x - x_r)
    res = corr.correct(x, x_r, tau)
    assert res.achieved_l2 <= tau * (1 + 1e-9)
    back = corr.apply(x_r, res.payload)
    np.testing.assert_allclose(back, res.corrected, atol=1e-10)
