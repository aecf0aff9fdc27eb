"""Coefficient selection in the corrector: one allocation over the stack.

The selection is the paper's future-work "accelerated post-processing":
one cumulative sum over the gain-sorted (block, coefficient) pairs of
the whole stack.  It must preserve the guarantee, decode bitwise
through ``apply``, and keep no more coefficients than a brute-force
search over every subset needs.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.postprocess import ErrorBoundCorrector, ResidualPCA, blockify
from repro.postprocess.bound import DELTA


def _setup(seed=0, shape=(4, 16, 16), block=4, rank=8):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape).cumsum(axis=1)
    x_r = x + 0.3 * rng.standard_normal(shape)
    # structured + white training residual, as the pipeline produces
    train_res = (x - x_r) + 0.05 * rng.standard_normal(shape)
    pca = ResidualPCA(block=block, rank=rank).fit(train_res)
    return x, x_r, pca


def _spanned_setup(seed, n_blocks, rank, block=4):
    """``n_blocks * rank <= 12`` coefficient slots and a residual the
    basis spans, small enough to search every subset of kept
    coefficients."""
    rng = np.random.default_rng(seed)
    D = block * block
    pca = ResidualPCA(block=block, rank=rank)
    pca.basis = np.linalg.qr(rng.standard_normal((D, rank)))[0]
    coeffs = rng.standard_normal((n_blocks, rank)) * rng.uniform(
        0.1, 3.0, size=(n_blocks, 1))
    x_r = rng.standard_normal((1, block, n_blocks * block))
    rows = coeffs @ pca.basis.T
    residual = rows.reshape(n_blocks, block, block).transpose(1, 0, 2)
    x = x_r + residual.reshape(1, block, n_blocks * block)
    return x, x_r, pca


def _check_against_oracle(x, x_r, pca, tau):
    """The kept set meets ``tau² (1 − DELTA)`` and no smaller subset of
    coefficients, quantized with the chosen step, does."""
    corr = ErrorBoundCorrector(pca)
    res = corr.correct(x, x_r, tau)
    (_, _, counts, idx, q_kept, escape, _, qstep,
     _) = corr._unpack(res.payload)
    assert not escape.any()          # the basis spans the residual
    budget = tau * tau * (1.0 - DELTA)
    rows, _ = blockify(x - x_r, pca.block)
    n_blocks, rank = rows.shape[0], pca.rank
    q = np.rint(rows @ pca.basis / qstep)
    chosen = np.zeros((n_blocks, rank), dtype=bool)
    chosen[np.repeat(np.arange(n_blocks), counts), idx] = True
    np.testing.assert_array_equal(q[chosen], q_kept)

    subsets = np.array(list(itertools.product(
        (False, True), repeat=n_blocks * rank))).reshape(-1, n_blocks,
                                                         rank)
    kept = subsets * (q * qstep)                      # (S, nb, rank)
    err2 = ((rows - kept @ pca.basis.T) ** 2).sum(axis=(1, 2))
    sizes = subsets.sum(axis=(1, 2))
    chosen_err2 = ((rows - (chosen * q * qstep) @ pca.basis.T) ** 2).sum()
    assert chosen_err2 <= budget
    assert chosen.sum() == sizes[err2 <= budget].min()
    assert res.achieved_l2 <= tau
    return res


class TestVectorizedSelection:
    @pytest.mark.parametrize("tau_frac", [0.8, 0.4, 0.15])
    def test_matches_brute_force_oracle(self, tau_frac):
        x, x_r, pca = _spanned_setup(seed=5, n_blocks=2, rank=6)
        tau = tau_frac * float(np.linalg.norm(x - x_r))
        res = _check_against_oracle(x, x_r, pca, tau)
        assert res.n_coefficients > 0

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           frac=st.sampled_from([0.6, 0.3, 0.1]),
           layout=st.sampled_from([(1, 12), (2, 6), (3, 4)]))
    def test_oracle_property(self, seed, frac, layout):
        # 8x8 blocks: escaping 64 values costs more than keeping at most
        # 12 coefficients, so the smallest payload keeps coefficients
        # (escaping a 4x4 block can be the smaller payload)
        x, x_r, pca = _spanned_setup(seed, *layout, block=8)
        _check_against_oracle(x, x_r, pca,
                              frac * float(np.linalg.norm(x - x_r)))

    def test_bound_holds_vectorized(self):
        x, x_r, pca = _setup(seed=1)
        fast = ErrorBoundCorrector(pca)
        for frac in (0.9, 0.5, 0.2, 0.05):
            tau = frac * float(np.linalg.norm(x - x_r))
            res = fast.correct(x, x_r, tau)
            assert res.achieved_l2 <= tau * (1 + 1e-9)
            # the budget is spent (a per-block share left 0.57-0.90 tau)
            assert res.achieved_l2 >= 0.9 * tau

    def test_error_inside_the_margin_is_corrected(self):
        """An error between ``tau √(1 − DELTA)`` and ``tau`` already
        meets the bound, but not the margin kept for decoders whose
        ``x_R`` differs, so the encoder still corrects it."""
        x, x_r, pca = _setup(seed=3)
        tau = float(np.linalg.norm(x - x_r)) / np.sqrt(1.0 - DELTA / 2)
        res = ErrorBoundCorrector(pca).correct(x, x_r, tau)
        assert res.n_coefficients > 0
        assert res.achieved_l2 <= tau * np.sqrt(1.0 - DELTA)

    def test_apply_decodes_vectorized_payload(self):
        x, x_r, pca = _setup(seed=2)
        fast = ErrorBoundCorrector(pca)
        tau = 0.3 * float(np.linalg.norm(x - x_r))
        res = fast.correct(x, x_r, tau)
        decoded = fast.apply(x_r, res.payload)
        np.testing.assert_array_equal(decoded, res.corrected)

    def test_no_active_blocks_empty_payload_paths_agree(self):
        x, x_r, pca = _setup(seed=3)
        # bound looser than the existing error: nothing to fix
        tau = 2.0 * float(np.linalg.norm(x - x_r))
        corr = ErrorBoundCorrector(pca)
        res = corr.correct(x, x_r, tau)
        assert res.n_coefficients == 0
        assert res.n_escape_blocks == 0
        np.testing.assert_array_equal(res.corrected, x_r)
        np.testing.assert_array_equal(corr.apply(x_r, res.payload), x_r)

    def test_escape_blocks_agree(self):
        """Force escapes with a basis that cannot span the residual;
        encoder and decoder agree on the escaped blocks, bitwise."""
        rng = np.random.default_rng(4)
        shape = (2, 8, 8)
        x_r = np.zeros(shape)
        x = rng.standard_normal(shape)  # white residual, rank-2 basis
        pca = ResidualPCA(block=4, rank=2).fit(
            np.ones(shape) + 0.01 * rng.standard_normal(shape))
        tau = 0.05 * float(np.linalg.norm(x))
        corr = ErrorBoundCorrector(pca)
        res = corr.correct(x, x_r, tau)
        assert res.n_escape_blocks > 0
        assert res.achieved_l2 <= tau
        np.testing.assert_array_equal(corr.apply(x_r, res.payload),
                                      res.corrected)

    def test_escapes_only_blocks_the_basis_cannot_fix(self):
        """One block far off the basis escapes; the rest are fixed with
        coefficients."""
        x, x_r, pca = _spanned_setup(seed=6, n_blocks=3, rank=4)
        tau = 0.2 * float(np.linalg.norm(x - x_r))
        x = x.copy()
        x[0, :, :4] += 5.0 * np.random.default_rng(6).standard_normal(
            (4, 4))
        res = ErrorBoundCorrector(pca).correct(x, x_r, tau)
        assert res.n_escape_blocks == 1
        assert res.n_coefficients > 0
        assert res.achieved_l2 <= tau
