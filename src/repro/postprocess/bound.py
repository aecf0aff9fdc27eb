"""Error-bound enforcement (Eqs. 9-10).

Given the original frames ``x`` and a lossy reconstruction ``x_R``,
:class:`ErrorBoundCorrector` produces a corrected ``x_G`` with
``||x - x_G||_2 <= tau`` plus the coded payload whose size is the
``Size(G)`` term of the compression ratio (Eq. 11).

The corrector spends the squared budget with one allocation over the
whole stack.  The PCA basis has orthonormal columns, so keeping a
block's coefficient ``c``, quantized to ``q̃``, lowers that block's
squared error by exactly ``2 c q̃ − q̃²`` (its *gain*).  The encoder
sorts the gains of every (block, coefficient) pair once and keeps the
shortest prefix that brings ``Σ err²`` down to ``tau² (1 − DELTA)``.
Blocks the basis cannot fix even with all their coefficients kept fall
back to direct uniform quantization of their residual ("escape"
blocks).  Every error is measured, not assumed, and one escape step
bounds each escaped block by its even share of the budget, so the
bound holds unconditionally, not just in expectation.

The selection runs once per candidate coefficient step (and, where
blocks escape, per escape step); each candidate's payload is sized
from the histograms it would carry
(:func:`~repro.postprocess.coding.estimate_encoded_size`) and only the
smallest that meets the budget is entropy-coded.  Steps, counts,
indices, values and escapes travel in the payload, so
:meth:`ErrorBoundCorrector.apply` needs no knowledge of how they were
chosen.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .coding import decode_ints, encode_ints, estimate_encoded_size
from .pca import ResidualPCA, blockify, unblockify

__all__ = ["ErrorBoundCorrector", "BoundResult", "DELTA"]

_HDR = "<dII"  # tau, n_blocks, geometry marker (block edge)

#: Share of the squared budget the encoder leaves unspent: it stops at
#: ``tau² (1 − DELTA)``, an L2 margin of ``tau (1 − √(1 − DELTA))``
#: (≈ 5e-7 tau) for decoders whose reconstruction ``x_R`` differs from
#: the encoder's.  See :class:`ErrorBoundCorrector` for the measurement.
DELTA = 1e-6

#: Quantizer steps ``2 tau_b / 2**k`` tried besides the finest one,
#: ``k = coeff_quant_bits``; ``tau_b = tau / √n_blocks`` is a block's
#: even share of the budget.  Coarser steps keep fewer distinct values
#: but need more coefficients (or escapes) for the same error.
_COARSE_BITS = (1, 2, 4)

#: Escape steps tried, as multiples of the step whose worst-case
#: elementwise error keeps an escaped block within its even share (so
#: escaping every block meets the budget by construction).  At √3 the
#: *expected* error of uniform quantization, step²/12 per element, is
#: that share; coarser steps are kept only where the measured errors
#: meet the budget.
_ESC_STEP_MULTS = (1.0, np.sqrt(2.0), np.sqrt(3.0))


@dataclass
class BoundResult:
    """Outcome of a correction pass."""

    corrected: np.ndarray     # x_G
    payload: bytes            # coded G stream
    achieved_l2: float        # actual ||x - x_G||_2
    tau: float
    n_escape_blocks: int
    n_coefficients: int

    @property
    def payload_bytes(self) -> int:
        return len(self.payload)


@dataclass
class _Selection:
    """One quantizer step's allocation: what the payload would carry."""

    qstep: float
    esc_step: float
    q: np.ndarray          # (nb, rank) quantized coefficients
    keep: np.ndarray       # (nb, rank) kept-coefficient mask
    order: np.ndarray      # flat (block, coeff) positions by falling gain
    n_kept: int            # keep holds order[:n_kept]
    escape: np.ndarray     # (nb,) escape-block mask
    esc_q: np.ndarray      # (n_escape, D) quantized escape residuals
    err2: float            # the stack's squared error after correction
    size: int = 0          # estimated payload bytes

    def streams(self):
        """The integer streams :meth:`ErrorBoundCorrector._pack` codes,
        in payload order."""
        return (self.keep.sum(axis=1), np.nonzero(self.keep)[1],
                self.q[self.keep].astype(np.int64),
                self.escape.astype(np.int64), self.esc_q.ravel())


class ErrorBoundCorrector:
    """PCA residual corrector with an unconditional L2 guarantee.

    Parameters
    ----------
    pca:
        Fitted residual basis (orthonormal columns).
    coeff_quant_bits:
        The finest quantizer step tried for kept coefficients is
        ``2 tau_b / 2**coeff_quant_bits``; the coarser steps of
        ``_COARSE_BITS`` are tried too, and the one with the smallest
        payload wins.

    The encoder stops at ``tau² (1 − DELTA)`` with ``DELTA = 1e-6``,
    which reserves an L2 margin of ``tau (1 − √(1 − DELTA))`` ≈
    ``5.0e-7 tau``.  The margin covers a decoder whose ``x_R`` differs
    from the encoder's: the learned decoders run their GEMMs over
    batches of windows, and BLAS sums a GEMM in another order for
    another batch shape (or on another host).  Measured divergence:
    decoding one archive with ``MAX_BATCH_WINDOWS`` 16, 2 and 1, and
    through two ``Session`` shards, moved the corrected output by at
    most ``7.3e-15 tau`` in L2 (at NRMSE 0.05 and 0.01 and an ``l2``
    bound, ``tests/pipeline/test_bound_decode_layouts.py``; at most
    ``3.4e-15 tau`` and ``1.1e-13`` elementwise on the
    ``flagship-ours`` dumps).  The margin is ~7e7 times that, and the
    tests require at least 1000 times.
    """

    def __init__(self, pca: ResidualPCA, coeff_quant_bits: int = 10):
        if not pca.is_fitted:
            raise ValueError("corrector requires a fitted ResidualPCA")
        if coeff_quant_bits < 2:
            raise ValueError("coeff_quant_bits must be >= 2")
        self.pca = pca
        self.coeff_quant_bits = coeff_quant_bits

    # ------------------------------------------------------------------
    def correct(self, x: np.ndarray, x_r: np.ndarray,
                tau: float) -> BoundResult:
        """Encode a correction achieving ``||x - x_G||_2 <= tau``.

        ``x`` and ``x_r`` are ``(T, H, W)`` frame stacks.  The returned
        ``corrected`` is bitwise ``apply(x_r, payload)``.
        """
        x = np.asarray(x, dtype=np.float64)
        x_r = np.asarray(x_r, dtype=np.float64)
        if x.shape != x_r.shape:
            raise ValueError(f"shape mismatch {x.shape} vs {x_r.shape}")
        if tau <= 0:
            raise ValueError("tau must be positive")
        residual = x - x_r
        rows, geom = blockify(residual, self.pca.block)
        nb, D = rows.shape
        budget = tau * tau * (1.0 - DELTA)
        tau_b = tau / np.sqrt(nb)
        coeffs = self.pca.project(rows)                  # (nb, rank)
        block_err2 = np.einsum("ij,ij->i", rows, rows)
        # escaped blocks: an elementwise step that keeps a block's
        # error <= tau_b² (1 − DELTA), and coarser multiples of it
        esc_base = max(2.0 * tau_b * np.sqrt((1.0 - DELTA) / D), 1e-12)

        bits = [k for k in _COARSE_BITS if k < self.coeff_quant_bits]
        cands = []
        for k in bits + [self.coeff_quant_bits]:
            for mult in _ESC_STEP_MULTS:
                cands.append(self._select(
                    rows, coeffs, block_err2, budget,
                    max(2.0 * tau_b / (1 << k), 1e-12), esc_base * mult))
                if not cands[-1].escape.any():
                    break       # no block escapes: the escape step is moot
        # the smallest payload that meets the budget; if rounding leaves
        # none (every block escaped at esc_base), the closest to it
        sel = min(cands, key=lambda c: (0, c.size) if c.err2 <= budget
                  else (1, c.err2))

        # The selection's error is exact only in real arithmetic; grow
        # the prefix if rounding leaves the recomputed error over budget.
        while True:
            correction = self._correction(sel, D)
            x_g = x_r + unblockify(correction, geom)
            achieved = float(np.linalg.norm(x - x_g))
            if achieved * achieved <= budget or sel.n_kept == sel.order.size:
                break
            sel.keep.flat[sel.order[sel.n_kept]] = True
            sel.n_kept += 1

        payload = self._pack(tau, geom, *sel.streams()[:3], sel.escape,
                             list(sel.esc_q), sel.qstep, sel.esc_step)
        # belt-and-braces: the construction guarantees this, assert it
        if achieved > tau * (1 + 1e-9):
            raise AssertionError(
                f"error bound violated: {achieved} > {tau}")
        return BoundResult(corrected=x_g, payload=payload,
                           achieved_l2=achieved, tau=tau,
                           n_escape_blocks=int(sel.escape.sum()),
                           n_coefficients=sel.n_kept)

    # ------------------------------------------------------------------
    @staticmethod
    def _select(rows, coeffs, block_err2, budget, qstep,
                esc_step) -> _Selection:
        """The global allocation at one coefficient and escape step.

        Orthonormal columns make a block's error after keeping the
        quantized coefficients ``q̃_j`` exactly
        ``||r||² − Σ_j (2 c_j q̃_j − q̃_j²)``, so the stack's error for
        any prefix of the gain-sorted (block, coefficient) list is one
        cumulative sum.
        """
        nb, D = rows.shape
        q = np.rint(coeffs / qstep)
        q_tilde = q * qstep
        gain = 2.0 * coeffs * q_tilde - q_tilde * q_tilde   # 0 where q == 0
        # blocks the basis cannot fix: while keeping every coefficient
        # still misses the budget, escape the block whose escape saves
        # the most (if even escaping them all misses it, this escape
        # step cannot meet the budget; err2 reports by how much)
        escape = np.zeros(nb, dtype=bool)
        esc_q = np.zeros((0, D), dtype=np.int64)
        left = block_err2 - gain.sum(axis=1)
        err2 = block_err2.sum()
        if left.sum() > budget:
            esc_all = np.rint(rows / esc_step)
            esc_err2 = ((rows - esc_all * esc_step) ** 2).sum(axis=1)
            saving = left - esc_err2
            by_saving = np.argsort(-saving, kind="stable")
            met = left.sum() - np.cumsum(saving[by_saving]) <= budget
            n_esc = int(np.argmax(met)) + 1 if met.any() else nb
            escape[by_saving[:n_esc]] = True
            esc_q = esc_all[escape].astype(np.int64)
            gain[escape] = 0.0
            err2 = block_err2[~escape].sum() + esc_err2[escape].sum()
        flat = gain.ravel()
        order = np.flatnonzero(flat > 0.0)
        order = order[np.argsort(-flat[order], kind="stable")]
        n_kept = 0
        if err2 > budget and order.size:
            reach = np.cumsum(flat[order])
            n_kept = min(int(np.searchsorted(reach, err2 - budget)) + 1,
                         order.size)
            err2 -= reach[n_kept - 1]
        keep = np.zeros(flat.size, dtype=bool)
        keep[order[:n_kept]] = True
        sel = _Selection(qstep=qstep, esc_step=esc_step, q=q,
                         keep=keep.reshape(q.shape), order=order,
                         n_kept=n_kept, escape=escape, esc_q=esc_q,
                         err2=float(err2))
        sel.size = sum(estimate_encoded_size(s) for s in sel.streams())
        return sel

    def _correction(self, sel: _Selection, D: int) -> np.ndarray:
        """Correction rows from a selection, with the arithmetic
        :meth:`apply` runs on the decoded payload (so the encoder's
        ``x_G`` is bitwise the decoder's)."""
        counts, kept_idx, kept_q = sel.streams()[:3]
        correction = np.zeros((counts.size, D))
        ends = np.cumsum(counts).tolist()
        for b in np.flatnonzero(counts).tolist():
            start, end = ends[b] - int(counts[b]), ends[b]
            correction[b] = (self.pca.basis[:, kept_idx[start:end]]
                             @ (kept_q[start:end].astype(np.float64)
                                * sel.qstep))
        for b, vals in zip(np.flatnonzero(sel.escape), sel.esc_q):
            correction[b] = vals.astype(np.float64) * sel.esc_step
        return correction

    # ------------------------------------------------------------------
    def apply(self, x_r: np.ndarray, payload: bytes) -> np.ndarray:
        """Decoder side: apply a coded correction to ``x_r``."""
        x_r = np.asarray(x_r, dtype=np.float64)
        (tau, geom, kept_counts, kept_idx, kept_q, escape_mask, esc_vals,
         qstep, esc_step) = self._unpack(payload)
        T, H, W, Hp, Wp, block = geom
        if x_r.shape != (T, H, W):
            raise ValueError(
                f"reconstruction shape {x_r.shape} does not match payload "
                f"geometry {(T, H, W)}")
        nb = kept_counts.size
        D = block * block
        correction = np.zeros((nb, D))
        pos = 0
        for b in range(nb):
            k = kept_counts[b]
            if k:
                idx = kept_idx[pos:pos + k]
                q = kept_q[pos:pos + k]
                correction[b] = (self.pca.basis[:, idx]
                                 @ (q.astype(np.float64) * qstep))
                pos += k
        ei = 0
        for b in np.nonzero(escape_mask)[0]:
            correction[b] = esc_vals[ei].astype(np.float64) * esc_step
            ei += 1
        return x_r + unblockify(correction, geom)

    # ------------------------------------------------------------------
    def _pack(self, tau, geom, kept_counts, kept_idx, kept_q, escape_mask,
              esc_vals, qstep, esc_step) -> bytes:
        T, H, W, Hp, Wp, block = geom
        head = struct.pack("<dIIIIII dd", tau, T, H, W, Hp, Wp, block,
                           qstep, esc_step)
        parts = [head]
        parts.append(encode_ints(kept_counts))
        parts.append(encode_ints(np.asarray(kept_idx, dtype=np.int64)))
        parts.append(encode_ints(np.asarray(kept_q, dtype=np.int64)))
        parts.append(encode_ints(escape_mask.astype(np.int64)))
        esc_flat = (np.concatenate(esc_vals) if esc_vals
                    else np.zeros(0, dtype=np.int64))
        parts.append(encode_ints(esc_flat))
        return b"".join(parts)

    def _unpack(self, payload: bytes):
        head_fmt = "<dIIIIII dd"
        head_size = struct.calcsize(head_fmt)
        tau, T, H, W, Hp, Wp, block, qstep, esc_step = struct.unpack_from(
            head_fmt, payload, 0)
        if block != self.pca.block:
            raise ValueError(
                f"payload block edge {block} != corrector block "
                f"{self.pca.block}")
        geom = (T, H, W, Hp, Wp, block)
        off = head_size
        kept_counts, off = decode_ints(payload, off)
        kept_idx, off = decode_ints(payload, off)
        kept_q, off = decode_ints(payload, off)
        esc_flags, off = decode_ints(payload, off)
        esc_flat, off = decode_ints(payload, off)
        escape_mask = esc_flags.astype(bool)
        D = block * block
        n_esc = int(escape_mask.sum())
        esc_vals = [esc_flat[i * D:(i + 1) * D] for i in range(n_esc)]
        return (tau, geom, kept_counts, kept_idx, kept_q, escape_mask,
                esc_vals, qstep, esc_step)
