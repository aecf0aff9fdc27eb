"""Vectorized N-lane interleaved rANS entropy coder.

The scalar coders in :mod:`repro.entropy.coder` and
:mod:`repro.entropy.rans` spend almost all of their time in a
per-symbol Python loop — most of the cost of every rule-based
compress and decompress in this repo.  This module removes that loop:
``N`` independent rANS states (*lanes*) advance together as numpy vectors,
one *step* (= one symbol per lane) at a time, so the Python-level trip
count drops from ``n_symbols`` to ``ceil(n_symbols / lanes)`` and each
trip is a handful of vectorized gathers, divisions and masked stores.

Layout and invariants
---------------------
Symbol ``i`` belongs to lane ``i % lanes`` at step ``i // lanes``.
Each lane is a standard 64-bit-state / 32-bit-word rANS coder with the
same b-uniqueness treatment as :mod:`repro.entropy.rans`: frequency
totals are rescaled to the next power of two (identity for power-of-two
tables), which keeps every state in ``[RANS_L, 2^63)`` and guarantees
**at most one** renormalization word per push/pop — the property that
makes the per-step emit/refill a single boolean mask instead of a
``while`` loop.

Encoding walks the steps in reverse (rANS is last-in-first-out),
emitting renormalization words in ascending lane order within a step;
the finished word sequence is reversed, so the decoder — walking steps
forward — refills lanes in descending lane order while consuming the
words left to right.

Stream layout: ``u8 lane count | lanes x u64 final states (LE) |
u32 words (LE)``.  Decoding is strict: leftover words, missing words,
lanes that do not return to the initial state, or slots that fall
outside their cumulative row all raise
:class:`~repro.entropy.coder.EntropyDecodeError` (a ``ValueError``)
instead of decoding garbage.

The symbol lookup on the decode side is vectorized too: when every
context row shares one frequency total (true for every table
:func:`repro.entropy.coder.pmf_to_cumulative` builds), the rows are
flattened into one monotone key array and a single
``np.searchsorted`` resolves a whole step of slots; tables with mixed
per-row totals fall back to a masked comparison over the gathered rows.
"""

from __future__ import annotations

import struct
from typing import Optional

import numpy as np

from .coder import EntropyDecodeError, check_contexts
from .rangecoder import MAX_TOTAL
from .rans import RANS_L

__all__ = ["encode_symbols_vrans", "decode_symbols_vrans", "lane_count",
           "MAX_LANES"]

#: Largest storable lane count (the header field is one byte).
MAX_LANES = 255

_STATE_L = np.uint64(RANS_L)
_WORD_BITS = np.uint64(32)
_WORD_MASK = np.uint64(0xFFFFFFFF)
#: Numerator of the renormalization threshold: ``b * RANS_L = 2^63``.
_X_MAX_NUM = np.uint64((1 << 32) * RANS_L)
_ONE = np.uint64(1)


def lane_count(n: int) -> int:
    """Deterministic lane width for an ``n``-symbol stream.

    Scales with the stream so the ``lanes * 8``-byte state header
    stays a bounded fraction (~6%) of even small payloads, while real
    streams reach the full 64 lanes that amortize the per-step numpy
    dispatch.
    """
    return max(1, min(64, n // 128))


def _pow2_vec(total: np.ndarray) -> np.ndarray:
    """Elementwise smallest power of two ``>= total`` (uint64 in,
    totals ``<= 2^16`` — bit-smearing, exact where float log2 is not)."""
    v = total - _ONE
    for shift in (1, 2, 4, 8, 16):
        v = v | (v >> np.uint64(shift))
    return v + _ONE


def _gather_triples(symbols: np.ndarray, cumulative: np.ndarray,
                    contexts: np.ndarray):
    """``(cum_lo, cum_hi, total)`` per symbol, rescaled to power-of-two
    totals (the vectorized twin of ``RansEncoder.push``'s preamble)."""
    lo = cumulative[contexts, symbols].astype(np.uint64)
    hi = cumulative[contexts, symbols + 1].astype(np.uint64)
    tot = cumulative[contexts, -1].astype(np.uint64)
    if tot.size and int(tot.max()) > MAX_TOTAL:
        raise ValueError(
            f"total {int(tot.max())} exceeds MAX_TOTAL {MAX_TOTAL}")
    if np.any(hi <= lo):
        raise ValueError("zero-frequency symbol is not encodable")
    scaled = _pow2_vec(tot)
    need = scaled != tot
    if np.any(need):
        lo = np.where(need, lo * scaled // tot, lo)
        hi = np.where(need, hi * scaled // tot, hi)
        tot = scaled
    return lo, hi, tot


def encode_symbols_vrans(symbols: np.ndarray, cumulative: np.ndarray,
                         contexts: np.ndarray,
                         lanes: Optional[int] = None) -> bytes:
    """Interleaved-rANS encode ``symbols[i]`` under
    ``cumulative[contexts[i]]``.

    Drop-in equivalent of :func:`repro.entropy.coder.encode_symbols`
    with lane-vectorized state updates.  ``lanes`` overrides the
    automatic width (the decoder reads it from the stream header).
    """
    symbols = np.asarray(symbols, dtype=np.int64).ravel()
    contexts = np.asarray(contexts, dtype=np.int64).ravel()
    if symbols.shape != contexts.shape:
        raise ValueError("symbols and contexts must have equal length")
    check_contexts(contexts, cumulative.shape[0])
    alphabet = cumulative.shape[1] - 1
    if symbols.size and (symbols.min() < 0 or symbols.max() >= alphabet):
        raise ValueError(
            f"symbol out of range [0, {alphabet}): "
            f"[{symbols.min()}, {symbols.max()}]")
    n = symbols.size
    L = lane_count(n) if lanes is None else int(lanes)
    if not 1 <= L <= MAX_LANES:
        raise ValueError(f"lane count must be in [1, {MAX_LANES}], "
                         f"got {L}")
    lo, hi, tot = _gather_triples(symbols, np.ascontiguousarray(cumulative),
                                  contexts)
    freq = hi - lo

    states = np.full(L, _STATE_L, dtype=np.uint64)
    emitted = []  # chronological chunks of renormalization words
    n_steps = -(-n // L)
    # LIFO: walk steps in reverse; the partial step (if any) comes
    # first and touches only the leading ``n - (n_steps-1)*L`` lanes.
    for t in range(n_steps - 1, -1, -1):
        a = t * L
        k = min(L, n - a)
        f = freq[a:a + k]
        tt = tot[a:a + k]
        ll = lo[a:a + k]
        x = states[:k]
        x_max = (_X_MAX_NUM // tt) * f
        m = x >= x_max
        if m.any():
            # ascending lane order within the step (np.nonzero order);
            # the whole sequence is reversed below, so the decoder
            # consumes descending-lane words while walking forward
            emitted.append((x[m] & _WORD_MASK).astype("<u4"))
            x = np.where(m, x >> _WORD_BITS, x)
        states[:k] = (x // f) * tt + ll + (x % f)

    if emitted:
        words = np.ascontiguousarray(np.concatenate(emitted)[::-1])
    else:
        words = np.zeros(0, dtype="<u4")
    return (struct.pack("<B", L) + states.astype("<u8").tobytes()
            + words.tobytes())


def decode_symbols_vrans(data: bytes, cumulative: np.ndarray,
                         contexts: np.ndarray) -> np.ndarray:
    """Inverse of :func:`encode_symbols_vrans` (same contexts required).

    Strict: raises :class:`~repro.entropy.coder.EntropyDecodeError` on
    truncated streams, trailing words, out-of-range decoded slots, or
    lanes that fail to return to the initial rANS state.
    """
    contexts = np.asarray(contexts, dtype=np.int64).ravel()
    check_contexts(contexts, cumulative.shape[0])
    data = bytes(data)
    if len(data) < 1:
        raise EntropyDecodeError("corrupted vrans stream: empty")
    L = data[0]
    if L < 1:
        raise EntropyDecodeError("corrupted vrans stream: bad lane count")
    body = len(data) - 1 - 8 * L
    if body < 0 or body % 4:
        raise EntropyDecodeError("corrupted vrans stream: truncated")
    states = np.frombuffer(data, dtype="<u8", count=L,
                           offset=1).astype(np.uint64)
    words = np.frombuffer(data, dtype="<u4",
                          offset=1 + 8 * L).astype(np.uint64)

    n = contexts.size
    cumulative = np.ascontiguousarray(cumulative)
    n_ctx, width = cumulative.shape
    tot_all = cumulative[contexts, -1].astype(np.uint64)
    if n and int(tot_all.max()) > MAX_TOTAL:
        raise ValueError(
            f"total {int(tot_all.max())} exceeds MAX_TOTAL {MAX_TOTAL}")
    scaled_all = _pow2_vec(tot_all)

    # Shared-total tables (everything pmf_to_cumulative builds) get a
    # single monotone key array: row c occupies [c*stride, c*stride +
    # total], so one searchsorted resolves a whole step of slots.
    totals = cumulative[:, -1]
    uniform = n_ctx > 0 and int(totals.min()) == int(totals.max())
    if uniform:
        stride = int(totals[0]) + 1
        flat = (cumulative.astype(np.int64)
                + np.arange(n_ctx, dtype=np.int64)[:, None] * stride
                ).ravel()

    out = np.empty(n, dtype=np.int64)
    wpos = 0
    n_steps = -(-n // L)
    for t in range(n_steps):
        a = t * L
        k = min(L, n - a)
        ctx = contexts[a:a + k]
        tt = tot_all[a:a + k]
        sc = scaled_all[a:a + k]
        x = states[:k]
        slot = x % sc
        rescaled = sc != tt
        # inverse of the encoder's boundary map c -> c*scaled//total
        slot_sym = np.where(rescaled,
                            ((slot + _ONE) * tt - _ONE) // sc,
                            slot).astype(np.int64)
        if uniform:
            p = np.searchsorted(flat, ctx * stride + slot_sym,
                                side="right") - 1
            s = p - ctx * width
        else:
            rows = cumulative[ctx]
            s = (rows <= slot_sym[:, None]).sum(axis=1) - 1
            # A corrupted stream (or a table violating the row
            # contract) can place the slot below ``row[0]`` or past the
            # last boundary, yielding s == -1 or s == alphabet; fancy-
            # indexing ``cumulative[ctx, s + 1]`` with those would wrap
            # (or step out of the row) and decode garbage.
            if s.size and (int(s.min()) < 0 or int(s.max()) >= width - 1):
                raise EntropyDecodeError(
                    "corrupted vrans stream: decoded slot outside the "
                    "cumulative table range")
        out[a:a + k] = s
        lo = cumulative[ctx, s].astype(np.uint64)
        hi = cumulative[ctx, s + 1].astype(np.uint64)
        if rescaled.any():
            lo = np.where(rescaled, lo * sc // tt, lo)
            hi = np.where(rescaled, hi * sc // tt, hi)
        x = (hi - lo) * (x // sc) + slot - lo
        m = x < _STATE_L
        cnt = int(m.sum())
        if cnt:
            if wpos + cnt > words.size:
                raise EntropyDecodeError(
                    "corrupted vrans stream: out of words")
            lanes_idx = np.nonzero(m)[0][::-1]  # descending lane order
            x[lanes_idx] = ((x[lanes_idx] << _WORD_BITS)
                            | words[wpos:wpos + cnt])
            wpos += cnt
        states[:k] = x

    if wpos != words.size:
        raise EntropyDecodeError(f"corrupted vrans stream: "
                                 f"{words.size - wpos} unconsumed words")
    if not np.all(states == _STATE_L):
        raise EntropyDecodeError(
            "corrupted vrans stream: decoder did not return to the "
            "initial state")
    return out
