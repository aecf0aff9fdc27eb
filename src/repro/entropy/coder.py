"""Symbol-stream coding on top of the arithmetic coder.

The models in this package (factorized prior, Gaussian conditional)
reduce to the same interface: every element of a tensor is an integer
*symbol* drawn from a finite alphabet with a per-context cumulative
frequency table.  :func:`encode_symbols` / :func:`decode_symbols` run
the arithmetic coder over such a stream.

Cumulative tables are integer arrays of shape ``(n_contexts,
alphabet + 1)`` with ``table[c, 0] == 0`` and ``table[c, -1] == total``.
Every symbol must have nonzero mass (the table builders in this package
guarantee that).

Both directions run the 32-bit Witten–Neal–Cleary recurrences of
:mod:`repro.entropy.rangecoder` as one fused loop over local
variables, and each decoded symbol is found by ``bisect_right`` over
its cumulative row held as a Python list.  The output is
byte-identical to driving
:class:`~repro.entropy.rangecoder.ArithmeticEncoder` /
:class:`~repro.entropy.rangecoder.ArithmeticDecoder` symbol by symbol,
which stay the streaming API and the bit-exact reference.

Each symbol's renormalization runs in closed form rather than one bit
at a time.  The per-bit loop takes E1/E2 steps (the interval lies in
one half: emit its top bit, double it) while the top bits of ``low``
and ``high`` agree, then E3 steps (the interval straddles the middle:
defer a bit, double it about the midpoint) while ``low`` reads
``01...`` and ``high`` ``10...``; an E3 step always leaves
``low < HALF <= high``, so no E1/E2 step follows it.  Hence:

* ``k = 32 - bit_length(low ^ high)`` E1/E2 steps emit the top ``k``
  bits of ``low`` — the first followed by the pending complement bits
  — and shift both bounds left by ``k``, filling ``high`` with ones;
* ``m`` E3 steps, ``m`` the run of bit positions below the top where
  ``low`` has a 1 and ``high`` a 0, add ``m`` pending bits, shift both
  bounds by ``m`` and restore their top bits (0 and 1);
* the decoder tracks ``value - low`` instead of ``value``: a step of
  either kind maps it to twice itself plus the next stream bit, so
  ``k + m`` steps consume ``k + m`` bits at once.

Coded bits leave the encoder 64 at a time through ``int.to_bytes``;
the decoder reads the stream as 64-bit words converted one fixed-size
chunk at a time, so working memory is O(chunk), not O(stream bits).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import repeat
from typing import Iterator

import numpy as np

from .rangecoder import (_FULL, _HALF, _QUARTER, _THREE_QUARTER, MAX_TOTAL,
                         PRECISION)

__all__ = ["encode_symbols", "decode_symbols", "pmf_to_cumulative",
           "check_contexts", "EntropyDecodeError"]

#: Symbols per block of the fused loops: operands become Python ints
#: one block at a time, so working memory is O(block) whatever the
#: stream length.
_BLOCK = 1 << 13
#: Stream bytes the decoder converts to 64-bit words at a time (a
#: multiple of 8, so only the last chunk is zero-padded).
_CHUNK = 1 << 13


class EntropyDecodeError(ValueError):
    """A compressed symbol stream failed validation during decode.

    Raised by every decoder that can tell: ``vrans`` and ``trans`` on
    truncated streams, trailing words, states that fail to return to
    the initial rANS value, or slots outside their table's valid range;
    ``arithmetic`` on a target outside its table's total; and
    :func:`repro.postprocess.coding.decode_ints` on a payload whose
    header or body is inconsistent — anywhere the alternative would be
    silently decoding garbage.  Subclasses :class:`ValueError` so
    callers that catch the historical error type keep working.
    """


def check_contexts(contexts: np.ndarray, n_contexts: int) -> None:
    """Validate ``0 <= contexts < n_contexts``.

    Negative ids would silently wrap through numpy's fancy indexing and
    encode (or decode) under the *wrong* table — garbage streams with
    no error.  Every symbol-stream endpoint calls this before touching
    ``cumulative[contexts, ...]``.
    """
    if contexts.size and (contexts.min() < 0
                          or contexts.max() >= n_contexts):
        raise ValueError(
            f"context id out of range [0, {n_contexts}): "
            f"[{contexts.min()}, {contexts.max()}]")


def pmf_to_cumulative(pmf: np.ndarray, total: int = MAX_TOTAL) -> np.ndarray:
    """Quantize probability rows to integer cumulative-frequency rows.

    Every symbol is guaranteed at least one count so it remains
    decodable; leftover mass is assigned proportionally (largest
    remainder method on the dominant symbol keeps this O(n)).

    Parameters
    ----------
    pmf:
        ``(n_contexts, alphabet)`` nonnegative rows (need not be
        normalized).
    total:
        Frequency denominator; must be ≥ alphabet and ≤
        :data:`repro.entropy.rangecoder.MAX_TOTAL`.
    """
    pmf = np.atleast_2d(np.asarray(pmf, dtype=np.float64))
    n_ctx, alphabet = pmf.shape
    if total > MAX_TOTAL:
        raise ValueError(f"total {total} exceeds coder limit {MAX_TOTAL}")
    if total < alphabet:
        raise ValueError(
            f"total {total} cannot give every one of {alphabet} symbols "
            "a nonzero count")
    norm = pmf.sum(axis=1, keepdims=True)
    if np.any(norm <= 0):
        raise ValueError("pmf row sums must be positive")
    scaled = pmf / norm * (total - alphabet)
    freqs = np.floor(scaled).astype(np.int64) + 1  # every symbol >= 1
    # Distribute the remaining counts to the most probable symbol of
    # each row so rows sum exactly to ``total``.
    deficit = total - freqs.sum(axis=1)
    top = np.argmax(freqs, axis=1)
    freqs[np.arange(n_ctx), top] += deficit
    cum = np.zeros((n_ctx, alphabet + 1), dtype=np.int64)
    np.cumsum(freqs, axis=1, out=cum[:, 1:])
    return cum


def _check_intervals(lo: np.ndarray, hi: np.ndarray,
                     tot: np.ndarray) -> None:
    """Vectorized form of :meth:`ArithmeticEncoder.encode`'s checks.

    Raises the same ``ValueError`` the per-symbol loop would raise at
    the first offending symbol.
    """
    bad = (lo < 0) | (lo >= hi) | (hi > tot) | (tot > MAX_TOTAL)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    a, b, t = int(lo[i]), int(hi[i]), int(tot[i])
    if not 0 <= a < b <= t:
        raise ValueError(f"invalid cumulative range ({a}, {b}, {t})")
    raise ValueError(f"total {t} exceeds MAX_TOTAL {MAX_TOTAL}")


def encode_symbols(symbols: np.ndarray, cumulative: np.ndarray,
                   contexts: np.ndarray) -> bytes:
    """Arithmetic-encode ``symbols[i]`` under ``cumulative[contexts[i]]``.

    Parameters
    ----------
    symbols:
        1-D integer array; each value must lie in ``[0, alphabet)``.
    cumulative:
        ``(n_contexts, alphabet + 1)`` integer cumulative tables.
    contexts:
        1-D integer array, same length as ``symbols``.
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
    # Vectorized gather and validation of all interval triples, then
    # one tight loop.  A stream under one total (every table
    # pmf_to_cumulative builds) hoists it out of the loop.
    lo = cumulative[contexts, symbols]
    hi = cumulative[contexts, symbols + 1]
    tot = cumulative[contexts, -1]
    _check_intervals(lo, hi, tot)
    uniform = tot.size and tot.min() == tot.max()

    precision, full, half = PRECISION, _FULL, _HALF
    quarter, three_quarter, below_half = _QUARTER, _THREE_QUARTER, _HALF - 1
    low, high, pending = 0, _FULL, 0
    acc = nacc = 0  # the nacc coded bits not yet in ``out``, MSB first
    out = bytearray()
    for start in range(0, lo.size, _BLOCK):
        stop = start + _BLOCK
        totals = (repeat(int(tot[0])) if uniform
                  else tot[start:stop].tolist())
        for a, b, t in zip(lo[start:stop].tolist(),
                           hi[start:stop].tolist(), totals):
            span = high - low + 1
            high = low + span * b // t - 1
            low += span * a // t
            x = low ^ high
            if x < half:
                # k E1/E2 steps emit the top k bits of low, the first
                # followed by the pending bits, its complement: adding
                # 2^pending - 1 at the first bit's position turns a 0
                # into 01...1 and carries a 1 into 10...0
                k = precision - x.bit_length()
                n = k + pending
                acc = (acc << n) | ((low >> (precision - k))
                                    + (((1 << pending) - 1) << (k - 1)))
                nacc += n
                pending = 0
                low = (low << k) & full
                high = ((high << k) & full) | ((1 << k) - 1)
            if low >= quarter and high < three_quarter:
                # m E3 steps defer m bits
                m = 31 - ((high | ~low) & below_half).bit_length()
                pending += m
                low = (low << m) & below_half
                high = ((high << m) & below_half) | half | ((1 << m) - 1)
            if nacc >= 64:
                r = nacc & 7
                out += (acc >> r).to_bytes(nacc >> 3, "big")
                acc &= (1 << r) - 1
                nacc = r
    # terminate as ArithmeticEncoder.finish: one more pending bit, then
    # the bit selecting the quarter low lies in, with its pending run
    pending += 1
    acc = (acc << (pending + 1)) | ((low >= quarter) + (1 << pending) - 1)
    nacc += pending + 1
    pad = -nacc % 8
    out += (acc << pad).to_bytes((nacc + pad) >> 3, "big")
    return bytes(out)


def _words(data: bytes) -> Iterator[int]:
    """``data`` as big-endian 64-bit words, converted one chunk at a
    time, then zero words forever — the
    :class:`~repro.entropy.bitio.BitReader` convention the decoder
    relies on while it resolves its final symbols."""
    view = np.frombuffer(data, dtype=np.uint8)
    for i in range(0, view.size, _CHUNK):
        part = view[i:i + _CHUNK].tobytes()
        yield from np.frombuffer(part + bytes(-len(part) % 8),
                                 dtype=">u8").tolist()
    while True:
        yield 0


def decode_symbols(data: bytes, cumulative: np.ndarray,
                   contexts: np.ndarray) -> np.ndarray:
    """Inverse of :func:`encode_symbols` (requires the same contexts).

    Raises :class:`EntropyDecodeError` when the coder state locates a
    target outside its table's total.
    """
    contexts = np.asarray(contexts, dtype=np.int64).ravel()
    check_contexts(contexts, cumulative.shape[0])
    n = contexts.size
    out = np.empty(n, dtype=np.int64)
    if not n:
        return out
    # (row, total) per context; a single-context stream (every
    # encode_ints payload) hoists its one model out of the loop.
    models = [(row, row[-1]) for row in cumulative.tolist()]
    single = contexts.min() == contexts.max()

    precision, full, half = PRECISION, _FULL, _HALF
    quarter, three_quarter, below_half = _QUARTER, _THREE_QUARTER, _HALF - 1
    low, high = 0, _FULL
    # ``value - low`` followed by ``w`` not yet consumed stream bits; a
    # symbol consumes at most 63, so the loop keeps at least 64
    word = _words(data).__next__
    d = (word() << 64) | word()
    w = 128 - precision
    for start in range(0, n, _BLOCK):
        block = contexts[start:start + _BLOCK]
        stream = (repeat(models[int(block[0])], block.size) if single
                  else map(models.__getitem__, block.tolist()))
        decoded = []
        put = decoded.append
        for row, total in stream:
            if w < 64:
                d = (d << 64) | word()
                w += 64
            span = high - low + 1
            target = (((d >> w) + 1) * total - 1) // span
            if not 0 <= target < total:
                raise EntropyDecodeError(
                    "corrupted stream: target out of range")
            # rightmost index with row[s] <= target  ->  symbol s
            s = bisect_right(row, target) - 1
            high = low + span * row[s + 1] // total - 1
            step = span * row[s] // total
            low += step
            d -= step << w
            # the encoder's k + m steps, each moving one lookahead bit
            # into value - low
            x = low ^ high
            if x < half:
                k = precision - x.bit_length()
                low = (low << k) & full
                high = ((high << k) & full) | ((1 << k) - 1)
                w -= k
            if low >= quarter and high < three_quarter:
                m = 31 - ((high | ~low) & below_half).bit_length()
                low = (low << m) & below_half
                high = ((high << m) & below_half) | half | ((1 << m) - 1)
                w -= m
            put(s)
        out[start:start + block.size] = decoded
    return out
