"""Byte identity of the fused arithmetic coder.

:func:`repro.entropy.coder.encode_symbols` / :func:`decode_symbols` run
the Witten–Neal–Cleary recurrences as one fused loop.  These tests pin
them to the streaming classes they replace on the hot path
(:class:`ArithmeticEncoder` / :class:`ArithmeticDecoder`, driven symbol
by symbol) and to digests of streams and archives written before the
loops were fused, so every stored stream keeps decoding and every new
one stays byte-identical.  The rule-based payload digests were recorded
while compress still decoded its own payload, and pin that returning
the encoder's reconstruction instead left every byte in place.
"""

import contextlib
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Archive, Bound, Session
from repro.codecs import get_codec
from repro.data import get_dataset_spec
from repro.entropy import ArithmeticDecoder, ArithmeticEncoder
from repro.entropy import coder
from repro.entropy.coder import (EntropyDecodeError, decode_symbols,
                                 encode_symbols, pmf_to_cumulative)
from repro.entropy.rangecoder import MAX_TOTAL
from repro.postprocess.coding import decode_ints, encode_ints


def reference_encode(symbols, cumulative, contexts) -> bytes:
    """The per-symbol streaming loop the fused encoder must match."""
    enc = ArithmeticEncoder()
    for s, c in zip(np.asarray(symbols).tolist(),
                    np.asarray(contexts).tolist()):
        row = cumulative[c]
        enc.encode(int(row[s]), int(row[s + 1]), int(row[-1]))
    return enc.finish()


def reference_decode(data, cumulative, contexts) -> np.ndarray:
    """The per-symbol streaming loop the fused decoder must match."""
    dec = ArithmeticDecoder(data)
    out = []
    for c in np.asarray(contexts).tolist():
        row = cumulative[c]
        total = int(row[-1])
        s = int(np.searchsorted(row, dec.decode_target(total),
                                side="right")) - 1
        dec.advance(int(row[s]), int(row[s + 1]), total)
        out.append(s)
    return np.array(out, dtype=np.int64)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _assert_matches_reference(symbols, tables, contexts):
    symbols = np.asarray(symbols, dtype=np.int64)
    contexts = np.asarray(contexts, dtype=np.int64)
    data = encode_symbols(symbols, tables, contexts)
    assert data == reference_encode(symbols, tables, contexts)
    np.testing.assert_array_equal(decode_symbols(data, tables, contexts),
                                  symbols)
    np.testing.assert_array_equal(
        reference_decode(data, tables, contexts), symbols)
    return data


#: tiny block and chunk sizes (one 64-bit word), so short streams
#: cross many block and chunk boundaries
_TINY = {"_BLOCK": 3, "_CHUNK": 8}


def _chunking(tiny: bool):
    return (mock.patch.multiple(coder, **_TINY) if tiny
            else contextlib.nullcontext())


@st.composite
def _multi_context_streams(draw):
    n_ctx = draw(st.integers(1, 5), label="n_ctx")
    alphabet = draw(st.integers(2, 12), label="alphabet")
    pmf = np.array(draw(st.lists(
        st.lists(st.floats(1e-4, 1.0), min_size=alphabet,
                 max_size=alphabet),
        min_size=n_ctx, max_size=n_ctx)), dtype=np.float64)
    total = draw(st.sampled_from([alphabet, 256, 4096, MAX_TOTAL]))
    tables = pmf_to_cumulative(pmf, total=max(total, alphabet))
    n = draw(st.integers(0, 150), label="n")
    symbols = draw(st.lists(st.integers(0, alphabet - 1), min_size=n,
                            max_size=n))
    contexts = draw(st.lists(st.integers(0, n_ctx - 1), min_size=n,
                             max_size=n))
    return symbols, tables, contexts


@st.composite
def _near_degenerate_streams(draw):
    """One symbol holds >= 99.9 % of the mass; the stream is mostly
    that symbol, so renormalizations are rare and carries long."""
    alphabet = draw(st.integers(2, 6), label="alphabet")
    top = draw(st.integers(0, alphabet - 1), label="top")
    freqs = np.ones(alphabet, dtype=np.int64)
    freqs[top] = MAX_TOTAL - (alphabet - 1)
    tables = np.concatenate([[0], np.cumsum(freqs)])[None, :]
    n = draw(st.integers(0, 400), label="n")
    rare = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=4))
    symbols = [top] * n
    for i in rare:
        if i < n:
            symbols[i] = draw(st.integers(0, alphabet - 1))
    return symbols, tables, [0] * n


@st.composite
def _pending_run_streams(draw):
    """A symbol holding about the middle half of the mass: each
    occurrence adds an E3 (pending) step that only the next carry
    resolves."""
    side = draw(st.integers(MAX_TOTAL // 4 - 64, MAX_TOTAL // 4 + 64),
                label="side")
    middle = MAX_TOTAL - 2 * side
    tables = np.array([[0, side, side + middle, MAX_TOTAL]],
                      dtype=np.int64)
    n = draw(st.integers(0, 200), label="n")
    symbols = draw(st.lists(st.sampled_from([1, 1, 1, 1, 0, 2]),
                            min_size=n, max_size=n))
    return symbols, tables, [0] * n


@settings(max_examples=150, deadline=None)
@given(stream=st.one_of(_multi_context_streams(),
                        _near_degenerate_streams(),
                        _pending_run_streams()),
       tiny=st.booleans())
def test_fused_coder_matches_streaming_reference(stream, tiny):
    """Fused encode equals the ArithmeticEncoder loop byte for byte,
    and fused decode returns the original symbols — with the default
    block/chunk sizes and with tiny ones that split every stream."""
    symbols, tables, contexts = stream
    with _chunking(tiny):
        _assert_matches_reference(symbols, tables, contexts)


def test_empty_stream_matches_reference():
    tables = pmf_to_cumulative(np.ones((2, 3)))
    empty = np.zeros(0, dtype=np.int64)
    data = _assert_matches_reference(empty, tables, empty)
    assert data == ArithmeticEncoder().finish()


def test_pending_run_longer_than_a_chunk():
    """The middle half of the range, coded over and over, is one E3
    step per symbol: the encoder finishes with more than a chunk of
    pending bits, all emitted at once."""
    q = MAX_TOTAL // 4
    tables = np.array([[0, q, 3 * q, MAX_TOTAL]], dtype=np.int64)
    n = 8 * coder._CHUNK + 100
    symbols = np.ones(n, dtype=np.int64)
    data = _assert_matches_reference(symbols, tables,
                                     np.zeros(n, np.int64))
    assert len(data) > coder._CHUNK


def test_stream_longer_than_one_chunk_matches_reference():
    rng = np.random.default_rng(3)
    tables = pmf_to_cumulative(rng.random((4, 40)) + 0.01)
    n = 2 * coder._BLOCK + 17
    contexts = rng.integers(0, 4, size=n)
    symbols = rng.integers(0, 40, size=n)
    data = _assert_matches_reference(symbols, tables, contexts)
    assert len(data) > coder._CHUNK


class TestErrors:
    def test_invalid_interval_raises_reference_error(self):
        tables = np.array([[0, 3, 3, 8]], dtype=np.int64)  # symbol 1: 0
        with pytest.raises(ValueError, match=r"invalid cumulative range "
                                             r"\(3, 3, 8\)"):
            encode_symbols(np.array([0, 2, 1, 0]), tables,
                           np.zeros(4, np.int64))

    def test_total_over_limit_raises_reference_error(self):
        tables = np.array([[0, 1, 2 * MAX_TOTAL]], dtype=np.int64)
        with pytest.raises(ValueError, match="exceeds MAX_TOTAL"):
            encode_symbols(np.array([1]), tables, np.zeros(1, np.int64))

    def test_out_of_range_target_is_typed(self):
        tables = np.zeros((1, 3), dtype=np.int64)  # no mass at all
        with pytest.raises(EntropyDecodeError, match="target out of range"):
            decode_symbols(b"\x00\x01", tables, np.zeros(2, np.int64))


# ----------------------------------------------------------------------
# golden digests.  GOLDEN_STREAM was recorded with the per-symbol
# streaming loops before encode_symbols/decode_symbols were fused; the
# encode_ints, archive and rule-based digests were re-pinned when
# encode_ints moved to varint headers (the fixed-width bytes pinned
# before live in tests/postprocess/data/legacy_payloads.npz)
# ----------------------------------------------------------------------
GOLDEN_INTS = ("dd9fa326f1047cb546170fd1ebae6769"
               "30da478d616a1492fb2594268fcb50b7")
GOLDEN_STREAM = ("73f96783e2d800b9e468783e56da5121"
                 "9a4b0fdf2a298a9d52461d9c28950182")
GOLDEN_ARCHIVE = ("3cd74fe2ef44d85822118581b39e13f4"
                  "aa237fcc70e16442f32de205b35c41f0")


def test_golden_encode_ints_payload():
    values = np.rint(np.random.default_rng(13).laplace(0.0, 3.0, 4000)
                     ).astype(np.int64)
    payload = encode_ints(values)
    assert payload[:2] == b"Ri"
    assert _sha(payload) == GOLDEN_INTS
    back, end = decode_ints(payload)
    np.testing.assert_array_equal(back, values)
    assert end == len(payload)


def test_golden_codec_bench_stream():
    """The 60000-symbol, 64-context stream of the codec-registry
    bench's entropy block."""
    rng = np.random.default_rng(11)
    tables = pmf_to_cumulative(rng.random((64, 33)) + 0.01)
    contexts = rng.integers(0, 64, size=60_000)
    u = rng.random(60_000) * tables[contexts, -1]
    symbols = (tables[contexts] <= u[:, None]).sum(axis=1) - 1
    data = encode_symbols(symbols, tables, contexts)
    assert _sha(data) == GOLDEN_STREAM
    np.testing.assert_array_equal(decode_symbols(data, tables, contexts),
                                  symbols)


def test_golden_szlike_shard_archive():
    overrides = {"t": 16, "h": 24, "w": 24, "seed": 5}
    bound = Bound.nrmse(1e-2)
    with Session(codec="szlike", executor="serial") as session:
        archive = session.compress(
            "e3sm", bound=bound, variables=[0], shards=4,
            dataset_overrides=overrides)
        blob = archive.to_bytes()
        assert _sha(blob) == GOLDEN_ARCHIVE
        restored = session.decompress(Archive.open(blob))
        codec = session.resolve_codec("szlike")
    frames = get_dataset_spec("e3sm", **overrides).build().frames(0)
    assert restored.shape == frames.shape
    for m in archive.index():
        x = frames[m.t0:m.t1].astype(np.float64)
        err = float(np.max(np.abs(x - restored[m.t0:m.t1])))
        assert err <= bound.native_for(codec, x)


#: sha256 of each rule-based payload of one fixed input (e3sm 12x20x20,
#: seed 3) at a bound of 1e-2 of its range; fazlike also at 1e-1, where
#: it picks its other module
GOLDEN_RULE_BASED = {
    ("dpcm", 1e-2): ("e91ec0f826f4b339db447ad1a9c5bb0a"
                     "ff7c6f5fb03c8849925a07709a7ce255"),
    ("mgard", 1e-2): ("0e35fce6131d49131e88121c1b824a0c"
                      "166c9a05728d5e7f37707d7a49c8aa70"),
    ("zfplike", 1e-2): ("4f619893c7b25d09c1dc8afd5c801de7"
                        "17560f6d374e57a64633008448f68662"),
    ("tthresh", 1e-2): ("dcab980016bafac51c422c3d7b83719c"
                        "b3f508f14148c820901f9c4c9ea895c0"),
    ("fazlike", 1e-2): ("8ec458be486d1f26d3e15712a3b40b9e"
                        "b736a567dc3bf6ddef677ae862e3986e"),
    ("fazlike", 1e-1): ("8993f294de03410c49eb330c3c1761a8"
                        "3bca1448bc40c34ceec3269f2cdd44f9"),
}
_FAZ_MODULE = {1e-2: "wavelet", 1e-1: "predictor"}


@pytest.mark.parametrize("name,rel", sorted(GOLDEN_RULE_BASED))
def test_golden_rule_based_payload(name, rel):
    frames = get_dataset_spec("e3sm", t=12, h=20, w=20,
                              seed=3).build().frames(0)
    codec = get_codec(name)
    res = codec.compress(frames, rel * float(np.ptp(frames)))
    assert _sha(res.payload) == GOLDEN_RULE_BASED[name, rel]
    if name == "fazlike":
        assert codec.impl.chosen_module(res.payload) == _FAZ_MODULE[rel]
    np.testing.assert_array_equal(codec.decompress(res.payload),
                                  res.reconstruction)
