"""The compact integer format :func:`encode_ints` writes.

A reference writer here builds both forms from the layout alone
(varints for the count, zigzag ``vmin``, alphabet, body length and
every histogram count; or zigzag varints of the values).  The tests
pin the bytes to it: the coded form wins ties, skipping the coder on
streams certain to lose never changes the output, and no fixed-width
``RI``/``RT``/``RV`` form is written.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.entropy.backend import get_backend, list_backends
from repro.entropy.coder import pmf_to_cumulative
from repro.postprocess.coding import (ESTIMATE_ERROR_BYTES, decode_ints,
                                      encode_ints, estimate_encoded_size)


def _uvarint(x: int) -> bytes:
    out = bytearray()
    while x > 0x7F:
        out.append(x & 0x7F | 0x80)
        x >>= 7
    return bytes(out + bytes([x]))


def _zigzag(v: int) -> int:
    return 2 * v if v >= 0 else -2 * v - 1


def reference_forms(values, backend):
    """``(head, body, varint)``: the coded form's bytes before and
    after its body-length field ends (``None`` where no coded form
    exists), its body, and the varint form."""
    values = np.asarray(values, dtype=np.int64).ravel()
    varint = b"Rv" + _uvarint(values.size) + b"".join(
        _uvarint(_zigzag(v)) for v in values.tolist())
    if not values.size:
        return None, None, varint
    vmin = int(values.min())
    alphabet = int(values.max()) - vmin + 1
    if alphabet > 4096:
        return None, None, varint
    coder = get_backend(backend)
    hist = np.bincount(values - vmin, minlength=alphabet)
    body = b""
    if alphabet > 1:
        body = coder.encode(values - vmin,
                            pmf_to_cumulative(hist[None].astype(float)),
                            np.zeros(values.size, dtype=np.int64))
    magic = (b"Ri" if coder.name == "arithmetic"
             else b"Rt" + bytes([coder.tag]))
    head = (magic + _uvarint(values.size) + _uvarint(_zigzag(vmin))
            + _uvarint(alphabet) + _uvarint(len(body))
            + b"".join(_uvarint(int(c)) for c in hist))
    return head, body, varint


def reference_encode(values, backend=None) -> bytes:
    head, body, varint = reference_forms(values, backend)
    if head is not None and len(head) + len(body) <= len(varint):
        return head + body
    return varint


_values = st.lists(st.one_of(st.integers(-4, 4),
                             st.integers(-10 ** 6, 10 ** 6),
                             st.integers(-2 ** 63, 2 ** 63 - 1)),
                   max_size=300)


@settings(max_examples=120, deadline=None)
@given(values=_values, backend=st.sampled_from(list_backends()))
def test_roundtrip_and_layout_every_backend(values, backend):
    arr = np.array(values, dtype=np.int64)
    payload = encode_ints(arr, backend=backend)
    assert payload == reference_encode(arr, backend)
    assert payload[:2] in (b"Ri", b"Rt", b"Rv")
    back, end = decode_ints(payload + b"trailing")
    np.testing.assert_array_equal(back, arr)
    assert end == len(payload)


@settings(max_examples=60, deadline=None)
@given(scale=st.floats(0.05, 40.0), n=st.integers(1, 2000),
       seed=st.integers(0, 10 ** 6),
       backend=st.sampled_from(list_backends()))
def test_skipping_the_coder_keeps_the_bytes(scale, n, seed, backend):
    """Streams of every length, some certain to fall back to
    varints: the output is always code-then-compare's."""
    values = np.rint(np.random.default_rng(seed).laplace(0.0, scale, n)
                     ).astype(np.int64)
    assert encode_ints(values, backend=backend) == reference_encode(
        values, backend)


def test_empty_and_constant_streams():
    assert encode_ints(np.zeros(0, dtype=np.int64)) == b"Rv\x00"
    # one symbol: no body, the histogram is the count
    constant = encode_ints(np.full(500, -3))
    assert constant == b"Ri" + b"\xf4\x03" + b"\x05" + b"\x01" + b"\x00" \
        + b"\xf4\x03"
    np.testing.assert_array_equal(decode_ints(constant)[0],
                                  np.full(500, -3))


def _random_arrays(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(0, 2500 if i % 20 == 0 else 300))
        kind = i % 5
        if kind == 0:
            v = np.rint(rng.laplace(0.0, rng.uniform(0.05, 30.0), n))
        elif kind == 1:
            v = (rng.geometric(rng.uniform(0.05, 0.9), n)
                 * rng.choice([-1, 1], n))
        elif kind == 2:
            lo = int(rng.integers(1, 2500))
            v = rng.integers(-lo, int(rng.integers(1, 2500)), n)
        elif kind == 3:
            v = np.full(n, rng.integers(-10 ** 9, 10 ** 9))
        else:
            v = rng.integers(-2 ** 40, 2 ** 40, n)
        yield v.astype(np.int64)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_estimate_is_exact_but_for_the_body(seed):
    """Over 3000 random arrays (1000 per seed): headers, histograms
    and the varint form are sized exactly, the coded body to within
    4 bytes, and the whole estimate to within ESTIMATE_ERROR_BYTES."""
    for values in _random_arrays(1000, seed):
        est = estimate_encoded_size(values)
        head, body, varint = reference_forms(values, None)
        if head is None:
            assert est == len(varint)
            continue
        # the coded form with a body of b bytes
        fixed = len(head) - len(_uvarint(len(body)))
        sizes = {min(fixed + len(_uvarint(b)) + b, len(varint))
                 for b in range(max(0, len(body) - 4), len(body) + 5)}
        assert est in sizes
        if not body:
            assert est == min(len(head), len(varint))
        assert 0 <= est - len(encode_ints(values)) <= ESTIMATE_ERROR_BYTES
