"""Damaged headers end in correct output or a typed error.

A bare codec envelope (``CDX1``) has no checksum, but its 19-byte
header (magic, name length, name, u64 payload length) is checked
field by field: the stored length must match the bytes after it
exactly, a name that is not UTF-8 or not registered is refused, and no
parse error escapes as a bare ``struct.error`` or
``UnicodeDecodeError``.  Shard archive members are CRC-checked; their
bit flips are covered in ``test_partial_decode.py``.
"""

import struct

import numpy as np
import pytest

from repro.api import Archive, ArchiveIndexError, Bound, Session, \
    SessionError
from repro.codecs import pack_envelope, unpack_envelope
from repro.entropy.coder import EntropyDecodeError
from repro.pipeline.plan import ShardEntry, pack_shard_archive

TYPED = (ArchiveIndexError, SessionError, EntropyDecodeError)


@pytest.fixture(scope="module")
def session():
    with Session(codec="szlike", executor="serial") as s:
        yield s


@pytest.fixture(scope="module")
def envelope(session):
    rng = np.random.default_rng(5)
    frames = np.cumsum(rng.standard_normal((8, 8, 8)), axis=0)
    return session.compress(frames, bound=Bound.nrmse(1e-3)).data


def test_every_header_bit_flip_is_correct_or_typed(session, envelope):
    header = 4 + 1 + len("szlike") + 8
    assert envelope[4] == len("szlike")
    full = session.decompress(envelope)
    outcomes = {}
    for pos in range(header):
        for bit in range(8):
            bad = bytearray(envelope)
            bad[pos] ^= 1 << bit
            try:
                out = session.decompress(bytes(bad))
            except TYPED as exc:
                outcome = type(exc).__name__
            else:
                np.testing.assert_array_equal(out, full)
                outcome = "correct"
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert sum(outcomes.values()) == 8 * header
    # every field is checked: the length and name fields refuse flips
    assert outcomes.get("ArchiveIndexError", 0) >= 64
    assert outcomes.get("SessionError", 0) >= 32


def test_length_must_match_the_payload_exactly(envelope):
    name, payload = unpack_envelope(envelope)
    assert pack_envelope(name, payload) == envelope
    with pytest.raises(ArchiveIndexError, match="promises"):
        unpack_envelope(envelope + b"\x00")
    short = bytearray(envelope)
    struct.pack_into("<Q", short, 11, len(payload) - 1)
    with pytest.raises(ArchiveIndexError, match="promises"):
        unpack_envelope(bytes(short))
    with pytest.raises(ArchiveIndexError, match="header"):
        unpack_envelope(envelope[:9])


def test_non_utf8_codec_name_is_typed(envelope):
    bad = bytearray(envelope)
    bad[5] |= 0x80
    with pytest.raises(ArchiveIndexError):
        unpack_envelope(bytes(bad))


def test_unregistered_codec_is_a_session_error(session, envelope):
    _, payload = unpack_envelope(envelope)
    bare = pack_envelope("nosuchcodec", payload)
    with pytest.raises(SessionError, match="not registered"):
        session.decompress(bare)
    member = pack_shard_archive([
        ShardEntry("stack/v0/t0000-0008", 0, 0, 8, bare)])
    with pytest.raises(SessionError, match="not registered"):
        session.decompress(member)


def test_named_and_timed_members_do_not_mix(session, envelope):
    data = pack_shard_archive([
        ShardEntry("u", 0, 0, 0, envelope),
        ShardEntry("stack/v0/t0000-0008", 0, 0, 8, envelope)])
    with pytest.raises(ArchiveIndexError, match="mixes named"):
        session.decompress(Archive.open(data))


#: codec -> (payload magic before its (T, H, W) header, u32 fields
#: flipped: T, H, W and, where the payload has one, the level count)
_HEADER_FIELDS = {"szlike": (b"SZL1", 3), "mgard": (b"MGD1", 4),
                  "fazlike": (b"FAZ1\x00WVL1", 4)}

#: run in a child under a 2 GiB address-space limit, so an allocation
#: sized from a damaged header fails there as MemoryError instead of
#: being granted lazily by the kernel
_SHAPE_FLIPS = r"""
import json, resource, struct, sys, time
import numpy as np
from repro.api import ArchiveIndexError, Bound, Session, SessionError
from repro.entropy.coder import EntropyDecodeError

rng = np.random.default_rng(5)
frames = np.cumsum(rng.standard_normal((8, 8, 8)), axis=0)
report = {}
for name, (magic, fields) in json.loads(sys.argv[1]).items():
    magic = bytes.fromhex(magic)
    with Session(codec=name, executor="serial") as session:
        envelope = session.compress(frames, bound=Bound.nrmse(1e-3)).data
        full = session.decompress(envelope)
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        shape_at = 4 + 1 + len(name) + 8 + len(magic)
        assert envelope[shape_at - len(magic):shape_at] == magic
        assert struct.unpack_from("<III", envelope, shape_at) == (8, 8, 8)
        outcomes, slowest = {}, 0.0
        for bit in range(32 * fields):
            bad = bytearray(envelope)
            bad[shape_at + bit // 8] ^= 1 << (bit % 8)
            start = time.perf_counter()
            try:
                out = session.decompress(bytes(bad))
            except (ArchiveIndexError, SessionError, EntropyDecodeError,
                    MemoryError) as exc:
                outcome = type(exc).__name__
            else:
                outcome = ("correct" if np.array_equal(out, full)
                           else f"wrong {out.shape}")
            slowest = max(slowest, time.perf_counter() - start)
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
    report[name] = {"outcomes": outcomes, "slowest_s": slowest}
print(json.dumps(report))
"""


def test_shape_flips_never_allocate_from_the_header():
    """Every bit flip of the (T, H, W) header of an szlike, mgard or
    fazlike (wavelet) payload, and of the level count where one is
    stored, ends in a typed error before the decoder allocates the
    shape it names or loops over the levels, within 3 s a decode."""
    import json
    import os
    import subprocess
    import sys
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    cases = {name: (magic.hex(), fields)
             for name, (magic, fields) in _HEADER_FIELDS.items()}
    proc = subprocess.run([sys.executable, "-c", _SHAPE_FLIPS,
                           json.dumps(cases)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(report) == sorted(_HEADER_FIELDS)
    for name, (_, fields) in _HEADER_FIELDS.items():
        outcomes = report[name]["outcomes"]
        assert sum(outcomes.values()) == 32 * fields, name
        assert "MemoryError" not in outcomes, (name, outcomes)
        assert set(outcomes) <= {"EntropyDecodeError", "correct"}, (
            name, outcomes)
        assert report[name]["slowest_s"] < 3.0, (name, report[name])


#: codec -> (payload magic, header layout after it, index of the float
#: the decoder scales its integers by: error bound or quantizer step)
_HEADER_FLOATS = {"szlike": (b"SZL1", "<IIId", 3),
                  "dpcm": (b"DPC1", "<IIIId", 4),
                  "zfplike": (b"ZFL1", "<IIIIId", 5),
                  "tthresh": (b"TTH1", "<IIIIIId", 6),
                  "mgard": (b"MGD1", "<IIIIdd", 4),
                  "fazlike": (b"FAZ1\x00WVL1", "<IIIId", 4)}


@pytest.fixture(scope="module")
def rule_based_payloads():
    """name -> payload of an 8x8x8 normal stack at NRMSE 1e-2."""
    frames = np.random.default_rng(5).standard_normal((8, 8, 8))
    payloads = {}
    for name in _HEADER_FLOATS:
        with Session(codec=name, executor="serial") as s:
            envelope = s.compress(frames, bound=Bound.nrmse(1e-2)).data
        payloads[name] = unpack_envelope(envelope)[1]
    return payloads


def _overwrite_float(payload, magic, layout, index, value):
    assert payload.startswith(magic)
    bad = bytearray(payload)
    at = len(magic) + struct.calcsize("<" + layout[1:1 + index])
    struct.pack_into("<d", bad, at, value)
    return bytes(bad)


def _refused_both_ways(name, payload):
    from repro.codecs import get_codec
    with pytest.raises(EntropyDecodeError, match="header"):
        get_codec(name).decompress(payload)
    with Session(codec=name, executor="serial") as s:
        with pytest.raises(EntropyDecodeError, match="header"):
            s.decompress(pack_envelope(name, payload))


@pytest.mark.parametrize("value", [np.inf, np.nan, 0.0, -1.0],
                         ids=["inf", "nan", "zero", "negative"])
@pytest.mark.parametrize("name", sorted(_HEADER_FLOATS))
def test_header_bound_compress_refuses_is_refused(rule_based_payloads,
                                                  name, value):
    """A header bound (or step) no encoder writes raises on decode,
    through the codec and through an envelope; before, it decoded to a
    non-finite or wrong array with no error."""
    bad = _overwrite_float(rule_based_payloads[name],
                           *_HEADER_FLOATS[name], value)
    _refused_both_ways(name, bad)


@pytest.mark.parametrize("ratio", [7.0, 1.0, 0.0, np.nan])
def test_mgard_header_budget_ratio_outside_unit_interval(
        rule_based_payloads, ratio):
    bad = _overwrite_float(rule_based_payloads["mgard"], b"MGD1",
                           "<IIIIdd", 5, ratio)
    _refused_both_ways("mgard", bad)


@pytest.mark.parametrize("value", [np.inf, np.nan, 0.0, -1.0])
def test_compress_refuses_what_decode_refuses(value):
    from repro.codecs import get_codec
    frames = np.random.default_rng(5).standard_normal((8, 8, 8))
    for name in _HEADER_FLOATS:
        with pytest.raises(ValueError, match="finite positive bound"):
            get_codec(name).compress(frames, value)


def test_intact_header_floats_decode_as_before(rule_based_payloads):
    from repro.codecs import get_codec
    for name, payload in rule_based_payloads.items():
        codec = get_codec(name)
        out = codec.decompress(payload)
        assert np.isfinite(out).all()
        assert out.shape == (8, 8, 8)
