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


#: run in a child under a 2 GiB address-space limit, so an allocation
#: sized from a damaged header fails there as MemoryError instead of
#: being granted lazily by the kernel
_SHAPE_FLIPS = r"""
import json, resource, struct, sys
import numpy as np
from repro.api import ArchiveIndexError, Bound, Session, SessionError
from repro.entropy.coder import EntropyDecodeError

rng = np.random.default_rng(5)
frames = np.cumsum(rng.standard_normal((8, 8, 8)), axis=0)
with Session(codec="szlike", executor="serial") as session:
    envelope = session.compress(frames, bound=Bound.nrmse(1e-3)).data
    full = session.decompress(envelope)
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    shape_at = 4 + 1 + len("szlike") + 8 + 4   # T, H, W: three u32
    assert struct.unpack_from("<III", envelope, shape_at) == (8, 8, 8)
    outcomes = {}
    for bit in range(96):
        bad = bytearray(envelope)
        bad[shape_at + bit // 8] ^= 1 << (bit % 8)
        try:
            out = session.decompress(bytes(bad))
        except (ArchiveIndexError, SessionError, EntropyDecodeError,
                MemoryError) as exc:
            outcome = type(exc).__name__
        else:
            outcome = ("correct" if np.array_equal(out, full)
                       else f"wrong {out.shape}")
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
print(json.dumps(outcomes))
"""


def test_shape_flips_never_allocate_from_the_header():
    """Every bit flip of an szlike payload's (T, H, W) header ends in a
    typed error before the decoder allocates the shape it names."""
    import json
    import os
    import subprocess
    import sys
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _SHAPE_FLIPS], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    outcomes = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sum(outcomes.values()) == 96
    assert "MemoryError" not in outcomes
    assert set(outcomes) <= {"EntropyDecodeError", "correct"}, outcomes
