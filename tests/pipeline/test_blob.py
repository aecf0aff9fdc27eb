"""Blob container serialization tests (batched-stream format v4).

Version 4 is the one layout written; versions 2 and 3 are read-only
and pinned by ``data/ldcb_v2_v3.npz``
(:mod:`tests.pipeline.test_blob_chain`).
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.entropy.backend import get_backend
from repro.pipeline import CompressedBlob


def make_blob(t=12, payload=b"corr", seed=0):
    rng = np.random.default_rng(seed)
    return CompressedBlob(
        shape=(t, 16, 16), window=6, keyframe_strategy="interpolation",
        keyframe_interval=3, sampler="ddim", sample_steps=4, noise_seed=42,
        schedule_steps=16,
        frame_norms=rng.normal(size=(t, 2)).astype(np.float32),
        y_stream=bytes(rng.integers(0, 256, 40, dtype=np.uint8)),
        z_stream=bytes(rng.integers(0, 256, 13, dtype=np.uint8)),
        y_header={"L": 5}, z_header={"zmin": -3, "zmax": 4},
        y_shape=(6, 4, 2, 2), z_shape=(6, 4, 1, 1),
        bound_payload=payload)


class TestBlobRoundtrip:
    def test_roundtrip_fields(self):
        blob = make_blob()
        back = CompressedBlob.from_bytes(blob.to_bytes())
        assert back.shape == blob.shape
        assert back.window == blob.window
        assert back.keyframe_strategy == blob.keyframe_strategy
        assert back.keyframe_interval == blob.keyframe_interval
        assert back.sampler == blob.sampler
        assert back.sample_steps == blob.sample_steps
        assert back.schedule_steps == blob.schedule_steps
        assert back.noise_seed == blob.noise_seed
        np.testing.assert_allclose(back.frame_norms, blob.frame_norms,
                                   atol=1e-7)
        assert back.y_stream == blob.y_stream
        assert back.z_stream == blob.z_stream
        assert back.y_header == blob.y_header
        assert back.z_header == blob.z_header
        assert back.y_shape == blob.y_shape
        assert back.z_shape == blob.z_shape
        assert back.bound_payload == blob.bound_payload

    def test_roundtrip_is_stable(self):
        blob = make_blob()
        data1 = blob.to_bytes()
        data2 = CompressedBlob.from_bytes(data1).to_bytes()
        assert data1 == data2

    def test_no_payload(self):
        blob = make_blob(payload=b"")
        back = CompressedBlob.from_bytes(blob.to_bytes())
        assert back.bound_payload == b""
        assert back.guarantee_bytes() == 0

    def test_size_accounting(self):
        blob = make_blob(payload=b"x" * 100)
        total = len(blob.to_bytes())
        assert blob.total_bytes() == total
        assert blob.guarantee_bytes() == 100
        assert blob.latent_bytes() == total - 100

    def test_streams_dict(self):
        blob = make_blob()
        d = blob.streams_dict()
        assert d["y_stream"] == blob.y_stream
        assert d["z_shape"] == blob.z_shape

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            CompressedBlob.from_bytes(b"XXXX" + b"\x00" * 64)

    def test_truncated(self):
        data = make_blob().to_bytes()
        with pytest.raises(Exception):
            CompressedBlob.from_bytes(data[: len(data) // 2])

    def test_bad_norms_shape(self):
        blob = make_blob()
        blob.frame_norms = np.zeros((3, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            blob.to_bytes()

    def test_single_stream_amortizes_headers(self):
        """The batched format stores stream overhead once — the
        serialized size of a 2x-longer latent stream grows by about the
        stream delta, not by another full header."""
        small = make_blob(seed=1)
        big = make_blob(seed=1)
        big.y_stream = big.y_stream * 2
        delta = len(big.to_bytes()) - len(small.to_bytes())
        assert delta == len(small.y_stream)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_blob_roundtrip_property(data):
    seed = data.draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    t = data.draw(st.integers(4, 20))
    steps = data.draw(st.integers(1, 100))
    blob = CompressedBlob(
        shape=(t, 8, 8), window=4,
        keyframe_strategy=data.draw(st.sampled_from(
            ["interpolation", "prediction", "mixed"])),
        keyframe_interval=data.draw(st.integers(1, 6)),
        sampler=data.draw(st.sampled_from(["ddim", "ancestral"])),
        sample_steps=steps,
        schedule_steps=data.draw(st.integers(steps, 1000)),
        noise_seed=data.draw(st.integers(-2 ** 40, 2 ** 40)),
        frame_norms=rng.normal(size=(t, 2)).astype(np.float32),
        y_stream=rng.bytes(int(rng.integers(0, 60))),
        z_stream=rng.bytes(int(rng.integers(0, 30))),
        y_header={"L": int(rng.integers(1, 99))},
        z_header={"zmin": int(rng.integers(-9, 0)),
                  "zmax": int(rng.integers(0, 9))},
        y_shape=tuple(int(x) for x in rng.integers(1, 6, 4)),
        z_shape=tuple(int(x) for x in rng.integers(1, 6, 4)),
        bound_payload=rng.bytes(data.draw(st.integers(0, 50))))
    back = CompressedBlob.from_bytes(blob.to_bytes())
    assert back.to_bytes() == blob.to_bytes()


class TestVersion4:
    def test_written_layout(self):
        """v2's fixed header, then the backend tag and the schedule
        length: 5 B more than a v2 blob."""
        data = make_blob().to_bytes()
        assert data[:4] == b"LDCB" and data[4] == 4
        at = 4 + struct.calcsize("<BIIIIBIIq")
        assert data[at] == get_backend("arithmetic").tag
        assert struct.unpack_from("<I", data, at + 1) == (16,)

    def test_every_backend_is_tagged(self):
        for backend in ("arithmetic", "rans", "vrans", "trans"):
            blob = make_blob()
            blob.entropy_backend = backend
            back = CompressedBlob.from_bytes(blob.to_bytes())
            assert back.entropy_backend == backend
            assert back.schedule_steps == 16

    @pytest.mark.parametrize("steps, schedule",
                             [(0, 16), (17, 16), (1, 0)])
    def test_chain_outside_its_schedule_is_refused(self, steps, schedule):
        blob = make_blob()
        blob.sample_steps, blob.schedule_steps = steps, schedule
        with pytest.raises(ValueError, match="chain"):
            blob.to_bytes()
        good = make_blob().to_bytes()
        at = 4 + struct.calcsize("<BIIIIBIIq")
        bad = bytearray(good)
        struct.pack_into("<I", bad, at - 12, steps)
        struct.pack_into("<I", bad, at + 1, schedule)
        with pytest.raises(ValueError, match="chain"):
            CompressedBlob.from_bytes(bytes(bad))

    def test_blob_without_a_schedule_is_not_written(self):
        blob = make_blob()
        blob.schedule_steps = None
        with pytest.raises(ValueError, match="read-only"):
            blob.to_bytes()

    def test_chain_steps(self):
        blob = make_blob()
        assert blob.chain_steps() == 4
        blob.sampler = "ancestral"
        assert blob.chain_steps() == 4
        blob.schedule_steps = None      # as read from a v2/v3 blob
        assert blob.chain_steps() is None
        blob.sampler = "ddim"
        assert blob.chain_steps() == 4
