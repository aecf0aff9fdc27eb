"""Entropy-backend selection end to end.

The acceptance criteria of the entropy-layer hardening: a session (or
the CLI) can pick ``arithmetic`` / ``rans`` / ``vrans`` / ``trans``
for every stream it writes, archives carry the backend tag so a
*fresh* session
decodes them with no hints, legacy (untagged / version-2) containers
keep decoding bit-identically, and executor backends stay
byte-interchangeable under a non-default coder.
"""

import json

import numpy as np
import pytest

from repro.api import Archive, Bound, Session, SessionError
from repro.cli import main
from repro.data import get_dataset
from repro.entropy import get_default_backend, using_backend
from repro.metrics import nrmse
from repro.pipeline.blob import CompressedBlob
from repro.postprocess.coding import decode_ints, encode_ints
from repro.runtime import SweepJournal
from repro.service import CompressionService, ServiceClient

BOUND = Bound.nrmse(0.02)
TOL = 0.02 * (1 + 1e-9)
SHAPE = {"t": 12, "h": 16, "w": 16}


@pytest.fixture(scope="module")
def frames():
    return get_dataset("e3sm", t=12, h=16, w=16, seed=9).frames(0)


class TestSessionSelection:
    @pytest.mark.parametrize("backend", ["arithmetic", "rans", "vrans",
                                         "trans"])
    def test_array_roundtrip_with_fresh_session(self, frames, backend):
        with Session(codec="szlike", entropy_backend=backend) as s:
            archive = s.compress(frames, bound=BOUND)
        # decoding needs no backend hint: payloads self-describe
        with Session() as fresh:
            out = fresh.decompress(archive)
        assert nrmse(frames, out) <= TOL

    def test_per_call_override_beats_session_default(self, frames):
        with Session(codec="szlike", entropy_backend="vrans") as s:
            tagged = s.compress(frames, bound=BOUND)
            legacy = s.compress(frames, bound=BOUND,
                                entropy_backend="arithmetic")
            assert tagged.to_bytes() != legacy.to_bytes()
            np.testing.assert_array_equal(s.decompress(tagged),
                                          s.decompress(legacy))

    def test_arithmetic_selection_is_byte_identical_to_default(
            self, frames):
        """Selecting the default backend changes nothing on the wire —
        pre-backend archives and tagged-arithmetic archives are the
        same bytes."""
        with Session(codec="szlike") as plain, \
                Session(codec="szlike",
                        entropy_backend="arithmetic") as explicit:
            a = plain.compress(frames, bound=BOUND)
            b = explicit.compress(frames, bound=BOUND)
        assert a.to_bytes() == b.to_bytes()

    def test_default_restored_after_compress(self, frames):
        with Session(codec="szlike", entropy_backend="vrans") as s:
            s.compress(frames, bound=BOUND)
        assert get_default_backend().name == "arithmetic"

    def test_unknown_backend_raises_session_error(self, frames):
        with pytest.raises(SessionError, match="entropy backend"):
            Session(codec="szlike", entropy_backend="huffman")
        with Session(codec="szlike") as s:
            with pytest.raises(SessionError, match="entropy backend"):
                s.compress(frames, bound=BOUND,
                           entropy_backend="huffman")

    def test_multivar_and_stream_sources(self, frames):
        data = {"u": frames, "v": frames[::-1].copy()}
        with Session(codec="szlike", entropy_backend="vrans") as s:
            mv = s.compress(data, bound=BOUND)
            st = s.compress(iter(frames), bound=BOUND)
        with Session() as fresh:
            out = fresh.decompress(mv)
            assert sorted(out) == ["u", "v"]
            for key in data:
                assert nrmse(data[key], out[key]) <= TOL
            streamed = fresh.decompress(st)
        assert nrmse(frames, streamed) <= TOL


#: every Session write path, plus the sweep journal's fingerprint
WRITE_PATHS = ("stack", "shards", "npy", "plan", "sweep", "fingerprint",
               "multivar", "stream", "served")


def _write_all(session, frames, npy, journal, service_dir):
    """Bytes each write path produces under ``session`` (plus the sweep
    journal's fingerprint); ``served`` submits the plan compress, with
    the session's backend, to a service on the same executor."""
    out = {
        "stack": session.compress(frames, bound=BOUND),
        "shards": session.compress(frames, bound=BOUND, shards=3),
        "npy": session.compress(str(npy), bound=BOUND, shards=3,
                                chunk_shards=2),
        "plan": session.compress("e3sm", bound=BOUND, variables=[0],
                                 shards=3, dataset_overrides=SHAPE),
        "sweep": session.sweep("e3sm", bound=BOUND, shards=3,
                               dataset_overrides=SHAPE, journal=journal),
        "multivar": session.compress({"u": frames,
                                      "v": frames[::-1].copy()},
                                     bound=BOUND),
        "stream": session.compress(iter(frames), bound=BOUND),
    }
    out = {k: v.to_bytes() for k, v in out.items()}
    with open(journal) as fh:
        out["fingerprint"] = json.loads(fh.readline())["fingerprint"]
    with CompressionService(service_dir, workers=2,
                            executor=session.executor.mode) as service:
        client = ServiceClient(service)
        job = client.submit({"type": "compress", "dataset": "e3sm",
                             "shape": SHAPE, "codec": "szlike",
                             "bound": "nrmse:0.02", "variables": [0],
                             "shards": 3,
                             "entropy_backend": session.entropy_backend})
        assert client.wait(job["id"])["state"] == "done"
        out["served"] = client.result(job["id"])
    return out


class TestWritePathsUseSelectedBackend:
    """Round trips alone cannot show which coder wrote a stream: every
    path must write the bytes of a serial-executor reference with the
    selected backend, and those must differ from the arithmetic
    archive."""

    @pytest.fixture(scope="class")
    def written(self, frames, tmp_path_factory):
        root = tmp_path_factory.mktemp("write-paths")
        npy = root / "frames.npy"
        np.save(npy, frames)
        runs = {}
        for tag, executor, backend in (("thread", "thread", "trans"),
                                       ("serial", "serial", "trans"),
                                       ("default", "serial", None)):
            with Session(codec="szlike", executor=executor,
                         entropy_backend=backend) as s:
                runs[tag] = _write_all(s, frames, npy,
                                       root / f"{tag}.jsonl",
                                       root / f"cache-{tag}")
        return runs

    @pytest.mark.parametrize("path", WRITE_PATHS)
    def test_path_writes_selected_backend(self, written, path):
        assert written["thread"][path] == written["serial"][path]
        assert written["thread"][path] != written["default"][path]


class TestDefaultBackendKeys:
    """A request that names no backend has the cache key and journal
    fingerprint of one that names the default.  The digests were
    recorded when the default was a process-wide setting and re-pinned
    when the integer payload format joined the facts; the earlier
    values (``PRE_FORMAT``) describe fixed-width payloads, so a
    journal or cache entry keyed on them is never reused.  The service
    digest was re-pinned once more when a compress job's facts became
    the session's sweep facts (which add the shard window); the journal
    fingerprint did not move."""

    REQUEST = {"type": "compress", "dataset": "e3sm", "shape": SHAPE,
               "codec": "szlike", "bound": "nrmse:0.02", "shards": 2,
               "seed": 5}
    PRE_FORMAT = {"digest": ("738b587688deb68ad4baddc72f8d6cdb"
                             "9c6439f91cb4095259227a4eebfe78c9"),
                  "fingerprint": ("90746d3e91e2b934cec30ed2a4fa162a"
                                  "611ff9ee78a48e71b8525e5f9a0e87ac")}

    def test_service_digest_unchanged(self, tmp_path):
        service = CompressionService(tmp_path / "cache", start=False)
        try:
            client = ServiceClient(service)
            digests = [client.submit(dict(self.REQUEST, **extra))["digest"]
                       for extra in ({}, {"entropy_backend": "arithmetic"})]
        finally:
            service.close(drain=False)
        assert digests == ["57109c209f33e4d62fe5c0e709522473"
                           "0265c1a9f1cf7dd725275c2e61f2b55e"] * 2

    def test_pre_format_cache_entry_is_not_served(self, tmp_path):
        service = CompressionService(tmp_path / "cache", start=False)
        try:
            service.cache.put(self.PRE_FORMAT["digest"], b"old bytes")
            job = ServiceClient(service).submit(dict(self.REQUEST))
        finally:
            service.close(drain=False)
        assert not job["cache_hit"]
        assert job["digest"] != self.PRE_FORMAT["digest"]

    def test_sweep_fingerprint_unchanged(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        with Session(codec="szlike", executor="serial") as s:
            s.sweep("e3sm", bound=BOUND, shards=2, seed=5,
                    dataset_overrides=SHAPE, journal=journal)
        with open(journal) as fh:
            header = json.loads(fh.readline())
        assert header["fingerprint"] == (
            "7535591d8522540d0e650b81b8df7453"
            "ca38d4a1736bc6e7e019a4356fae4365")

    def test_pre_format_journal_is_refused(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        SweepJournal(journal,
                     fingerprint=self.PRE_FORMAT["fingerprint"]).close()
        with Session(codec="szlike", executor="serial") as s:
            with pytest.raises(SessionError, match="fingerprint"):
                s.sweep("e3sm", bound=BOUND, shards=2, seed=5,
                        dataset_overrides=SHAPE, journal=journal,
                        resume=True)


class TestExecutorByteIdentity:
    def _archive(self, executor):
        with Session(codec="szlike", executor=executor, seed=3,
                     entropy_backend="vrans") as s:
            return s.compress("e3sm", bound=BOUND, variables=[0],
                              shards=4,
                              dataset_overrides={"t": 12, "h": 16,
                                                 "w": 16}).to_bytes()

    def test_serial_thread_process_identical_under_vrans(self):
        serial = self._archive("serial")
        assert self._archive("thread") == serial
        assert self._archive("process") == serial


class TestContainerTags:
    def _blob(self, backend):
        rng = np.random.default_rng(0)
        return CompressedBlob(
            shape=(4, 8, 8), window=4, keyframe_strategy="fixed",
            keyframe_interval=2, sampler="ddim", sample_steps=2,
            noise_seed=7,
            frame_norms=rng.random((4, 2)).astype("<f4"),
            y_stream=b"yy", z_stream=b"zz",
            y_header={"L": 3}, z_header={"zmin": -1, "zmax": 2},
            y_shape=(2, 1, 2, 2), z_shape=(2, 1, 1, 1),
            entropy_backend=backend)

    def test_arithmetic_blob_keeps_version_2_wire(self):
        data = self._blob("arithmetic").to_bytes()
        assert data[4] == 2  # version byte: legacy layout untouched
        back = CompressedBlob.from_bytes(data)
        assert back.entropy_backend == "arithmetic"
        assert back.y_header == {"L": 3}

    def test_tagged_blob_bumps_to_version_3(self):
        blob = self._blob("vrans")
        data = blob.to_bytes()
        assert data[4] == 3
        back = CompressedBlob.from_bytes(data)
        assert back.entropy_backend == "vrans"
        assert back.y_header == {"L": 3, "backend": "vrans"}
        assert back.z_header == {"zmin": -1, "zmax": 2,
                                 "backend": "vrans"}
        assert back.streams_dict()["entropy_backend"] == "vrans"

    def test_tagged_blob_is_one_byte_longer(self):
        assert (len(self._blob("rans").to_bytes())
                == len(self._blob("arithmetic").to_bytes()) + 1)

    def test_trans_blob_roundtrips_tag(self):
        back = CompressedBlob.from_bytes(self._blob("trans").to_bytes())
        assert back.entropy_backend == "trans"
        assert back.y_header == {"L": 3, "backend": "trans"}

    def test_encode_ints_tags_non_default_backends(self):
        values = np.repeat(np.arange(-40, 41), 40)
        legacy = encode_ints(values)
        for backend in ("rans", "vrans", "trans"):
            tagged = encode_ints(values, backend=backend)
            out, end = decode_ints(tagged)
            np.testing.assert_array_equal(out, values)
            assert end == len(tagged)
            assert tagged[:2] == b"Rt"
        out, _ = decode_ints(legacy)
        np.testing.assert_array_equal(out, values)
        assert legacy[:2] in (b"Ri", b"Rv")

    def test_encode_ints_default_scopes_with_using_backend(self):
        values = np.repeat(np.arange(-40, 41), 40)
        with using_backend("vrans"):
            scoped = encode_ints(values)
        assert scoped == encode_ints(values, backend="vrans")
        out, _ = decode_ints(scoped)
        np.testing.assert_array_equal(out, values)


class TestCLI:
    def test_compress_decompress_with_entropy_flag(self, tmp_path,
                                                   capsys):
        out = tmp_path / "e3sm.cdx"
        restored = tmp_path / "restored.npy"
        rc = main(["compress", "--dataset", "e3sm", "--shape",
                   "12x16x16", "--codec", "szlike", "--nrmse-bound",
                   "0.02", "--entropy-backend", "vrans", str(out)])
        assert rc == 0
        archive = Archive.open(out)
        assert archive.kind == "shard"
        rc = main(["decompress", str(out), str(restored)])
        assert rc == 0
        frames = get_dataset("e3sm", t=12, h=16, w=16).frames(0)
        assert nrmse(frames, np.load(restored)) <= TOL
        capsys.readouterr()

    def test_rejects_unknown_backend(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["compress", "--dataset", "e3sm", "--codec", "szlike",
                  "--entropy-backend", "nope",
                  str(tmp_path / "x.cdx")])
