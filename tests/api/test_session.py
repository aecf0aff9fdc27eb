"""Session facade tests: dispatch per input shape, bit-exact file
round-trips, codec resolution, and executor byte-identity through the
facade (the acceptance criteria of the api redesign)."""

import numpy as np
import pytest

from repro.api import Archive, Bound, Session, SessionError
from repro.data import get_dataset
from repro.metrics import nrmse

SHAPE_OVERRIDES = {"t": 12, "h": 16, "w": 16}


@pytest.fixture(scope="module")
def frames():
    ds = get_dataset("e3sm", t=12, h=16, w=16, seed=9)
    return ds.frames(0)


def _roundtrip(session, archive, tmp_path, name):
    """compress -> save -> Archive.open -> decompress, bit-identically
    (the file path must change nothing)."""
    path = tmp_path / name
    archive.save(path)
    reopened = Archive.open(path)
    assert reopened.to_bytes() == archive.to_bytes()
    direct = session.decompress(archive)
    from_file = session.decompress(reopened)
    if isinstance(direct, dict):
        assert sorted(direct) == sorted(from_file)
        for key in direct:
            np.testing.assert_array_equal(direct[key], from_file[key])
    else:
        np.testing.assert_array_equal(direct, from_file)
    return from_file


class TestRoundTrips:
    """One round-trip per input shape, per the acceptance criteria."""

    def test_array(self, frames, tmp_path):
        with Session(codec="szlike") as s:
            archive = s.compress(frames, bound=Bound.nrmse(0.02))
            assert archive.kind == "envelope"
            out = _roundtrip(s, archive, tmp_path, "array.cdx")
        assert out.shape == frames.shape
        assert nrmse(frames, out) <= 0.02 * (1 + 1e-9)

    def test_array_sharded(self, frames, tmp_path):
        with Session(codec="szlike", executor="serial") as s:
            archive = s.compress(frames, bound=Bound.nrmse(0.02),
                                 shards=3)
            assert archive.kind == "shard"
            assert archive.stats["shards"] == 3
            out = _roundtrip(s, archive, tmp_path, "sharded.cdx")
        assert nrmse(frames, out) <= 0.02 * (1 + 1e-9)

    def test_dataset_name(self, tmp_path):
        with Session(codec="szlike", executor="serial") as s:
            archive = s.compress("e3sm", bound=Bound.nrmse(0.02),
                                 variables=[0], shards=4,
                                 dataset_overrides=SHAPE_OVERRIDES)
            assert archive.kind == "shard"
            out = _roundtrip(s, archive, tmp_path, "dataset.cdx")
        original = get_dataset("e3sm", **SHAPE_OVERRIDES).frames(0)
        assert out.shape == original.shape
        assert nrmse(original, out) <= 0.02 * (1 + 1e-9)

    def test_dataset_spec_defaults_to_all_variables(self, tmp_path):
        from repro.data import get_dataset_spec
        spec = get_dataset_spec("e3sm", **SHAPE_OVERRIDES)
        with Session(codec="dpcm", executor="serial") as s:
            archive = s.compress(spec, bound=Bound.nrmse(0.05))
            out = _roundtrip(s, archive, tmp_path, "spec.cdx")
        ds = spec.build()
        assert out.shape == spec.shape  # (V, T, H, W)
        for v in range(spec.num_vars):
            assert nrmse(ds.frames(v), out[v]) <= 0.05 * (1 + 1e-9)

    def test_multivar_mapping(self, frames, tmp_path):
        stacks = {"u": frames, "v": frames * 2.0 + 1.0}
        with Session(codec="szlike") as s:
            archive = s.compress(stacks, bound=Bound.nrmse(0.02))
            assert archive.kind == "shard"
            assert archive.stats["variables"] == ["u", "v"]
            out = _roundtrip(s, archive, tmp_path, "multivar.cdx")
        assert sorted(out) == ["u", "v"]
        for name, stack in stacks.items():
            assert nrmse(stack, out[name]) <= 0.02 * (1 + 1e-9)

    def test_multivar_array_with_names(self, frames):
        arr = np.stack([frames, frames * 2.0])
        with Session(codec="szlike") as s:
            archive = s.compress(arr, names=["a", "b"],
                                 bound=Bound.nrmse(0.05))
            out = s.decompress(archive)
        assert sorted(out) == ["a", "b"]

    def test_chunk_iterator(self, frames, tmp_path):
        with Session(codec="szlike", chunk_windows=2) as s:
            archive = s.compress(iter(frames), bound=Bound.nrmse(0.02))
            assert archive.kind == "shard"
            assert archive.stats["frames"] == frames.shape[0]
            out = _roundtrip(s, archive, tmp_path, "stream.cdx")
        assert out.shape == frames.shape
        assert nrmse(frames, out) <= 0.02 * (1 + 1e-9)

    @pytest.mark.parametrize("codec", ["szlike", "dpcm", "zfplike",
                                       "mgard"])
    def test_stream_chunks_are_the_shards_of_a_stack(self, codec):
        """One container: a stream whose chunks fall on the slices of
        ``shards=4`` writes the archive ``shards=4`` writes."""
        stack = get_dataset("e3sm", t=16, h=16, w=16, seed=1).frames(0)
        with Session(codec=codec, executor="serial") as s:
            streamed = s.compress(iter(stack), bound=Bound.nrmse(1e-2),
                                  chunk_windows=4)
            sharded = s.compress(stack, bound=Bound.nrmse(1e-2),
                                 shards=4)
        assert streamed.stats["chunks"] == 4
        assert streamed.data == sharded.data

    def test_compress_is_deterministic(self, frames):
        with Session(codec="szlike") as s:
            a = s.compress(frames, bound=Bound.nrmse(0.02))
            b = s.compress(frames, bound=Bound.nrmse(0.02))
        assert a.to_bytes() == b.to_bytes()

    def test_bound_is_the_only_vocabulary(self, frames, tmp_path):
        """A float ``bound=`` meets the one TypeError of
        Codec.native_bound, journaled or not; the retired
        ``nrmse_bound=``/``error_bound=`` kwargs are unknown."""
        small = {"t": 8, "h": 8, "w": 8}
        with Session(codec="szlike", executor="serial") as s:
            with pytest.raises(TypeError, match="must be a Bound"):
                s.compress(frames, bound=0.02)
            for journal in (None, tmp_path / "sweep.journal"):
                with pytest.raises(TypeError, match="must be a Bound"):
                    s.sweep("e3sm", bound=0.02, shards=2,
                            journal=journal, dataset_overrides=small)
            for kw in ("nrmse_bound", "error_bound"):
                with pytest.raises(TypeError, match=kw):
                    s.compress(frames, **{kw: 0.02})
                with pytest.raises(TypeError, match=kw):
                    s.sweep("e3sm", **{kw: 0.02})


class TestTrainedArtifactSweep:
    """Acceptance: a trained-artifact sweep via Session(executor=
    "process") is byte-identical to executor="serial"."""

    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("api-artifacts")
        path = root / "vae-sr.npz"
        session = Session(seed=1)
        codec, manifest = session.train(
            "vae-sr", "e3sm", save=str(path),
            dataset_overrides=SHAPE_OVERRIDES,
            vae_iters=3, sr_iters=2, seed=1)
        assert codec.name == "vae-sr"
        assert manifest.training["vae_iters"] == 3
        assert manifest.dataset["name"] == "e3sm"
        return str(path)

    def test_process_sweep_matches_serial(self, artifact):
        archives = {}
        for executor in ("serial", "process"):
            with Session(artifact=artifact, executor=executor,
                         workers=2) as s:
                archives[executor] = s.compress(
                    "e3sm", bound=Bound.nrmse(0.5), variables=[0],
                    shards=4, dataset_overrides=SHAPE_OVERRIDES)
        assert archives["process"].to_bytes() \
            == archives["serial"].to_bytes()

    def test_artifact_roundtrip_through_facade(self, artifact,
                                               tmp_path):
        with Session(artifact=artifact) as s:
            archive = s.compress("e3sm", bound=Bound.nrmse(0.5),
                                 variables=[0], shards=2,
                                 dataset_overrides=SHAPE_OVERRIDES)
            out = _roundtrip(s, archive, tmp_path, "trained.cdx")
        original = get_dataset("e3sm", **SHAPE_OVERRIDES).frames(0)
        assert nrmse(original, out) <= 0.5 * (1 + 1e-9)

    def test_any_spelling_resolves_the_trained_codec(self, artifact):
        with Session(artifact=artifact) as s:
            trained = s.resolve_codec()
            for name in ("vae-sr", "vae_sr", "VAE-SR"):
                assert s.resolve_codec(name) is trained
        for name in ("vae_sr", "VAE-SR", " Vae-Sr "):
            with Session(codec=name, artifact=artifact) as s:
                assert s.resolve_codec().name == "vae-sr"

    def test_artifact_name_mismatch_rejected(self, artifact):
        with pytest.raises(SessionError, match="holds codec 'vae-sr'"):
            Session(codec="gcd", artifact=artifact)


class TestCodecResolution:
    def test_unknown_codec_lists_registry(self):
        with pytest.raises(KeyError, match="szlike"):
            Session(codec="nope").resolve_codec()

    def test_ours_requires_model(self, monkeypatch):
        """``ours`` resolves like every learned codec: from an artifact
        or a codec object; by name alone it raises before any model is
        built."""
        from repro.codecs import LatentDiffusionCodec

        def built(*_, **__):
            raise AssertionError("an untrained model was built")
        monkeypatch.setattr(LatentDiffusionCodec, "__init__", built)
        for session in (Session(), Session(codec="ours"),
                        Session(codec="OURS")):
            with pytest.raises(SessionError, match="--codec-artifact"):
                session.resolve_codec()
            for name in ("ours", "OURS", " Ours "):
                with pytest.raises(SessionError, match="repro train"):
                    session.resolve_codec(name)

    def test_untrained_learned_codec_hints_at_artifact(self):
        """Every spelling the registry accepts is refused by name."""
        for name in ("vae-sr", "vae_sr", "VAE-SR"):
            with pytest.raises(SessionError,
                               match="'vae-sr' is learning-based"):
                Session(codec=name).resolve_codec()

    def test_codec_instance_and_native_object_adopted(self, frames):
        from repro.codecs import get_codec
        codec = get_codec("szlike")
        assert Session(codec=codec).resolve_codec() is codec
        native = codec.impl  # the raw SZ-like compressor object
        assert Session(codec=native).resolve_codec().name == "szlike"

    def test_expect_codec_mismatch(self, frames):
        with Session(codec="szlike") as s:
            archive = s.compress(frames, bound=Bound.nrmse(0.05))
            with pytest.raises(SessionError, match="szlike"):
                s.decompress(archive, expect_codec="mgard")
            for name in ("SZLIKE", " SZLike ", "szlike"):
                np.testing.assert_array_equal(
                    s.decompress(archive, expect_codec=name),
                    s.decompress(archive))

    def test_bad_source_types(self):
        s = Session(codec="szlike")
        with pytest.raises(SessionError, match="T, H, W"):
            s.compress(np.zeros((4, 4)))
        with pytest.raises(SessionError, match="cannot compress"):
            s.compress(42)
        with pytest.raises(TypeError, match="nrmse_bound"):
            s.compress(np.zeros((4, 8, 8)), bound=Bound.nrmse(0.1),
                       nrmse_bound=0.1)

    def test_train_rejects_model_free_codec(self):
        with pytest.raises(SessionError, match="model-free"):
            Session().train("szlike", np.zeros((8, 8, 8)), save="x.npz")

    def test_train_requires_destination(self):
        with pytest.raises(SessionError, match="ArtifactStore"):
            Session().train("vae-sr", np.zeros((8, 8, 8)))

    def test_dataset_instance_honours_overrides(self):
        """Overrides must not be silently dropped for instances."""
        ds = get_dataset("e3sm", t=32, h=16, w=16)
        with Session(codec="szlike", executor="serial") as s:
            archive = s.compress(ds, bound=Bound.nrmse(0.05),
                                 variables=[0],
                                 dataset_overrides={"t": 12})
            out = s.decompress(archive)
        assert out.shape[0] == 12

    def test_train_ours_builds_compressor_once(self, monkeypatch,
                                               tmp_path):
        """The corrector fit (inside build_compressor) is the
        expensive training tail; it must run exactly once."""
        from repro.pipeline.training import TwoStageTrainer
        calls = []
        original = TwoStageTrainer.build_compressor

        def counting(self, *a, **kw):
            calls.append(1)
            return original(self, *a, **kw)

        monkeypatch.setattr(TwoStageTrainer, "build_compressor",
                            counting)
        session = Session(seed=0)
        codec, manifest = session.train(
            "ours", "e3sm", save=str(tmp_path / "ours-tiny.npz"),
            dataset_overrides=SHAPE_OVERRIDES,
            vae_iters=2, diffusion_iters=2, seed=0)
        assert codec.name == "ours"
        assert manifest.training["vae_iters"] == 2
        assert len(calls) == 1

    def test_train_into_store(self, tmp_path):
        from repro.pipeline.artifacts import ArtifactStore
        store = ArtifactStore(tmp_path / "store")
        session = Session(store=store, seed=1)
        codec, key = session.train(
            "vae-sr", "e3sm", dataset_overrides=SHAPE_OVERRIDES,
            vae_iters=2, sr_iters=1, seed=1)
        assert key in store
        clone = store.get(key)
        assert clone.name == "vae-sr"


def test_time_sliced_groups_follow_the_pool_width(monkeypatch, tmp_path):
    """Streams and out-of-core ingests hand the engine as many parts
    per call as the runtime runs at once: a serial session holds one
    sealed chunk or shard at a time.  The bytes do not depend on it."""
    from repro.pipeline.engine import CodecEngine
    calls = []
    compress = CodecEngine.compress

    def spy(self, stacks, **kwargs):
        calls.append(len(stacks))
        return compress(self, stacks, **kwargs)

    monkeypatch.setattr(CodecEngine, "compress", spy)
    frames = np.random.default_rng(5).standard_normal((40, 8, 8))
    path = tmp_path / "frames.npy"
    np.save(path, frames)
    bound = Bound.nrmse(0.05)
    wires = {}
    for executor, width in (("serial", 1), ("thread", 2)):
        with Session(codec="szlike", executor=executor, workers=2) as s:
            calls.clear()
            stream = s.compress(iter(frames), bound=bound,
                                chunk_windows=1)
            assert stream.stats["chunks"] == 40
            assert calls == [width] * (40 // width)
            calls.clear()
            ingest = s.compress(str(path), bound=bound, shards=8)
            assert calls == [width] * (8 // width)
            assert ingest.stats["chunk_shards"] == width
            wires[executor] = (stream.data, ingest.data)
    assert wires["serial"] == wires["thread"]
