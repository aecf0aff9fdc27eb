"""Runtime modes under the engine: equivalence, clamping and spec
shipping.

Serial, thread and process :class:`~repro.runtime.TaskRuntime` modes
must be *interchangeable* — byte-identical payloads, identical
per-window seeds and identical ``WindowReport`` accounting — across
codecs and datasets.  Process mode additionally proves the
codec/dataset spec round-trip, since its workers rebuild both from
specs.
"""

import numpy as np
import pytest

from repro import nrmse
from repro.api import Bound, Session
from repro.codecs import Codec, codec_from_spec, get_codec
from repro.pipeline.engine import CodecEngine
from repro.pipeline.plan import plan_shards
from repro.runtime import TaskRuntime, default_workers

CODECS = ["szlike", "tthresh", "dpcm"]
DATASETS = ["e3sm", "s3d"]


@pytest.fixture(scope="module")
def process_executor():
    """One warm process pool shared by every parametrized case."""
    ex = TaskRuntime(mode="process", max_workers=2)
    yield ex
    ex.close()


def _plans():
    return {name: plan_shards(name, variables=[0], shards=2,
                              t=8, h=12, w=12, seed=3, base_seed=11)
            for name in DATASETS}


PLANS = _plans()


class TestExecutorEquivalence:
    @pytest.mark.parametrize("dataset", DATASETS)
    @pytest.mark.parametrize("codec", CODECS)
    def test_backends_bit_identical(self, codec, dataset,
                                    process_executor):
        plan = PLANS[dataset]
        batches = {}
        for executor in (TaskRuntime("serial"), TaskRuntime("thread", 2),
                         process_executor):
            engine = CodecEngine(codec, executor=executor)
            batches[executor.mode] = engine.compress_plan(
                plan, bound=Bound.nrmse(0.05))

        ref = batches["serial"]
        for name in ("thread", "process"):
            got = batches[name]
            assert [r.seed for r in got.reports] == \
                [r.seed for r in ref.reports], name
            assert [r.shard_id for r in got.reports] == \
                [r.shard_id for r in ref.reports], name
            # byte-identical streams ...
            assert [r.payload for r in got.results] == \
                [r.payload for r in ref.results], name
            # ... and identical WindowReport accounting
            for a, b in zip(got.results, ref.results):
                assert a.accounting == b.accounting, name
                assert a.achieved_nrmse == b.achieved_nrmse, name
            assert got.worst_nrmse() == ref.worst_nrmse(), name

    def test_stack_batches_bit_identical(self, process_executor):
        rng = np.random.default_rng(0)
        stacks = [rng.normal(size=(5, 12, 12)).cumsum(axis=0)
                  for _ in range(3)]
        ref = CodecEngine("szlike", executor="serial",
                          base_seed=7).compress(
            stacks, bound=Bound.nrmse(0.05))
        got = CodecEngine("szlike", executor=process_executor,
                          base_seed=7).compress(
            stacks, bound=Bound.nrmse(0.05))
        assert [r.payload for r in got.results] == \
            [r.payload for r in ref.results]

    def test_decompress_equivalent_across_backends(self,
                                                   process_executor):
        plan = PLANS["e3sm"]
        batch = CodecEngine("szlike", executor="serial").compress_plan(
            plan, bound=Bound.nrmse(0.05))
        payloads = [r.payload for r in batch.results]
        ref = CodecEngine("szlike", executor="serial").decompress(payloads)
        got = CodecEngine("szlike",
                          executor=process_executor).decompress(payloads)
        for a, b in zip(ref, got):
            np.testing.assert_array_equal(a, b)


class TestExecutorRegistry:
    def test_engine_and_session_hold_a_runtime(self):
        """A mode name builds a runtime; a ready one is held as-is and
        keeps its own width."""
        engine = CodecEngine("szlike", executor="serial", max_workers=2)
        assert isinstance(engine.executor, TaskRuntime)
        assert (engine.executor.mode, engine.max_workers) == ("serial", 2)
        with TaskRuntime(mode="thread", max_workers=3) as rt:
            engine = CodecEngine("szlike", executor=rt, max_workers=7)
            session = Session(codec="szlike", executor=rt, workers=7)
            assert engine.executor is rt and engine.max_workers == 3
            assert session.executor is rt and session.workers == 3

    def test_unknown_backend_lists_registered(self):
        for owner in (CodecEngine, Session):
            with pytest.raises(ValueError,
                               match="serial, thread, process"):
                owner("szlike", executor="gpu")

    def test_default_workers_from_cpu_count(self):
        import os
        assert default_workers() == (os.cpu_count() or 4)
        assert TaskRuntime("serial").max_workers == default_workers()
        assert CodecEngine("szlike").max_workers == default_workers()

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            TaskRuntime(mode="thread", max_workers=0)
        with pytest.raises(ValueError):
            CodecEngine("szlike", max_workers=0)

    def test_map_order_and_exceptions(self):
        for ex in (TaskRuntime("serial"), TaskRuntime("thread", 4)):
            assert ex.map(lambda x: x * x, range(10)) == \
                [x * x for x in range(10)]
            with pytest.raises(RuntimeError):
                ex.map(_boom, [1])

    def test_empty_batch_every_backend(self, process_executor):
        for executor in ("serial", "thread", process_executor):
            batch = CodecEngine("szlike",
                                executor=executor).compress([])
            assert batch.results == []


def _boom(_):
    raise RuntimeError("worker failure")


class TestCodecSpecs:
    @pytest.mark.parametrize("codec", CODECS + ["mgard", "zfplike",
                                                "fazlike"])
    def test_rule_based_spec_roundtrip(self, codec):
        original = get_codec(codec)
        clone = Codec.from_spec(original.to_spec())
        frames = np.linspace(0, 1, 4 * 8 * 8).reshape(4, 8, 8)
        a = original.compress(frames, 0.01, seed=2)
        b = clone.compress(frames, 0.01, seed=2)
        assert a.payload == b.payload

    def test_learned_spec_roundtrip_untrained(self):
        original = get_codec("vae-sr")
        clone = codec_from_spec(original.to_spec())
        frames = np.linspace(0, 1, 4 * 8 * 8).reshape(4, 8, 8)
        a = original.compress(frames, None, seed=1)
        b = clone.compress(frames, None, seed=1)
        assert a.payload == b.payload

    def test_trained_codec_refuses_spec(self):
        codec = get_codec("vae-sr")
        rng = np.random.default_rng(0)
        codec.train([rng.normal(size=(4, 8, 8))], vae_iters=1,
                    sr_iters=1)
        with pytest.raises(TypeError, match="trained"):
            codec.to_spec()

    def test_wrapped_codec_refuses_spec_and_process(self):
        from repro.codecs import SZCodec
        wrapped = SZCodec(impl=get_codec("szlike").impl)
        with pytest.raises(TypeError):
            wrapped.to_spec()
        engine = CodecEngine(wrapped, executor="process")
        with pytest.raises(TypeError, match="cannot be shipped"):
            engine.compress([np.zeros((4, 8, 8))],
                            bound=Bound.pointwise(0.1))

    def test_artifact_spec_roundtrip_trained(self, tmp_path):
        """A trained codec saved to an artifact is spec-portable."""
        codec = get_codec("vae-sr")
        rng = np.random.default_rng(0)
        codec.train([rng.normal(size=(4, 8, 8))], vae_iters=1,
                    sr_iters=1)
        codec.save_artifact(str(tmp_path / "m.npz"))
        spec = codec.to_spec()
        assert spec["artifact"] == str(tmp_path / "m.npz")
        clone = codec_from_spec(spec)
        frames = np.linspace(0, 1, 4 * 8 * 8).reshape(4, 8, 8)
        a = codec.compress(frames, None, seed=1)
        b = clone.compress(frames, None, seed=1)
        assert a.payload == b.payload


class TestTrainedCodecExecutorEquivalence:
    """Satellite of the artifact-store PR: serial/thread/process must
    stay byte-identical when the codec is *trained* and process
    workers rebuild it from an artifact."""

    @pytest.fixture(scope="class")
    def trained_artifact(self, tmp_path_factory):
        codec = get_codec("vae-sr")
        rng = np.random.default_rng(7)
        wins = [rng.normal(size=(4, 8, 8)).cumsum(axis=0)
                for _ in range(2)]
        codec.train(wins, vae_iters=2, sr_iters=2)
        codec.fit_corrector(wins)
        path = str(tmp_path_factory.mktemp("artifact") / "vae-sr.npz")
        codec.save_artifact(path)
        return codec, path

    def test_backends_bit_identical_from_artifact(self, trained_artifact,
                                                  process_executor):
        codec, path = trained_artifact
        rng = np.random.default_rng(5)
        stacks = [rng.normal(size=(4, 8, 8)).cumsum(axis=0)
                  for _ in range(3)]
        batches = {}
        for executor in (TaskRuntime("serial"), TaskRuntime("thread", 2),
                         process_executor):
            engine = CodecEngine(codec, executor=executor, base_seed=13)
            batches[executor.mode] = engine.compress(
                stacks, bound=Bound.nrmse(0.05))
        ref = batches["serial"]
        for name in ("thread", "process"):
            got = batches[name]
            assert [r.payload for r in got.results] == \
                [r.payload for r in ref.results], name
            for a, b in zip(got.results, ref.results):
                assert a.accounting == b.accounting, name
        # process workers rebuilt from the artifact decode within the bound
        restored = CodecEngine(codec, executor=process_executor).decompress(
            [r.payload for r in ref.results])
        for stack, rec in zip(stacks, restored):
            assert nrmse(stack, rec) <= 0.05

    def test_loaded_artifact_equivalent_to_original(self,
                                                    trained_artifact):
        from repro.codecs import Codec
        codec, path = trained_artifact
        clone = Codec.load_artifact(path)
        frames = np.random.default_rng(9).normal(
            size=(4, 8, 8)).cumsum(axis=0)
        a = codec.compress_bounded(frames, bound=Bound.nrmse(0.05),
                                   seed=2)
        b = clone.compress_bounded(frames, bound=Bound.nrmse(0.05),
                                   seed=2)
        assert a.payload == b.payload
        np.testing.assert_array_equal(clone.decompress(a.payload),
                                      a.reconstruction)


class TestParallelShimRemoved:
    def test_module_is_gone(self):
        """PR 2 deprecated repro.pipeline.parallel; it is now removed."""
        with pytest.raises(ImportError):
            import repro.pipeline.parallel  # noqa: F401

    def test_symbol_not_exported(self):
        import repro
        import repro.pipeline
        assert not hasattr(repro.pipeline, "compress_windows_parallel")
        assert not hasattr(repro, "compress_windows_parallel")
