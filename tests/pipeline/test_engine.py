"""Execution-engine unit tests (codec-agnostic plumbing).

The per-codec bit-identity acceptance tests live in
``tests/codecs/test_registry.py``; this module covers the engine's own
mechanics with a fast rule-based codec: deterministic seed derivation,
per-window timing, accounting aggregation, parallel decompress, and
argument validation.
"""

import numpy as np
import pytest

from repro.bound import Bound
from repro.codecs import get_codec
from repro.pipeline.engine import SEED_STRIDE, BatchResult, CodecEngine


@pytest.fixture(scope="module")
def stacks():
    rng = np.random.default_rng(2)
    return [(rng.standard_normal((6, 12, 12)) * 0.1).cumsum(axis=0) + i
            for i in range(5)]


@pytest.fixture(scope="module")
def batch(stacks):
    engine = CodecEngine("szlike", max_workers=3, base_seed=4)
    return engine.compress(stacks, bound=Bound.nrmse(0.05))


class TestCodecEngine:
    def test_order_and_seeds(self, batch, stacks):
        assert [r.index for r in batch.reports] == list(range(len(stacks)))
        assert [r.seed for r in batch.reports] == \
            [4 + SEED_STRIDE * i for i in range(len(stacks))]

    def test_per_window_timing_and_wall_clock(self, batch):
        assert all(r.seconds > 0 for r in batch.reports)
        assert batch.wall_seconds > 0
        assert batch.cpu_seconds >= max(r.seconds for r in batch.reports)
        assert batch.speedup > 0

    def test_accounting_aggregates(self, batch, stacks):
        acc = batch.accounting()
        assert acc.original_bytes == sum(s.size * 4 for s in stacks)
        assert acc.latent_bytes == sum(
            len(r.payload) for r in batch.results)
        assert batch.ratio == pytest.approx(acc.ratio)
        assert batch.worst_nrmse() <= 0.05 * (1 + 1e-9)

    def test_decompress_batch_parallel_matches_serial(self, batch):
        payloads = [r.payload for r in batch.results]
        serial = CodecEngine("szlike", max_workers=1).decompress(payloads)
        parallel = CodecEngine("szlike", max_workers=4).decompress(
            payloads)
        for a, b in zip(serial, parallel):
            np.testing.assert_array_equal(a, b)

    def test_native_bound_passthrough(self, stacks):
        """A bound in the codec's native metric reaches it unchanged."""
        engine = CodecEngine("szlike", max_workers=2)
        res = engine.compress(stacks[:2], bound=Bound.pointwise(0.01))
        for orig, r in zip(stacks[:2], res.results):
            assert np.abs(orig - r.reconstruction).max() <= \
                0.01 * (1 + 1e-9)

    def test_conflicting_bounds_raise(self, stacks):
        """The engine speaks one bound vocabulary: the legacy kwargs,
        alone or next to ``bound``, are refused."""
        engine = CodecEngine("szlike")
        with pytest.raises(TypeError):
            engine.compress(stacks[:1], bound=0.1, nrmse_bound=0.1)
        with pytest.raises(TypeError):
            engine.compress(stacks[:1], nrmse_bound=0.1)

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_raw_float_bound_refused(self, stacks, executor):
        """A codec-native float is refused with Codec.native_bound's
        one TypeError; it goes to Codec.compress directly."""
        engine = CodecEngine("szlike", max_workers=2, executor=executor)
        with pytest.raises(TypeError, match="must be a Bound"):
            engine.compress(stacks[:2], bound=0.1)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            CodecEngine("szlike", max_workers=0)

    def test_empty_batch(self):
        engine = CodecEngine("szlike")
        res = engine.compress([])
        assert isinstance(res, BatchResult)
        assert res.results == []
        assert res.accounting().compressed_bytes == 0

    def test_exceptions_propagate(self):
        engine = CodecEngine("szlike", max_workers=2)
        with pytest.raises(ValueError):
            # rule-based codec without a bound
            engine.compress([np.zeros((4, 4, 4)), np.zeros((4, 4, 4))])

    def test_bound_object_matches_native_float(self, stacks):
        """A typed bound writes what its native float, converted per
        stack, writes through Codec.compress."""
        codec = get_codec("szlike")
        engine = CodecEngine(codec, max_workers=2, base_seed=4)
        bound = Bound.nrmse(0.05)
        typed = engine.compress(stacks, bound=bound)
        for i, (stack, r) in enumerate(zip(stacks, typed.results)):
            native = codec.compress(stack, bound.native_for(codec, stack),
                                    seed=engine.seed_for(i))
            assert r.payload == native.payload


def test_parallel_map_removed():
    """The pre-executor-era helper is gone; executors replaced it."""
    import repro.pipeline
    import repro.pipeline.engine as engine
    assert not hasattr(engine, "parallel_map")
    assert not hasattr(repro.pipeline, "parallel_map")
