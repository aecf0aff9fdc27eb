"""Shard planner determinism and shard archive container tests."""

import pickle

import numpy as np
import pytest

from repro.data import get_dataset, get_dataset_spec
from repro.pipeline.plan import (SEED_STRIDE, ShardEntry, assemble_shards,
                                 is_shard_archive, pack_shard_archive,
                                 plan_shards, read_members,
                                 read_shard_index, time_slices)


def test_seed_stride_matches_engine():
    """plan.py keeps its own literal to avoid an import cycle; it must
    never drift from the engine's historical stride."""
    from repro.pipeline.engine import SEED_STRIDE as ENGINE_STRIDE
    assert SEED_STRIDE == ENGINE_STRIDE == 7919


class TestTimeSlices:
    def test_window_mode_covers_with_short_tail(self):
        assert time_slices(10, window=4) == [(0, 4), (4, 8), (8, 10)]

    def test_shards_mode_near_equal(self):
        slices = time_slices(10, shards=3)
        assert slices[0] == (0, 3)
        assert slices[-1][1] == 10
        assert all(a < b for a, b in slices)
        sizes = [b - a for a, b in slices]
        assert max(sizes) - min(sizes) <= 1

    def test_shards_clamped_to_frames(self):
        assert len(time_slices(3, shards=8)) == 3

    def test_default_whole_range(self):
        assert time_slices(7) == [(0, 7)]

    def test_window_and_shards_conflict(self):
        with pytest.raises(ValueError):
            time_slices(8, window=2, shards=2)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            time_slices(0)
        with pytest.raises(ValueError):
            time_slices(8, window=0)
        with pytest.raises(ValueError):
            time_slices(8, shards=0)


class TestPlanShards:
    def test_grid_order_and_seeds(self):
        plan = plan_shards("e3sm", variables=[0, 2], shards=2,
                           base_seed=3, t=8, h=12, w=12)
        assert len(plan) == 4
        # variables outermost, time innermost, seeds follow plan order
        assert [(t.variable, t.t0) for t in plan] == \
            [(0, 0), (0, 4), (2, 0), (2, 4)]
        assert [t.seed for t in plan] == \
            [3 + SEED_STRIDE * i for i in range(4)]

    def test_stable_ids(self):
        plan = plan_shards("s3d", variables=[1], shards=2, t=8,
                           h=12, w=12, seed=4)
        assert [t.shard_id for t in plan] == \
            ["s3d/s4/v1/t0000-0004", "s3d/s4/v1/t0004-0008"]

    def test_replanning_is_deterministic(self):
        a = plan_shards("jhtdb", shards=3, t=9, h=12, w=12)
        b = plan_shards("jhtdb", shards=3, t=9, h=12, w=12)
        assert a.tasks == b.tasks

    def test_accepts_spec_and_instance(self):
        spec = get_dataset_spec("e3sm", t=8, h=12, w=12)
        from_spec = plan_shards(spec, variables=[0], shards=2)
        from_inst = plan_shards(get_dataset("e3sm", t=8, h=12, w=12),
                                variables=[0], shards=2)
        assert from_spec.tasks == from_inst.tasks

    def test_default_variables_cover_dataset(self):
        plan = plan_shards("jhtdb", t=6, h=12, w=12)
        assert plan.variables == (0, 1, 2)

    def test_variable_out_of_range(self):
        with pytest.raises(ValueError):
            plan_shards("e3sm", variables=[99], t=6, h=12, w=12)

    def test_materialize_matches_direct_generation(self):
        plan = plan_shards("s3d", variables=[1], shards=2, t=8,
                           h=12, w=12, seed=6)
        frames = get_dataset("s3d", t=8, h=12, w=12, seed=6).frames(1)
        for task in plan:
            np.testing.assert_array_equal(task.materialize(),
                                          frames[task.t0:task.t1])

    def test_tasks_are_picklable_and_small(self):
        plan = plan_shards("e3sm", shards=4, t=8, h=12, w=12)
        blob = pickle.dumps(plan.tasks)
        assert len(blob) < 4096
        clone = pickle.loads(blob)
        np.testing.assert_array_equal(clone[0].materialize(),
                                      plan[0].materialize())

    def test_total_frames(self):
        plan = plan_shards("e3sm", variables=[0, 1], shards=3,
                           t=10, h=12, w=12)
        assert plan.total_frames() == 20


class TestShardArchive:
    def _entries(self):
        rng = np.random.default_rng(0)
        arrays = [rng.normal(size=(3, 4, 4)), rng.normal(size=(2, 4, 4))]
        entries = [
            ShardEntry("d/s0/v0/t0000-0003", 0, 0, 3, b"payload-a"),
            ShardEntry("d/s0/v0/t0003-0005", 0, 3, 5, b"payload-bb"),
        ]
        return entries, arrays

    def test_pack_unpack_roundtrip(self):
        entries, _ = self._entries()
        data = pack_shard_archive(entries)
        assert is_shard_archive(data)
        got = [ShardEntry(m.key, m.variable, m.t0, m.t1, payload)
               for m, _, payload in read_members(data)]
        assert got == entries

    def test_assemble_single_variable(self):
        entries, arrays = self._entries()
        out = assemble_shards(entries, arrays)
        assert out.shape == (5, 4, 4)
        np.testing.assert_array_equal(out[:3], arrays[0])
        np.testing.assert_array_equal(out[3:], arrays[1])

    def test_assemble_multi_variable(self):
        rng = np.random.default_rng(1)
        arrays = [rng.normal(size=(2, 4, 4)) for _ in range(2)]
        entries = [ShardEntry("x/v0", 0, 0, 2, b""),
                   ShardEntry("x/v3", 3, 0, 2, b"")]
        out = assemble_shards(entries, arrays)
        assert out.shape == (2, 2, 4, 4)
        np.testing.assert_array_equal(out[1], arrays[1])

    def test_assemble_rejects_gaps_and_overlaps(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError, match="gap"):
            assemble_shards([ShardEntry("x", 0, 1, 3, b"")],
                            [rng.normal(size=(2, 4, 4))])
        entries = [ShardEntry("a", 0, 0, 2, b""),
                   ShardEntry("b", 0, 1, 3, b"")]
        arrays = [rng.normal(size=(2, 4, 4))] * 2
        with pytest.raises(ValueError, match="overlap"):
            assemble_shards(entries, arrays)

    def test_truncated_archive_detected(self):
        entries, _ = self._entries()
        from repro.pipeline.container import ArchiveIndexError
        from repro.pipeline.plan import read_shard_index
        indexed = pack_shard_archive(entries)
        # clipping the tail eats the footer; the index reader notices
        with pytest.raises(ArchiveIndexError):
            read_shard_index(indexed[:-3])
        # a legacy v1 archive has no footer: clipping its tail
        # truncates the last member, which the scan notices
        from .test_legacy_archives import legacy_archive
        with pytest.raises(ArchiveIndexError, match="truncated"):
            read_shard_index(legacy_archive("shrd-v1-szlike")[:-3])

    def test_not_an_archive(self):
        assert not is_shard_archive(b"CDX1whatever")
        with pytest.raises(ValueError):
            read_shard_index(b"nope")
