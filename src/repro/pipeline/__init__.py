"""``repro.pipeline`` — the end-to-end latent-diffusion compressor.

* :mod:`repro.pipeline.blob` — the compressed-stream container and its
  binary (de)serialization, whose byte length is what Eq. 11 counts;
* :mod:`repro.pipeline.compressor` —
  :class:`~repro.pipeline.compressor.LatentDiffusionCompressor`, the
  public compress/decompress API;
* :mod:`repro.pipeline.training` — the two-stage training protocol of
  Sec. 3.4 plus few-step fine-tuning and corrector fitting;
* :mod:`repro.pipeline.artifacts` — the one way to save and load a
  trained model, of any trainable codec (the paper's pipeline
  included): single-file artifacts and a content-addressed
  :class:`~repro.pipeline.artifacts.ArtifactStore`, with provenance
  manifests and spec-portability for process-pool sweeps;
* :mod:`repro.pipeline.engine` — the batched parallel execution engine
  that runs any registered codec over windows/variables with
  deterministic seeding (the shard and variable seed strides) and
  per-window accounting, dispatching every batch through one
  :class:`repro.runtime.TaskRuntime` (serial / thread / process mode);
* :mod:`repro.pipeline.plan` — the deterministic shard planner turning
  ``dataset x variables x window`` grids into picklable
  :class:`~repro.pipeline.plan.ShardTask` lists, plus the shard
  archive, the one container written for every multi-member archive
  (shards, variable mappings, stream chunks);
* :mod:`repro.pipeline.container` — the seekable footer index of the
  shard archive (member byte extents + CRC-32 checksums, byte sources,
  the counting reader used to assert partial-decode I/O);
* :mod:`repro.pipeline.legacy` — read-only index rows for the
  ``LDMV``/``LDSA``/``SHRD`` v1 layouts of earlier releases;
* :mod:`repro.pipeline.sources` — the parts ``Session.compress`` cuts
  its sources into: bounded-memory stack sources (``.npy`` / array
  adapters) feeding chunked out-of-core ingestion, the per-variable
  stacks of a mapping, and the sealed chunks of a frame stream.
"""

from .artifacts import (ArtifactManifest, ArtifactStore, is_artifact,
                        load_artifact, read_manifest, save_artifact)
from .blob import CompressedBlob
from .compressor import CompressionResult, LatentDiffusionCompressor
from .container import (ArchiveIndexError, BufferSource, CountingReader,
                        FileObjSource, FileSource, MemberIndex,
                        as_source, read_index, verify_member)
from .engine import BatchResult, CodecEngine, WindowReport
from .plan import (ShardEntry, ShardPlan, ShardTask, assemble_shards,
                   assemble_window, is_shard_archive,
                   pack_shard_archive, plan_shards, read_members,
                   read_shard_index, time_slices)
from .sources import ArrayStackSource, NpyStackSource, as_stack_source
from .training import TrainingConfig, TwoStageTrainer

__all__ = [
    "CompressedBlob", "LatentDiffusionCompressor",
    "CompressionResult", "TwoStageTrainer", "TrainingConfig",
    "CodecEngine", "BatchResult", "WindowReport",
    "ArtifactStore", "ArtifactManifest", "save_artifact",
    "load_artifact", "read_manifest", "is_artifact",
    "ShardTask", "ShardPlan", "ShardEntry", "plan_shards",
    "time_slices", "pack_shard_archive", "is_shard_archive",
    "assemble_shards", "assemble_window", "read_shard_index",
    "read_members",
    "ArchiveIndexError", "MemberIndex", "BufferSource", "FileSource",
    "FileObjSource", "CountingReader", "as_source", "read_index",
    "verify_member",
    "NpyStackSource", "ArrayStackSource", "as_stack_source",
]
