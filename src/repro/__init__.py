"""repro — reproduction of "Generative Latent Diffusion for Efficient
Spatiotemporal Data Reduction" (Li, Zhu, Rangarajan, Ranka — SC'25).

Public API
----------
The front door is :class:`repro.Session` — one facade over every
pipeline (single stacks, dataset sweeps, multi-variable sets, frame
streams) — together with :class:`repro.Archive` (every container
format behind one loader) and :class:`repro.Bound` (error bounds as
values, not string kwargs):

>>> import numpy as np
>>> from repro import Session, Archive, Bound
>>> frames = np.linspace(0.0, 1.0, 6 * 8 * 8).reshape(6, 8, 8)
>>> with Session(codec="szlike") as session:
...     archive = session.compress(frames, bound=Bound.nrmse(1e-3))
...     restored = session.decompress(archive)
>>> bool(np.max(np.abs(restored - frames)) <= 1e-3)
True
>>> Archive.open(archive.to_bytes()).codecs()
['szlike']

The same ``compress`` call accepts a registered dataset name (sharded
sweep over the session's executor backend), a ``{name: stack}``
mapping (one named member per variable) or a frame iterator
(constant-memory streaming, one member per chunk); every multi-member
result is one shard archive — see :mod:`repro.api`.

Subpackages: :mod:`repro.nn` (NumPy autodiff substrate),
:mod:`repro.entropy` (arithmetic coding + priors),
:mod:`repro.compression` (VAE + hyperprior), :mod:`repro.diffusion`
(conditional latent DDPM), :mod:`repro.postprocess` (error-bound
guarantee), :mod:`repro.pipeline` (end-to-end compressor, engine,
artifact store), :mod:`repro.runtime` (task runtime, sweep journal),
:mod:`repro.baselines`
(SZ3/ZFP/CDC/GCD/VAE-SR analogues), :mod:`repro.data` (synthetic
datasets).
"""

from .config import (DiffusionConfig, PipelineConfig, ReproConfig, VAEConfig,
                     paper, small, tiny)
from .metrics import (CompressionAccounting, compression_ratio,
                      decorrelation_time, mse, nrmse, psnr, rmse, ssim,
                      temporal_autocorrelation)
from .pipeline import (ArtifactManifest, ArtifactStore, BatchResult,
                       CodecEngine, CompressedBlob, CompressionResult,
                       LatentDiffusionCompressor, TrainingConfig,
                       TwoStageTrainer, load_artifact, load_bundle,
                       save_artifact, save_bundle, train_compressor)
from .codecs import (Codec, CodecResult, as_codec, get_codec, list_codecs,
                     register_codec)
from .api import Archive, Bound, Session, SessionError

__version__ = "1.4.0"

__all__ = [
    "Session", "Archive", "Bound", "SessionError",
    "VAEConfig", "DiffusionConfig", "PipelineConfig", "ReproConfig",
    "tiny", "small", "paper",
    "nrmse", "rmse", "mse", "psnr", "ssim", "temporal_autocorrelation",
    "decorrelation_time", "CompressionAccounting", "compression_ratio",
    "LatentDiffusionCompressor", "CompressionResult", "CompressedBlob",
    "TwoStageTrainer", "TrainingConfig", "train_compressor",
    "save_bundle", "load_bundle",
    "ArtifactStore", "ArtifactManifest", "save_artifact", "load_artifact",
    "CodecEngine", "BatchResult",
    "Codec", "CodecResult", "register_codec", "get_codec", "list_codecs",
    "as_codec",
    "__version__",
]
