"""Multi-variable dataset compression.

The paper's datasets bundle several physical variables (E3SM: 5 climate
variables; S3D: 58 species; Table 1), each compressed as its own
``(T, H, W)`` stack.  This module drives *any registered codec* across
a ``(V, T, H, W)`` array (or a mapping of named variables) and
aggregates the Eq. 11 accounting over all variables.
:class:`repro.api.Session` writes the results as one shard archive
with a named member per variable.

A single codec is shared across variables by default — the per-frame
normalization (Sec. 4.3) maps every variable into the same
zero-mean/unit-range domain the model was trained on.  A per-variable
mapping can be supplied when variables differ enough to merit dedicated
models.  Accepted codec descriptions (normalized via
:func:`repro.codecs.as_codec`): a :class:`~repro.codecs.base.Codec`, a
registry name (``"szlike"``), or a native compressor such as a trained
:class:`~repro.pipeline.compressor.LatentDiffusionCompressor`.

Variables are independent, so compression fans out over a thread-mode
:class:`~repro.runtime.TaskRuntime` (``max_workers``) with the
deterministic per-variable seeding the serial path used — results are
bit-identical either way.  :meth:`MultiVariableCompressor.decompress`
decodes with per-variable codecs; it reads members through
:func:`~repro.pipeline.plan.read_members`, as ``Session.decompress``
does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from ..bound import Bound
from ..entropy.backend import get_default_backend, using_backend
from ..metrics import CompressionAccounting
from ..runtime import TaskRuntime
from .compressor import LatentDiffusionCompressor
from .plan import read_members

__all__ = ["MultiVarResult", "MultiVariableCompressor"]

#: per-variable seed stride (prime; historical value kept so archives
#: produced by older revisions stay reproducible)
VAR_SEED_STRIDE = 104729


@dataclass
class MultiVarResult:
    """Per-variable codec results plus dataset-level accounting."""

    results: Dict[str, "object"]   # name -> CodecResult

    @property
    def variables(self) -> List[str]:
        return list(self.results)

    def accounting(self) -> CompressionAccounting:
        return CompressionAccounting(
            original_bytes=sum(r.accounting.original_bytes
                               for r in self.results.values()),
            latent_bytes=sum(r.accounting.latent_bytes
                             for r in self.results.values()),
            guarantee_bytes=sum(r.accounting.guarantee_bytes
                                for r in self.results.values()))

    @property
    def ratio(self) -> float:
        return self.accounting().ratio

    def worst_nrmse(self) -> float:
        return max(r.achieved_nrmse for r in self.results.values())


CodecLike = Union[LatentDiffusionCompressor, str, "object"]


class MultiVariableCompressor:
    """Compress/decompress a set of variables with shared or dedicated
    codecs.

    Parameters
    ----------
    compressor:
        One shared codec description, or a mapping ``variable name ->
        codec description`` (every variable to be compressed must then
        have an entry).  See the module docstring for accepted forms.
    max_workers:
        Worker threads for per-variable fan-out (1 = serial; results
        are bit-identical regardless).
    """

    def __init__(self, compressor: Union[CodecLike,
                                         Mapping[str, CodecLike]],
                 max_workers: int = 1):
        from ..codecs import as_codec
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self._executor = TaskRuntime(mode="thread",
                                     max_workers=max_workers,
                                     name="repro-multivar")
        self._shared = None
        self._per_var: Dict[str, "object"] = {}
        if isinstance(compressor, Mapping):
            if not compressor:
                raise ValueError("empty compressor mapping")
            self._per_var = {str(k): as_codec(v)
                             for k, v in compressor.items()}
        else:
            self._shared = as_codec(compressor)

    def _for(self, name: str):
        if self._shared is not None:
            return self._shared
        try:
            return self._per_var[name]
        except KeyError:
            raise KeyError(f"no codec for variable {name!r}") from None

    # ------------------------------------------------------------------
    def compress(self, data: Union[np.ndarray, Mapping[str, np.ndarray]],
                 names: Optional[Sequence[str]] = None,
                 error_bound: Optional[float] = None,
                 nrmse_bound: Optional[float] = None,
                 noise_seed: int = 0,
                 bound: Optional[Bound] = None) -> MultiVarResult:
        """Compress every variable.

        ``data`` is either a ``(V, T, H, W)`` array (variables named
        ``names`` or ``var0..var{V-1}``) or an explicit name→stack
        mapping.  Bounds apply per variable — a first-class ``bound``
        (:class:`~repro.bound.Bound`) or the legacy ``error_bound``
        (absolute L2 tau) / ``nrmse_bound`` kwargs; either way each
        variable normalizes against its own statistics.
        """
        target = Bound.coalesce(bound=bound, error_bound=error_bound,
                                nrmse_bound=nrmse_bound)
        stacks = self._as_mapping(data, names)
        # resolve codecs eagerly so a missing mapping entry raises
        # before any work is scheduled
        jobs = [(vi, name, stack, self._for(name))
                for vi, (name, stack) in enumerate(stacks.items())]
        # the entropy-backend selection is per thread: carry the
        # caller's into every worker
        backend = get_default_backend()

        def task(job):
            vi, name, stack, codec = job
            with using_backend(backend):
                return name, codec.compress_bounded(
                    stack, bound=target,
                    seed=noise_seed + VAR_SEED_STRIDE * vi)

        results = dict(self._executor.map(task, jobs))
        # the executor preserves order, but rebuild by stack order for
        # deterministic iteration anyway
        return MultiVarResult(
            results={name: results[name] for name in stacks})

    def decompress(self, source) -> Dict[str, np.ndarray]:
        """Reconstruct every member of an archive (bytes, a path or a
        seekable handle) as ``{key: array}``, each with its variable's
        configured codec."""
        def task(member):
            row, name, payload = member
            codec = self._for(row.key)
            if (name or "ours") != codec.name:
                raise ValueError(
                    f"variable {row.key!r} was written by codec "
                    f"{name or 'ours'!r} but {codec.name!r} is "
                    f"configured")
            return row.key, codec.decompress(payload)

        return dict(self._executor.map(task, list(read_members(source))))

    # ------------------------------------------------------------------
    @staticmethod
    def _as_mapping(data, names) -> Dict[str, np.ndarray]:
        if isinstance(data, Mapping):
            if names is not None:
                raise ValueError("names only apply to array input")
            return {str(k): np.asarray(v, dtype=np.float64)
                    for k, v in data.items()}
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 4:
            raise ValueError(f"expected (V, T, H, W), got {data.shape}")
        v = data.shape[0]
        if names is None:
            names = [f"var{i}" for i in range(v)]
        if len(names) != v:
            raise ValueError(f"{len(names)} names for {v} variables")
        return {str(n): data[i] for i, n in enumerate(names)}
