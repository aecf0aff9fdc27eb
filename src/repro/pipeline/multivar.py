"""Multi-variable dataset compression.

The paper's datasets bundle several physical variables (E3SM: 5 climate
variables; S3D: 58 species; Table 1), each compressed as its own
``(T, H, W)`` stack.  :func:`variable_stacks` turns a ``(V, T, H, W)``
array or a mapping of named variables into those stacks, and
:class:`repro.api.Session` compresses them as one ``CodecEngine``
batch on the session's runtime (variable ``i`` seeded
``seed + VAR_SEED_STRIDE * i``), written as one shard archive with a
named member per variable.

:class:`MultiVariableCompressor` holds what a ``Session`` has no slot
for: a per-variable codec table, for variables that differ enough to
merit dedicated models.  A single codec may be shared instead — the
per-frame normalization (Sec. 4.3) maps every variable into the same
zero-mean/unit-range domain the model was trained on.  Accepted codec
descriptions (normalized via :func:`repro.codecs.as_codec`): a
:class:`~repro.codecs.base.Codec`, a registry name (``"szlike"``), or a
native compressor such as a trained
:class:`~repro.pipeline.compressor.LatentDiffusionCompressor`.  Its
``compress`` and ``decompress`` run the variables in order in the
caller's thread, with the seeds ``Session`` uses; ``decompress`` reads
members through :func:`~repro.pipeline.plan.read_members`, as
``Session.decompress`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from ..bound import Bound
from ..metrics import CompressionAccounting
from .compressor import LatentDiffusionCompressor
from .plan import read_members

__all__ = ["MultiVarResult", "MultiVariableCompressor", "variable_stacks"]

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


def variable_stacks(data: Union[np.ndarray, Mapping[str, np.ndarray]],
                    names: Optional[Sequence[str]] = None
                    ) -> Dict[str, np.ndarray]:
    """``{name: (T, H, W) float64 stack}`` in variable order.

    ``data`` is either a ``(V, T, H, W)`` array (variables named
    ``names`` or ``var0..var{V-1}``) or an explicit name→stack mapping
    (``names`` must then be ``None``).
    """
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


class MultiVariableCompressor:
    """Compress/decompress a set of variables with shared or dedicated
    codecs, in order, in the caller's thread.

    Parameters
    ----------
    compressor:
        One shared codec description, or a mapping ``variable name ->
        codec description`` (every variable to be compressed must then
        have an entry).  See the module docstring for accepted forms.
    """

    def __init__(self, compressor: Union[CodecLike,
                                         Mapping[str, CodecLike]]):
        from ..codecs import as_codec
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
                 noise_seed: int = 0,
                 bound: Optional[Bound] = None) -> MultiVarResult:
        """Compress every variable of ``data`` (see
        :func:`variable_stacks`), variable ``i`` seeded ``noise_seed +
        VAR_SEED_STRIDE * i``.  ``bound`` (a
        :class:`~repro.bound.Bound`) applies per variable, each
        normalized against its own statistics.
        """
        stacks = variable_stacks(data, names)
        # resolve codecs eagerly so a missing mapping entry raises
        # before any work is done
        codecs = [self._for(name) for name in stacks]
        return MultiVarResult(results={
            name: codec.compress_bounded(
                stack, bound=bound,
                seed=noise_seed + VAR_SEED_STRIDE * vi)
            for vi, ((name, stack), codec)
            in enumerate(zip(stacks.items(), codecs))})

    def decompress(self, source) -> Dict[str, np.ndarray]:
        """Reconstruct every member of an archive (bytes, a path or a
        seekable handle) as ``{key: array}``, each with its variable's
        configured codec."""
        out = {}
        for row, name, payload in read_members(source):
            codec = self._for(row.key)
            if (name or "ours") != codec.name:
                raise ValueError(
                    f"variable {row.key!r} was written by codec "
                    f"{name or 'ours'!r} but {codec.name!r} is "
                    f"configured")
            out[row.key] = codec.decompress(payload)
        return out
