"""Learned codecs: CDC (eps/X), GCD and VAE-SR under the Codec contract.

The learned baselines historically had *no* decompressor: ``compress``
simulated the reconstruction in-process and returned a result object,
so nothing could be archived or decoded later.  The codec layer fixes
that by serializing everything the decode needs into a self-contained
payload:

``LCS1 | T H W | seed | n_streams | VAE stream bundles | frame norms |
bound payload``

``decompress`` replays the baseline's ``_decode`` path (entropy-decode
the per-frame/group latents, run the learned decoder with the stored
seed), denormalizes with the stored constants and applies the coded
error-bound correction — reproducing the compression-time
reconstruction exactly.

The native bound of every learned codec is the absolute L2 ``tau`` of
the PCA corrector (Sec. 3.5), i.e. ``bound_kind == "l2"``.
"""

from __future__ import annotations

import struct
import time
from typing import Dict, List, Optional

import numpy as np

from ..baselines import (CDCCompressor, GCDCompressor, VAESRCompressor)
from ..baselines.common import (HEADER_BYTES, denormalize_frames,
                                normalize_frames, stream_bytes)
from ..config import DiffusionConfig, VAEConfig
from ..metrics import CompressionAccounting, nrmse
from .base import Codec, CodecCapabilities, CodecResult
from .registry import register_codec

__all__ = ["LearnedCodec", "CDCEpsCodec", "CDCXCodec", "GCDCodec",
           "VAESRCodec"]

_MAGIC = b"LCS1"
_HDR = "<IIIq"  # T, H, W, seed

#: Default architectures sized like the test/tiny presets, so
#: ``get_codec("cdc-eps")`` yields a trainable codec out of the box.
DEFAULT_VAE1 = VAEConfig(in_channels=1, latent_channels=4, base_filters=8,
                         num_down=2, hyper_filters=4, kernel_size=3)
DEFAULT_VAE3 = VAEConfig(in_channels=3, latent_channels=4, base_filters=8,
                         num_down=2, hyper_filters=4, kernel_size=3)
DEFAULT_DIFF = DiffusionConfig(latent_channels=4, base_channels=8,
                               channel_mults=(1, 2), time_embed_dim=16,
                               num_frames=6, train_steps=8,
                               finetune_steps=2, num_groups=2)


# ----------------------------------------------------------------------
# VAE stream-bundle (de)serialization
# ----------------------------------------------------------------------
_STREAM_HDR = "<IIII IIII i i i"  # y_shape, z_shape, L, zmin, zmax


def _pack_streams(streams: Dict) -> bytes:
    parts = [struct.pack(
        _STREAM_HDR, *streams["y_shape"], *streams["z_shape"],
        int(streams["y_header"]["L"]),
        int(streams["z_header"]["zmin"]),
        int(streams["z_header"]["zmax"]))]
    for key in ("y_stream", "z_stream"):
        parts.append(struct.pack("<I", len(streams[key])))
        parts.append(streams[key])
    return b"".join(parts)


def _unpack_streams(data: bytes, pos: int):
    vals = struct.unpack_from(_STREAM_HDR, data, pos)
    pos += struct.calcsize(_STREAM_HDR)
    streams = {"y_shape": tuple(vals[:4]), "z_shape": tuple(vals[4:8]),
               "y_header": {"L": vals[8]},
               "z_header": {"zmin": vals[9], "zmax": vals[10]}}
    for key in ("y_stream", "z_stream"):
        n, = struct.unpack_from("<I", data, pos)
        pos += 4
        payload = data[pos:pos + n]
        if len(payload) != n:
            raise ValueError("truncated learned-codec stream")
        streams[key] = payload
        pos += n
    return streams, pos


class LearnedCodec(Codec):
    """Shared compress/decompress plumbing for the learned baselines."""

    capabilities = CodecCapabilities(bound_kind="l2", needs_training=True,
                                    learned=True)
    impl_cls = None

    def __init__(self, impl=None, **impl_kwargs):
        if impl is not None and impl_kwargs:
            raise ValueError("give either impl or constructor kwargs")
        if impl is None:
            # spec-portable: configs are plain dataclasses and weight
            # init is seeded, so from_spec rebuilds bit-identically
            # (valid until train()/fit_corrector() mutate the model)
            self._spec_params = dict(impl_kwargs)
            # construction recipe for artifact manifests; unlike
            # _spec_params this survives training (the artifact's
            # state arrays carry what training changed)
            self._init_params = dict(impl_kwargs)
        self._impl = impl if impl is not None else self.impl_cls(
            **impl_kwargs)

    @classmethod
    def wrap(cls, obj) -> Optional["LearnedCodec"]:
        if cls.impl_cls is not None and type(obj) is cls.impl_cls:
            return cls(impl=obj)
        return None

    # -- training passthrough ------------------------------------------
    def train(self, windows, **kwargs) -> None:
        """Train the underlying model (kwargs are family-specific)."""
        self._spec_params = None  # trained state is not spec-portable
        self._artifact = None     # ... and any saved artifact is stale
        self._impl.train(windows, **kwargs)

    def fit_corrector(self, windows, **kwargs) -> None:
        self._spec_params = None
        self._artifact = None
        self._impl.fit_corrector(windows, **kwargs)

    # -- trained-state artifacts ----------------------------------------
    def artifact_state(self) -> Dict[str, np.ndarray]:
        """Weights + corrector via the baseline's ``state_dict``."""
        return self._impl.state_dict()

    def load_artifact_state(self, state: Dict[str, np.ndarray]) -> None:
        self._impl.load_state(state)

    # ------------------------------------------------------------------
    def compress(self, frames: np.ndarray, bound: Optional[float] = None,
                 *, seed: int = 0) -> CodecResult:
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 3:
            raise ValueError(f"expected (T, H, W), got {frames.shape}")
        t0 = time.perf_counter()
        norm, norms = normalize_frames(frames)
        recon_norm, streams = self._impl._reconstruct(norm, seed)
        recon = denormalize_frames(recon_norm, norms)

        bound_payload = b""
        if bound is not None:
            if self._impl.corrector is None:
                raise ValueError(
                    f"{self.name} has no fitted corrector; call "
                    f"fit_corrector() before bounded compression")
            res = self._impl.corrector.correct(frames, recon,
                                               float(bound))
            recon = res.corrected
            bound_payload = res.payload

        T, H, W = frames.shape
        parts = [_MAGIC, struct.pack(_HDR, T, H, W, seed),
                 struct.pack("<I", len(streams))]
        parts.extend(_pack_streams(s) for s in streams)
        parts.append(np.asarray(norms, dtype="<f4").tobytes())
        parts.append(struct.pack("<I", len(bound_payload)))
        parts.append(bound_payload)
        payload = b"".join(parts)
        seconds = time.perf_counter() - t0

        # keep byte parity with the legacy BaselineResult accounting:
        # coded streams + fixed header charge + normalization constants
        coded = sum(stream_bytes(s) for s in streams)
        acc = CompressionAccounting(
            original_bytes=frames.size * self._impl.original_dtype_bytes,
            latent_bytes=coded + HEADER_BYTES + norms.size * 4,
            guarantee_bytes=len(bound_payload))
        return CodecResult(codec=self.name, payload_bytes=payload,
                           reconstruction=recon, accounting=acc,
                           achieved_nrmse=nrmse(frames, recon),
                           seed=seed, encode_seconds=seconds)

    # ------------------------------------------------------------------
    def decompress(self, payload: bytes) -> np.ndarray:
        if payload[:4] != _MAGIC:
            raise ValueError(f"not a {self.name} stream (bad magic)")
        T, H, W, seed = struct.unpack_from(_HDR, payload, 4)
        pos = 4 + struct.calcsize(_HDR)
        n_streams, = struct.unpack_from("<I", payload, pos)
        pos += 4
        streams: List[Dict] = []
        for _ in range(n_streams):
            s, pos = _unpack_streams(payload, pos)
            streams.append(s)
        norms = np.frombuffer(payload, dtype="<f4", count=2 * T,
                              offset=pos).reshape(T, 2)
        pos += 8 * T
        nb, = struct.unpack_from("<I", payload, pos)
        pos += 4
        bound_payload = payload[pos:pos + nb]
        if len(bound_payload) != nb:
            raise ValueError("truncated learned-codec payload")

        recon_norm = self._impl._decode(streams, T, seed)
        recon = denormalize_frames(recon_norm, norms)
        if bound_payload:
            if self._impl.corrector is None:
                raise ValueError(
                    f"{self.name} stream carries an error-bound payload "
                    f"but no corrector is attached")
            recon = self._impl.corrector.apply(recon, bound_payload)
        return recon


# ----------------------------------------------------------------------
@register_codec("cdc-eps", vae_cfg=DEFAULT_VAE3, diff_cfg=DEFAULT_DIFF)
class CDCEpsCodec(LearnedCodec):
    """CDC with the eps (noise-prediction) parameterization."""

    impl_cls = CDCCompressor

    def __init__(self, impl=None, **impl_kwargs):
        if impl is None:
            impl_kwargs.setdefault("parameterization", "eps")
        super().__init__(impl=impl, **impl_kwargs)

    @classmethod
    def wrap(cls, obj) -> Optional["CDCEpsCodec"]:
        if (type(obj) is CDCCompressor
                and obj.parameterization == "eps"):
            return cls(impl=obj)
        return None


@register_codec("cdc-x", vae_cfg=DEFAULT_VAE3, diff_cfg=DEFAULT_DIFF)
class CDCXCodec(LearnedCodec):
    """CDC with the X (signal-prediction) parameterization."""

    impl_cls = CDCCompressor

    def __init__(self, impl=None, **impl_kwargs):
        if impl is None:
            impl_kwargs.setdefault("parameterization", "x")
        super().__init__(impl=impl, **impl_kwargs)

    @classmethod
    def wrap(cls, obj) -> Optional["CDCXCodec"]:
        if (type(obj) is CDCCompressor
                and obj.parameterization == "x"):
            return cls(impl=obj)
        return None


@register_codec("gcd", vae_cfg=DEFAULT_VAE1, diff_cfg=DEFAULT_DIFF)
class GCDCodec(LearnedCodec):
    """3-D block data-space diffusion (per-window latents)."""

    impl_cls = GCDCompressor

    @property
    def window(self) -> int:
        return self._impl.window

    @property
    def min_frames(self) -> int:
        return self._impl.window


@register_codec("vae-sr", vae_cfg=DEFAULT_VAE1)
class VAESRCodec(LearnedCodec):
    """Every-frame VAE + hyperprior coding with SR refinement."""

    impl_cls = VAESRCompressor
