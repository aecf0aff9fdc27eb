"""Compressed-stream container and binary serialization.

A :class:`CompressedBlob` holds everything the decompressor needs:

* global geometry and pipeline settings (window length, keyframe
  strategy/interval, sampler settings, noise seed),
* per-frame normalization constants (float32 mean/range pairs),
* **one** entropy-coded latent stream and **one** hyper-latent stream
  covering the keyframes of *all* temporal windows — batching the
  windows into a single arithmetic-coded stream amortizes coder
  termination and header costs that per-window streams would pay
  ``n_windows`` times over,
* the optional error-bound payload ``G``.

Window origins are not stored: they are a pure function of ``(T,
window)`` (see :func:`repro.pipeline.compressor.window_starts`), so the
decoder re-derives them.

Streams written with a non-default entropy backend (see
:mod:`repro.entropy.backend`) bump the container to version 3, which
inserts the backend's one-byte wire tag after the fixed header; the
decoder self-selects the right coder from it.  Arithmetic-coded blobs
keep the version-2 layout byte-for-byte, and version-2 readers of this
class never see a tag — untagged means arithmetic.

``to_bytes``/``from_bytes`` implement a compact binary format — the
length of :meth:`CompressedBlob.to_bytes` is exactly the
``Size(L) + Size(G)`` denominator of Eq. 11, headers included, so all
compression ratios in this repo are honest end-to-end numbers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["CompressedBlob"]

_MAGIC = b"LDCB"
_VERSION = 2
#: version 3 == version 2 plus a one-byte entropy-backend tag; only
#: written when the backend is not the arithmetic default
_VERSION_TAGGED = 3
_DEFAULT_ENTROPY = "arithmetic"


@dataclass
class CompressedBlob:
    """Full compressed representation of a ``(T, H, W)`` frame stack."""

    shape: Tuple[int, int, int]
    window: int
    keyframe_strategy: str
    keyframe_interval: int
    sampler: str
    sample_steps: int
    noise_seed: int
    frame_norms: np.ndarray           # (T, 2) float32: mean, range
    y_stream: bytes = b""
    z_stream: bytes = b""
    y_header: Dict[str, int] = field(default_factory=lambda: {"L": 1})
    z_header: Dict[str, int] = field(
        default_factory=lambda: {"zmin": 0, "zmax": 0})
    y_shape: Tuple[int, int, int, int] = (0, 0, 0, 0)  # (K_total, C, h, w)
    z_shape: Tuple[int, int, int, int] = (0, 0, 0, 0)
    bound_payload: bytes = b""
    #: entropy backend both latent streams were coded with
    entropy_backend: str = _DEFAULT_ENTROPY

    # ------------------------------------------------------------------
    def latent_bytes(self) -> int:
        """Size(L): every byte except the error-bound payload."""
        return len(self.to_bytes()) - len(self.bound_payload)

    def guarantee_bytes(self) -> int:
        """Size(G): the coded PCA correction."""
        return len(self.bound_payload)

    def total_bytes(self) -> int:
        return len(self.to_bytes())

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        T, H, W = self.shape
        strategy = self.keyframe_strategy.encode()
        sampler = self.sampler.encode()
        norms = np.asarray(self.frame_norms, dtype="<f4")
        if norms.shape != (T, 2):
            raise ValueError(f"frame_norms must be ({T}, 2), "
                             f"got {norms.shape}")
        version = (_VERSION if self.entropy_backend == _DEFAULT_ENTROPY
                   else _VERSION_TAGGED)
        parts = [_MAGIC, struct.pack(
            "<BIIIIBIIq", version, T, H, W, self.window,
            len(strategy), self.keyframe_interval, self.sample_steps,
            self.noise_seed)]
        if version == _VERSION_TAGGED:
            from ..entropy.backend import get_backend
            parts.append(struct.pack("<B",
                                     get_backend(self.entropy_backend).tag))
        parts.append(strategy)
        parts.append(struct.pack("<B", len(sampler)))
        parts.append(sampler)
        parts.append(norms.tobytes())
        parts.append(struct.pack(
            "<IIII IIII i i i",
            *self.y_shape, *self.z_shape,
            int(self.y_header["L"]),
            int(self.z_header["zmin"]), int(self.z_header["zmax"])))
        parts.append(struct.pack("<I", len(self.y_stream)))
        parts.append(self.y_stream)
        parts.append(struct.pack("<I", len(self.z_stream)))
        parts.append(self.z_stream)
        parts.append(struct.pack("<I", len(self.bound_payload)))
        parts.append(self.bound_payload)
        return b"".join(parts)

    # ------------------------------------------------------------------
    @classmethod
    def from_bytes(cls, data: bytes) -> "CompressedBlob":
        if data[:4] != _MAGIC:
            raise ValueError("not a compressed blob (bad magic)")
        fmt = "<BIIIIBIIq"
        version, T, H, W, window, slen, interval, steps, seed = (
            struct.unpack_from(fmt, data, 4))
        if version not in (_VERSION, _VERSION_TAGGED):
            raise ValueError(f"unsupported blob version {version}")
        pos = 4 + struct.calcsize(fmt)
        entropy_backend = _DEFAULT_ENTROPY
        if version == _VERSION_TAGGED:
            from ..entropy.backend import backend_from_tag
            entropy_backend = backend_from_tag(data[pos]).name
            pos += 1
        strategy = data[pos:pos + slen].decode()
        pos += slen
        splen, = struct.unpack_from("<B", data, pos)
        pos += 1
        sampler = data[pos:pos + splen].decode()
        pos += splen
        norms = np.frombuffer(data, dtype="<f4", count=2 * T,
                              offset=pos).reshape(T, 2).astype(np.float64)
        pos += 8 * T
        fmt2 = "<IIII IIII i i i"
        vals = struct.unpack_from(fmt2, data, pos)
        pos += struct.calcsize(fmt2)
        y_shape, z_shape = tuple(vals[:4]), tuple(vals[4:8])
        L, zmin, zmax = vals[8], vals[9], vals[10]

        def take_stream(pos: int) -> Tuple[bytes, int]:
            n, = struct.unpack_from("<I", data, pos)
            pos += 4
            payload = data[pos:pos + n]
            if len(payload) != n:
                raise ValueError("truncated blob: stream incomplete")
            return payload, pos + n

        y_stream, pos = take_stream(pos)
        z_stream, pos = take_stream(pos)
        bound_payload, pos = take_stream(pos)
        y_header: Dict[str, object] = {"L": L}
        z_header: Dict[str, object] = {"zmin": zmin, "zmax": zmax}
        if entropy_backend != _DEFAULT_ENTROPY:
            y_header["backend"] = entropy_backend
            z_header["backend"] = entropy_backend
        return cls(shape=(T, H, W), window=window,
                   keyframe_strategy=strategy, keyframe_interval=interval,
                   sampler=sampler, sample_steps=steps, noise_seed=seed,
                   frame_norms=norms, y_stream=y_stream, z_stream=z_stream,
                   y_header=y_header, z_header=z_header,
                   y_shape=y_shape, z_shape=z_shape,
                   bound_payload=bound_payload,
                   entropy_backend=entropy_backend)

    # ------------------------------------------------------------------
    def streams_dict(self) -> Dict:
        """Bundle in the format ``VAEHyperprior.decompress_latents`` takes."""
        return {"y_stream": self.y_stream, "y_header": self.y_header,
                "z_stream": self.z_stream, "z_header": self.z_header,
                "y_shape": self.y_shape, "z_shape": self.z_shape,
                "entropy_backend": self.entropy_backend}
