"""Compressed-stream container and binary serialization.

A :class:`CompressedBlob` holds everything the decompressor needs:

* global geometry and pipeline settings (window length, keyframe
  strategy/interval, sampler, the chain's step count and the length of
  the noise schedule it was spaced over, noise seed),
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

Version 4 is the one layout written.  After the fixed header it
carries the entropy backend's one-byte wire tag (see
:mod:`repro.entropy.backend`; the decoder self-selects the coder from
it) and the schedule length.  Its ``sample_steps`` is the number of
UNet steps decode runs, at most the schedule length.  Versions 2
(untagged: arithmetic) and 3 (tagged) are read-only.  They record no
schedule: their ``ancestral`` chain is the decoding model's whole
schedule, and ``ddim``/``dpm`` run ``sample_steps`` over it.

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

__all__ = ["CompressedBlob", "VERSION"]

_MAGIC = b"LDCB"
#: the layout written: the v2 fixed header, the entropy backend's tag
#: byte and the schedule length (u32)
VERSION = 4
#: read-only layouts without a schedule length: v2 (untagged,
#: arithmetic) and v3 (a backend tag)
_UNTAGGED, _TAGGED = 2, 3
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
    #: length of the model schedule the sampling chain was spaced over;
    #: ``None`` for a blob read from the v2/v3 layouts, which cannot be
    #: written again
    schedule_steps: Optional[int] = None

    # ------------------------------------------------------------------
    def chain_steps(self) -> Optional[int]:
        """The UNet steps decode runs: ``sample_steps``, or ``None``
        (the decoding model's whole schedule) for a v2/v3 ancestral
        blob."""
        if self.schedule_steps is None and self.sampler == "ancestral":
            return None
        return self.sample_steps

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
        if self.schedule_steps is None:
            raise ValueError("blob records no schedule length (a v2/v3 "
                             "blob is read-only)")
        _check_chain(self.sample_steps, self.schedule_steps)
        from ..entropy.backend import get_backend
        parts = [_MAGIC, struct.pack(
            "<BIIIIBIIq", VERSION, T, H, W, self.window,
            len(strategy), self.keyframe_interval, self.sample_steps,
            self.noise_seed), struct.pack(
            "<BI", get_backend(self.entropy_backend).tag,
            self.schedule_steps)]
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
        if version not in (VERSION, _UNTAGGED, _TAGGED):
            raise ValueError(f"unsupported blob version {version}")
        pos = 4 + struct.calcsize(fmt)
        entropy_backend = _DEFAULT_ENTROPY
        schedule_steps = None
        if version != _UNTAGGED:
            from ..entropy.backend import backend_from_tag
            entropy_backend = backend_from_tag(data[pos]).name
            pos += 1
        if version == VERSION:
            schedule_steps, = struct.unpack_from("<I", data, pos)
            pos += 4
            _check_chain(steps, schedule_steps)
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
                   entropy_backend=entropy_backend,
                   schedule_steps=schedule_steps)

    # ------------------------------------------------------------------
    def streams_dict(self) -> Dict:
        """Bundle in the format ``VAEHyperprior.decompress_latents`` takes."""
        return {"y_stream": self.y_stream, "y_header": self.y_header,
                "z_stream": self.z_stream, "z_header": self.z_header,
                "y_shape": self.y_shape, "z_shape": self.z_shape,
                "entropy_backend": self.entropy_backend}


def _check_chain(sample_steps: int, schedule_steps: int) -> None:
    if not 1 <= sample_steps <= schedule_steps:
        raise ValueError(f"blob names a {sample_steps}-step chain over a "
                         f"{schedule_steps}-step schedule")
