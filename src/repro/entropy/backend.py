"""Pluggable entropy-coder backends behind one table interface.

Every compressed stream in this repo — factorized hyperprior,
Gaussian-conditional latents, PCA-correction coefficients — reduces to
the same contract: integer symbols coded under per-context cumulative
frequency tables ``(n_contexts, alphabet + 1)``.  This module makes
the coder behind that contract a named, tagged strategy:

``arithmetic``
    The Witten–Neal–Cleary coder (:mod:`repro.entropy.coder`).  The
    historical default: every stream written before backends existed
    is an arithmetic stream, so *untagged* data always decodes through
    it, bit-identically.
``rans``
    Scalar rANS (:mod:`repro.entropy.rans`).  Same compressed size to
    within a fraction of a bit, LIFO symbol order, strict
    end-of-stream verification.
``vrans``
    N-lane interleaved rANS with numpy lane-vectorized state updates
    (:mod:`repro.entropy.vrans`) — the first fast path: lanes replace
    the per-symbol Python loop the other two run.  For ``arithmetic``
    that loop is fused (closed-form renormalization over local
    variables, byte-identical to the streaming classes), yet it still
    takes most of a rule-based codec's compress/decompress: about 90 %
    of the CPU time of an out-of-core ``szlike`` ingest on a 2-vCPU
    x86 VM, against 97 % for the per-call streaming loop.  Learned
    codecs spend their time in ``repro.nn`` instead.
``trans``
    Table-cached LUT rANS (:mod:`repro.entropy.tablecoder`) — fast
    path round 2: per-context slot→symbol lookup tables give O(1)
    symbol decode (no searchsorted, no mixed-total slow path), and a
    process-wide :class:`~repro.entropy.tablecoder.TableCache` reuses
    the rescale/LUT build across the many windows of a stream.

Each backend owns a one-byte wire ``tag`` (> 0) that containers store
in their stream headers so decoders self-select; tag ``0`` is reserved
for untagged legacy streams and resolves to ``arithmetic``.  The
*default* backend — what encoders use when no explicit choice is
passed — is selected per job: :func:`using_backend` sets it in a
context variable, so each thread has its own selection and a new
thread starts at ``arithmetic``.  ``Session(entropy_backend=...)``
and the CLI's ``--entropy-backend`` flag resolve the choice to a name
when they build a job, and every fan-out (engine window jobs,
multi-variable tasks, process-pool workers) carries that name into
the worker and re-enters it there, so concurrent jobs never see each
other's choice and sweeps stay byte-identical across executors.

Adding a coder (t-ANS variants, GPU backends) means subclassing
:class:`EntropyBackend`, picking an unused tag, and calling
:func:`register_backend`; everything above the entropy layer picks it
up by name.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, List, Union

import numpy as np

from . import coder as _coder
from . import rans as _rans
from . import tablecoder as _tablecoder
from . import vrans as _vrans

__all__ = ["EntropyBackend", "register_backend", "get_backend",
           "backend_from_tag", "list_backends", "DEFAULT_BACKEND",
           "LEGACY_TAG", "get_default_backend", "using_backend"]

#: The backend every pre-tag stream was written with; untagged data
#: always decodes through it.
DEFAULT_BACKEND = "arithmetic"

#: Wire tag of untagged legacy streams (resolves to ``arithmetic``).
LEGACY_TAG = 0


class EntropyBackend:
    """One symbol-stream coder behind the shared table contract.

    Subclasses set ``name`` (registry key) and ``tag`` (one wire byte,
    1–255) and implement ``encode`` / ``decode`` over
    ``(symbols, cumulative, contexts)`` exactly like
    :func:`repro.entropy.coder.encode_symbols`.
    """

    name: str = "abstract"
    tag: int = -1

    def encode(self, symbols: np.ndarray, cumulative: np.ndarray,
               contexts: np.ndarray) -> bytes:
        raise NotImplementedError

    def decode(self, data: bytes, cumulative: np.ndarray,
               contexts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<EntropyBackend {self.name!r} tag={self.tag}>"


class ArithmeticBackend(EntropyBackend):
    """Arithmetic coding — the byte-compatible legacy default."""

    name = "arithmetic"
    tag = 1

    def encode(self, symbols, cumulative, contexts):
        return _coder.encode_symbols(symbols, cumulative, contexts)

    def decode(self, data, cumulative, contexts):
        return _coder.decode_symbols(data, cumulative, contexts)


class RansBackend(EntropyBackend):
    """Scalar rANS with strict end-of-stream verification."""

    name = "rans"
    tag = 2

    def encode(self, symbols, cumulative, contexts):
        return _rans.encode_symbols_rans(symbols, cumulative, contexts)

    def decode(self, data, cumulative, contexts):
        return _rans.decode_symbols_rans(data, cumulative, contexts)


class VransBackend(EntropyBackend):
    """Lane-vectorized interleaved rANS — the fast path."""

    name = "vrans"
    tag = 3

    def encode(self, symbols, cumulative, contexts):
        return _vrans.encode_symbols_vrans(symbols, cumulative, contexts)

    def decode(self, data, cumulative, contexts):
        return _vrans.decode_symbols_vrans(data, cumulative, contexts)


class TransBackend(EntropyBackend):
    """Table-cached LUT rANS — O(1) symbol decode, cross-window
    table reuse."""

    name = "trans"
    tag = 4

    def encode(self, symbols, cumulative, contexts):
        return _tablecoder.encode_symbols_trans(symbols, cumulative,
                                                contexts)

    def decode(self, data, cumulative, contexts):
        return _tablecoder.decode_symbols_trans(data, cumulative,
                                                contexts)


_BACKENDS: Dict[str, EntropyBackend] = {}
_BY_TAG: Dict[int, EntropyBackend] = {}


def register_backend(backend: EntropyBackend) -> EntropyBackend:
    """Register a backend instance under its ``name`` and ``tag``."""
    if not backend.name or backend.name == "abstract":
        raise ValueError("backend needs a concrete name")
    if not 1 <= backend.tag <= 255:
        raise ValueError(f"backend tag must be one byte in [1, 255], "
                         f"got {backend.tag}")
    existing = _BACKENDS.get(backend.name)
    if existing is not None and type(existing) is not type(backend):
        raise ValueError(f"backend name {backend.name!r} already taken")
    tagged = _BY_TAG.get(backend.tag)
    if tagged is not None and tagged.name != backend.name:
        raise ValueError(f"backend tag {backend.tag} already taken by "
                         f"{tagged.name!r}")
    _BACKENDS[backend.name] = backend
    _BY_TAG[backend.tag] = backend
    return backend


def list_backends() -> List[str]:
    """Sorted names of every registered entropy backend."""
    return sorted(_BACKENDS)


def get_backend(backend: Union[str, EntropyBackend, None] = None
                ) -> EntropyBackend:
    """Resolve a backend: a name, an instance, or ``None`` (the
    current context's default)."""
    if backend is None:
        return _BACKENDS[_selected.get()]
    if isinstance(backend, EntropyBackend):
        return backend
    key = str(backend).strip().lower()
    resolved = _BACKENDS.get(key)
    if resolved is None:
        known = ", ".join(list_backends())
        raise KeyError(f"unknown entropy backend {backend!r}; "
                       f"registered: {known}")
    return resolved


def backend_from_tag(tag: int) -> EntropyBackend:
    """Resolve a wire tag; ``LEGACY_TAG`` (0) means untagged legacy
    data and resolves to the arithmetic default."""
    if tag == LEGACY_TAG:
        return _BACKENDS[DEFAULT_BACKEND]
    resolved = _BY_TAG.get(tag)
    if resolved is None:
        known = ", ".join(f"{b.tag}={b.name}"
                          for b in _BY_TAG.values())
        raise ValueError(f"unknown entropy-backend tag {tag}; "
                         f"known: 0=legacy/{DEFAULT_BACKEND}, {known}")
    return resolved


register_backend(ArithmeticBackend())
register_backend(RansBackend())
register_backend(VransBackend())
register_backend(TransBackend())

#: Name of the backend encoders use when none is passed explicitly.
#: Context-local, so a selection made in one thread (one service job,
#: one window job) never reaches another; fan-outs carry the name into
#: their jobs and re-enter it with :func:`using_backend`.
_selected: ContextVar[str] = ContextVar("entropy_backend",
                                        default=DEFAULT_BACKEND)


def get_default_backend() -> EntropyBackend:
    """The backend encoders in the current context use when none is
    passed explicitly (``arithmetic`` outside every
    :func:`using_backend` scope)."""
    return _BACKENDS[_selected.get()]


@contextmanager
def using_backend(backend: Union[str, EntropyBackend, None]
                  ) -> Iterator[EntropyBackend]:
    """Select the default backend for the current context.

    This is how :class:`repro.api.Session` threads
    ``entropy_backend=...`` through codec code that never heard of
    backends (every baseline funnels through
    :func:`repro.postprocess.coding.encode_ints`).  The selection is
    per thread: a worker thread starts at ``arithmetic``, so code that
    hands work to other threads must pass the name along and enter
    this scope there.  ``None`` keeps the current selection.
    """
    resolved = get_backend(backend)
    token = _selected.set(resolved.name)
    try:
        yield resolved
    finally:
        _selected.reset(token)
