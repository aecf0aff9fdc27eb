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
module-level *default* backend is what encoders use when no explicit
choice is passed — ``Session(entropy_backend=...)`` and the CLI's
``--entropy-backend`` flag scope it with :func:`using_backend`, and
process-pool workers receive it per job, so sweeps stay byte-identical
across executors.

Adding a coder (t-ANS variants, GPU backends) means subclassing
:class:`EntropyBackend`, picking an unused tag, and calling
:func:`register_backend`; everything above the entropy layer picks it
up by name.
"""

from __future__ import annotations

import threading
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterator, List, Union

import numpy as np

from . import coder as _coder
from . import rans as _rans
from . import tablecoder as _tablecoder
from . import vrans as _vrans

__all__ = ["EntropyBackend", "register_backend", "get_backend",
           "backend_from_tag", "list_backends", "DEFAULT_BACKEND",
           "LEGACY_TAG", "get_default_backend", "set_default_backend",
           "using_backend"]

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
    current default)."""
    if backend is None:
        return _BACKENDS[_default_name]
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

#: Process-wide default state.  Deliberately process-global (not
#: thread-local): the engine's and multivar's thread pools must see
#: the selection made by the driving thread.  ``_base_name`` is the
#: default outside every :func:`using_backend` scope; ``_scopes``
#: reference-counts the active scope values so concurrent same-name
#: scopes (one per engine window job) enter and exit in any order
#: without restoring stale state or leaking their value after the
#: last exit.
_state_lock = threading.Lock()
_base_name = DEFAULT_BACKEND
_scopes: Counter = Counter()
_default_name = DEFAULT_BACKEND


def _recompute_default() -> None:
    """Resolve the current default from base + active scopes.

    Caller holds ``_state_lock``.  With scopes of exactly one name
    active, that name wins; with none, the base does.  Two *distinct*
    names concurrently active is an application race (two sessions
    with different backends sharing one process) — the most recently
    entered scope stays in effect until the ambiguity resolves.
    """
    global _default_name
    if len(_scopes) == 1:
        _default_name = next(iter(_scopes))
    elif not _scopes:
        _default_name = _base_name


def get_default_backend() -> EntropyBackend:
    """The backend encoders use when none is passed explicitly."""
    return _BACKENDS[_default_name]


def set_default_backend(backend: Union[str, EntropyBackend, None]
                        ) -> str:
    """Set the process-wide base default; returns the previous name
    (``None`` resets to ``arithmetic``).  Scopes opened by
    :func:`using_backend` take precedence while active."""
    global _base_name
    name = (DEFAULT_BACKEND if backend is None
            else get_backend(backend).name)
    with _state_lock:
        previous = _base_name
        _base_name = name
        _recompute_default()
    return previous


@contextmanager
def using_backend(backend: Union[str, EntropyBackend, None]
                  ) -> Iterator[EntropyBackend]:
    """Scope the default backend; ``None`` leaves it untouched.

    This is how :class:`repro.api.Session` threads
    ``entropy_backend=...`` through codec code that never heard of
    backends (every baseline funnels through
    :func:`repro.postprocess.coding.encode_ints`).  Scopes are
    reference-counted, so the engine's thread pools may hold one scope
    per concurrent window job (same name) and exit them in any order.
    """
    if backend is None:
        yield get_default_backend()
        return
    global _default_name
    name = get_backend(backend).name
    with _state_lock:
        _scopes[name] += 1
        _default_name = name  # most recent entry wins immediately
    try:
        yield _BACKENDS[name]
    finally:
        with _state_lock:
            _scopes[name] -= 1
            if not _scopes[name]:
                del _scopes[name]
            _recompute_default()
