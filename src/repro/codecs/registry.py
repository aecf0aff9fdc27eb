"""Decorator-based codec registry.

Every compressor family registers itself under a short stable name::

    @register_codec("szlike")
    class SZCodec(RuleBasedCodec):
        ...

and callers obtain ready instances through :func:`get_codec`::

    codec = get_codec("szlike")
    result = codec.compress(frames, bound)

The registry is the single source of truth the CLI (``repro codecs``,
``--codec NAME``), the execution engine, the benchmark drivers and the
contract tests iterate over — adding a new codec is one decorated class,
everything downstream picks it up automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Type

from .base import Codec

__all__ = ["register_codec", "get_codec", "codec_class", "list_codecs",
           "codec_specs", "as_codec", "codec_from_spec", "CodecSpec"]


@dataclass(frozen=True)
class CodecSpec:
    """One registry entry: class plus default construction kwargs."""

    name: str
    cls: Type[Codec]
    defaults: Mapping[str, Any] = field(default_factory=dict)

    def build(self, **kwargs) -> Codec:
        merged = {**self.defaults, **kwargs}
        return self.cls(**merged)


_REGISTRY: Dict[str, CodecSpec] = {}


def _canonical(name: str) -> str:
    return name.strip().lower().replace("_", "-")


def register_codec(name: str, **defaults) -> Callable[[Type[Codec]],
                                                      Type[Codec]]:
    """Class decorator: register ``cls`` under ``name``.

    ``defaults`` are constructor kwargs applied by :func:`get_codec`
    unless overridden by the caller.
    """
    key = _canonical(name)

    def deco(cls: Type[Codec]) -> Type[Codec]:
        if key in _REGISTRY:
            raise ValueError(f"codec {key!r} is already registered "
                             f"(by {_REGISTRY[key].cls.__name__})")
        if not issubclass(cls, Codec):
            raise TypeError(f"{cls.__name__} does not implement Codec")
        cls.codec_id = key
        _REGISTRY[key] = CodecSpec(name=key, cls=cls, defaults=defaults)
        return cls

    return deco


def _entry(name: str) -> CodecSpec:
    spec = _REGISTRY.get(_canonical(name))
    if spec is None:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(f"unknown codec {name!r}; registered: {known}")
    return spec


def get_codec(name: str, **kwargs) -> Codec:
    """Instantiate the codec registered under ``name``.

    ``kwargs`` override the registered defaults and are passed to the
    codec's constructor (e.g. model configs for learned codecs).
    """
    return _entry(name).build(**kwargs)


def codec_class(name: str) -> Type[Codec]:
    """The class registered under ``name``, without building it.

    Accepts every spelling :func:`get_codec` does (case, ``_`` for
    ``-``); its ``codec_id`` is the canonical name.
    """
    return _entry(name).cls


def list_codecs() -> List[str]:
    """Sorted names of every registered codec."""
    return sorted(_REGISTRY)


def codec_specs() -> Dict[str, CodecSpec]:
    """Snapshot of the registry (name -> spec)."""
    return dict(_REGISTRY)


def codec_from_spec(spec: Mapping[str, Any]) -> Codec:
    """Rebuild a codec from its :meth:`Codec.to_spec` recipe.

    The construction is deterministic (stateless codecs trivially;
    learned codecs seed their weight init from the config), so a spec
    shipped to a process-pool worker rebuilds a codec whose streams are
    bit-identical to the parent's.  Specs carrying an ``artifact``
    reference rebuild *trained* codecs: the untrained codec is
    constructed from the artifact's manifest and its persisted state
    is restored (see :mod:`repro.pipeline.artifacts`), so trained
    models sweep through process pools exactly like model-free codecs.
    """
    artifact = spec.get("artifact")
    if artifact is not None:
        from ..pipeline.artifacts import load_artifact
        codec = load_artifact(artifact)
        if codec.codec_id != spec["codec"]:
            raise ValueError(
                f"artifact {artifact!r} holds codec "
                f"{codec.codec_id!r}, but the spec names "
                f"{spec['codec']!r}")
        return codec
    return get_codec(spec["codec"], **dict(spec.get("params", {})))


def as_codec(obj) -> Codec:
    """Coerce ``obj`` to a :class:`Codec`.

    Accepts a codec instance (returned as-is), a registry name, or a
    native compressor object of any registered codec class (wrapped via
    the class's ``wrap`` hook) — e.g. a trained
    ``LatentDiffusionCompressor`` or a ``SZLikeCompressor``.
    """
    if isinstance(obj, Codec):
        return obj
    if isinstance(obj, str):
        return get_codec(obj)
    for spec in _REGISTRY.values():
        wrapped = spec.cls.wrap(obj) if hasattr(spec.cls, "wrap") else None
        if wrapped is not None:
            return wrapped
    raise TypeError(f"cannot interpret {type(obj).__name__} as a codec; "
                    f"pass a Codec, a registered name, or a native "
                    f"compressor of a registered codec")
