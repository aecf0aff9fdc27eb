"""Codec-agnostic artifact layer: portable trained-codec state.

Every *untrained* codec is spec-portable (registry → planner →
executor); trained state travels as an artifact, the one way to name,
save and load a trained model of any trainable codec, the paper's
pipeline (``"ours"``) included:

* an **artifact** is one ``.npz`` file holding the codec's trained
  state arrays (``state/<name>``) plus a JSON manifest
  (:class:`ArtifactManifest`) recording the codec name, the untrained
  construction spec, optional training/dataset provenance and a
  SHA-256 state hash;
* :func:`save_artifact` / :func:`load_artifact` are the file-level
  primitives, implemented against the uniform
  :meth:`~repro.codecs.base.Codec.artifact_state` /
  :meth:`~repro.codecs.base.Codec.load_artifact_state` contract every
  trainable codec provides;
* :class:`ArtifactStore` is a content-addressed directory of
  artifacts (``objects/<codec>-<hash16>.npz`` + ``index.json``), so
  trained models move between machines and process-pool workers as
  plain files keyed by what they contain;
* a codec loaded from (or saved to) an artifact carries the artifact
  path in :meth:`~repro.codecs.base.Codec.to_spec`, making *trained*
  codecs spec-portable: process-mode :class:`~repro.runtime.TaskRuntime`
  workers rebuild them from ``spec + artifact path`` instead of
  raising.
"""

from __future__ import annotations

import dataclasses
import json
import os
import zipfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

import numpy as np

from ..nn.serialization import state_digest

__all__ = ["ArtifactManifest", "ArtifactStore", "save_artifact",
           "load_artifact", "read_manifest", "is_artifact",
           "ARTIFACT_FORMAT_VERSION", "MANIFEST_KEY", "STATE_PREFIX"]

PathLike = Union[str, os.PathLike]

ARTIFACT_FORMAT_VERSION = 1
MANIFEST_KEY = "manifest_json"
STATE_PREFIX = "state/"

#: config dataclasses allowed to travel inside manifest spec params
#: (anything else must already be JSON-serializable).
_CONFIG_TAG = "__config__"


def _config_types() -> Dict[str, type]:
    from ..config import DiffusionConfig, PipelineConfig, VAEConfig
    return {"VAEConfig": VAEConfig, "DiffusionConfig": DiffusionConfig,
            "PipelineConfig": PipelineConfig}


def encode_params(params: Dict[str, Any]) -> Dict[str, Any]:
    """JSON-safe encoding of codec constructor params.

    Config dataclasses become tagged dicts; tuples survive as lists
    (the config constructors re-tuple where it matters).
    """
    names = {cls: name for name, cls in _config_types().items()}
    out: Dict[str, Any] = {}
    for key, value in params.items():
        if type(value) in names:
            out[key] = {_CONFIG_TAG: names[type(value)],
                        **dataclasses.asdict(value)}
        else:
            out[key] = value
    return out


def decode_params(params: Dict[str, Any]) -> Dict[str, Any]:
    """Inverse of :func:`encode_params`."""
    types = _config_types()
    out: Dict[str, Any] = {}
    for key, value in params.items():
        if isinstance(value, dict) and _CONFIG_TAG in value:
            kwargs = {k: v for k, v in value.items() if k != _CONFIG_TAG}
            cls = types[value[_CONFIG_TAG]]
            kwargs = {k: tuple(v) if isinstance(v, list) else v
                      for k, v in kwargs.items()}
            out[key] = cls(**kwargs)
        else:
            out[key] = value
    return out


@dataclass
class ArtifactManifest:
    """Provenance record stored inside every artifact ``.npz``.

    ``spec`` is the *untrained* construction recipe
    (``{"codec": name, "params": {...}}``, params JSON-encoded via
    :func:`encode_params`); ``state_hash`` content-addresses the
    trained arrays; ``training`` and ``dataset`` are free-form
    provenance dicts (training config / :class:`~repro.data.registry.
    DatasetSpec` fields).
    """

    codec: str
    spec: Dict[str, Any]
    state_hash: str
    format_version: int = ARTIFACT_FORMAT_VERSION
    training: Optional[Dict[str, Any]] = None
    dataset: Optional[Dict[str, Any]] = None

    @property
    def key(self) -> str:
        """Content-addressed identifier (store filename stem)."""
        return f"{self.codec}-{self.state_hash[:16]}"

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ArtifactManifest":
        return cls(**json.loads(text))


# ----------------------------------------------------------------------
# File-level primitives
# ----------------------------------------------------------------------
def save_artifact(path: PathLike, codec, *,
                  training: Optional[Dict[str, Any]] = None,
                  dataset: Optional[Dict[str, Any]] = None
                  ) -> ArtifactManifest:
    """Persist a trainable codec's state as a self-describing artifact.

    The codec keeps a reference to the written file, so
    :meth:`~repro.codecs.base.Codec.to_spec` works afterwards even for
    trained state — saving *is* what makes a trained codec portable.
    """
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"  # np.savez_compressed appends it; keep the
        #                 recorded artifact reference pointing at the
        #                 file that actually exists
    state = codec.artifact_state()
    manifest = ArtifactManifest(
        codec=codec.codec_id,
        spec={"codec": codec.codec_id,
              "params": encode_params(codec.artifact_params())},
        state_hash=state_digest(state),
        training=training, dataset=dataset)
    arrays = {STATE_PREFIX + k: v for k, v in state.items()}
    arrays[MANIFEST_KEY] = np.frombuffer(manifest.to_json().encode(),
                                         dtype=np.uint8)
    np.savez_compressed(path, **arrays)
    codec._artifact = os.fspath(path)
    return manifest


def is_artifact(path: PathLike) -> bool:
    """True if ``path`` is an ``.npz`` carrying an artifact manifest."""
    try:
        with zipfile.ZipFile(path) as zf:
            return f"{MANIFEST_KEY}.npy" in zf.namelist()
    except (OSError, zipfile.BadZipFile, KeyError):
        return False


def read_manifest(path: PathLike) -> ArtifactManifest:
    """Read just the manifest (cheap provenance inspection)."""
    with np.load(path) as archive:
        if MANIFEST_KEY not in archive.files:
            raise ValueError(f"{os.fspath(path)!r} is not a codec "
                             f"artifact (no manifest)")
        return ArtifactManifest.from_json(
            bytes(archive[MANIFEST_KEY]).decode())


def load_artifact(path: PathLike, verify: bool = True):
    """Rebuild a trained codec from an artifact file.

    The untrained codec is constructed from the manifest spec through
    the registry, then trained state is restored via
    :meth:`~repro.codecs.base.Codec.load_artifact_state`.  With
    ``verify`` (default) the state hash is recomputed and checked.
    The returned codec is spec-portable: its :meth:`to_spec` carries
    the artifact path, so process-pool workers can rebuild it.

    Codec classes whose state is self-contained may provide a
    ``from_artifact_state(state)`` classmethod to construct directly
    from the arrays; otherwise the untrained codec is built from the
    manifest spec and :meth:`~repro.codecs.base.Codec.
    load_artifact_state` restores the weights in place.
    """
    from ..codecs import codec_class, get_codec
    with np.load(path) as archive:
        if MANIFEST_KEY not in archive.files:
            raise ValueError(f"{os.fspath(path)!r} is not a codec "
                             f"artifact (no manifest)")
        manifest = ArtifactManifest.from_json(
            bytes(archive[MANIFEST_KEY]).decode())
        state = {k[len(STATE_PREFIX):]: archive[k]
                 for k in archive.files if k.startswith(STATE_PREFIX)}
    if verify:
        digest = state_digest(state)
        if digest != manifest.state_hash:
            raise ValueError(
                f"artifact {os.fspath(path)!r} is corrupt: state hash "
                f"{digest[:16]} != manifest {manifest.state_hash[:16]}")
    name = manifest.spec["codec"]
    builder = getattr(codec_class(name), "from_artifact_state", None)
    if builder is not None:
        # self-contained state: skip building a throwaway untrained
        # model (matters per process-pool worker rebuilding trained
        # codecs from specs)
        codec = builder(state)
    else:
        params = decode_params(dict(manifest.spec.get("params", {})))
        codec = get_codec(name, **params)
        codec.load_artifact_state(state)
    codec._spec_params = None          # state came from disk, not init
    codec._artifact = os.fspath(path)
    return codec


# ----------------------------------------------------------------------
# Content-addressed store
# ----------------------------------------------------------------------
class ArtifactStore:
    """Directory of content-addressed codec artifacts.

    Layout::

        <root>/objects/<codec>-<hash16>.npz   the artifacts
        <root>/index.json                     key -> manifest summary

    ``put`` is idempotent: saving the same trained state twice yields
    the same key and overwrites the object file with identical content
    (artifacts carry no timestamps).  Keys are stable across machines,
    so a store directory can be rsync'd between nodes of a sweep and
    every worker resolves the same ``key -> file`` mapping.
    """

    def __init__(self, root: PathLike):
        self.root = os.fspath(root)
        self.objects_dir = os.path.join(self.root, "objects")
        os.makedirs(self.objects_dir, exist_ok=True)
        self.index_path = os.path.join(self.root, "index.json")

    # -- index ----------------------------------------------------------
    def _read_index(self) -> Dict[str, Dict[str, Any]]:
        if not os.path.exists(self.index_path):
            return {}
        with open(self.index_path) as fh:
            return json.load(fh)

    def _write_index(self, index: Dict[str, Dict[str, Any]]) -> None:
        tmp = self.index_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(index, fh, indent=2, sort_keys=True)
        os.replace(tmp, self.index_path)

    # -- public API -----------------------------------------------------
    def put(self, codec, *, training: Optional[Dict[str, Any]] = None,
            dataset: Optional[Dict[str, Any]] = None) -> str:
        """Store a trained codec; returns its content-addressed key."""
        # stage under a unique name (concurrent puts into a shared
        # store must not clobber each other's half-written files),
        # then publish atomically under the content-addressed key;
        # the ".npz" suffix is required so np.savez keeps the path
        import tempfile
        fd, path = tempfile.mkstemp(suffix=".npz", prefix="incoming-",
                                    dir=self.objects_dir)
        os.close(fd)
        try:
            manifest = save_artifact(path, codec, training=training,
                                     dataset=dataset)
            final = os.path.join(self.objects_dir,
                                 manifest.key + ".npz")
            os.replace(path, final)
        finally:
            if os.path.exists(path):
                os.unlink(path)
        codec._artifact = final
        index = self._read_index()
        index[manifest.key] = {
            "codec": manifest.codec,
            "state_hash": manifest.state_hash,
            "path": os.path.relpath(final, self.root),
            "training": manifest.training,
            "dataset": manifest.dataset,
        }
        self._write_index(index)
        return manifest.key

    def path_for(self, key: str) -> str:
        """Absolute object path for a key (must exist)."""
        path = os.path.join(self.objects_dir, key + ".npz")
        if not os.path.exists(path):
            known = ", ".join(self.keys()) or "<empty store>"
            raise KeyError(f"unknown artifact {key!r}; stored: {known}")
        return path

    def get(self, key: str, verify: bool = True):
        """Rebuild the trained codec stored under ``key``."""
        return load_artifact(self.path_for(key), verify=verify)

    def manifest(self, key: str) -> ArtifactManifest:
        return read_manifest(self.path_for(key))

    def keys(self) -> List[str]:
        """Sorted keys of every stored artifact (from the objects dir,
        so the index never has to be trusted blindly)."""
        return sorted(os.path.splitext(name)[0]
                      for name in os.listdir(self.objects_dir)
                      if name.endswith(".npz")
                      and not name.startswith("incoming-"))

    def __contains__(self, key: str) -> bool:
        return os.path.exists(os.path.join(self.objects_dir,
                                           key + ".npz"))

    def __len__(self) -> int:
        return len(self.keys())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ArtifactStore {self.root!r} ({len(self)} artifacts)>"
