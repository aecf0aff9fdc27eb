"""Model artifacts keep their bytes, and old archives keep decoding.

A model artifact is half of every learned decode, so two things are
pinned here:

* the write path: an ``ours`` artifact saved from a fixed seeded
  compressor with a corrector, and a ``vae-sr`` artifact, have a
  pinned state hash and manifest, and the ``ours`` one a pinned
  ``config_json``.  The artifact is these arrays in an ``.npz``, so an
  artifact saved today holds what an earlier release saved;
* the read path: ``data/artifact_pins.npz`` holds one bounded archive
  per model, compressed by an earlier release.  Each must decode,
  through every loader a user has (``Session(artifact=)``,
  ``load_artifact``, ``repro decompress --codec-artifact``), bitwise
  like the same model built in memory, and meet its bound.

Both models are built without BLAS-dependent fitting: seeded weight
init plus an identity-basis corrector, so the pins hold on any host.

Regenerate the archives (only when a wire format is meant to change)::

    PYTHONPATH=src python tests/pipeline/test_artifact_pins.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

from repro.api import Archive, Bound, Session
from repro.cli import main
from repro.codecs import LatentDiffusionCodec, get_codec
from repro.config import tiny
from repro.data import get_dataset
from repro.metrics import nrmse
from repro.pipeline.artifacts import load_artifact, save_artifact
from repro.pipeline.compressor import LatentDiffusionCompressor
from repro.pipeline.training import TrainingConfig, TwoStageTrainer
from repro.postprocess import ErrorBoundCorrector, ResidualPCA

DATA = pathlib.Path(__file__).parent / "data" / "artifact_pins.npz"
BOUND = Bound.nrmse(0.05)

#: name -> (state hash, sha256 of the manifest JSON, sha256 of
#: ``config_json``) of the artifact of each of :data:`MODELS`,
#: recorded before the state layout moved modules
PINS = {
    "ours": ("8b5fefdc2d43ab57495da4905c4ba518"
             "bedefffd20349668a68c3247d86f0853",
             "ed63d14376879163ca08e2db590b6c7a"
             "af7a85fef2e1a65633048ad5536977f9",
             "8386252a74216f7723744f156d2c7994"
             "9396591729069187aa206d4951c94e75"),
    "vae-sr": ("b94b53b5f3dde5f6a306a320aed90a3f"
               "48d0d9f68ab17ca55d2843623892bcbc",
               "1d4f510651d0b6ca3996bfe43f25d392"
               "2a2a929e53898b11b46307701bc6399a",
               None),
}
ARCHIVES = {"ours": "ours.ldc", "vae-sr": "vae-sr.cdx"}


def _identity_corrector(block: int, rank: int, bits: int = 10
                        ) -> ErrorBoundCorrector:
    """A corrector over the first ``rank`` unit vectors: orthonormal
    and identical on every host (no SVD)."""
    pca = ResidualPCA.from_state({"block": block, "rank": rank,
                                  "basis": np.eye(block * block)[:, :rank]})
    return ErrorBoundCorrector(pca, coeff_quant_bits=bits)


def _build_ours() -> LatentDiffusionCodec:
    """A fixed seeded compressor with a corrector."""
    cfg = tiny()
    trainer = TwoStageTrainer(cfg, TrainingConfig(), seed=3)
    p = cfg.pipeline
    return LatentDiffusionCodec(compressor=LatentDiffusionCompressor(
        trainer.vae, trainer.ddpm, p,
        corrector=_identity_corrector(p.pca_block, p.pca_rank,
                                      p.coeff_quant_bits),
        original_dtype_bytes=4))


def _build_vae_sr():
    codec = get_codec("vae-sr", seed=1)
    codec.impl.corrector = _identity_corrector(4, 8)
    return codec


MODELS = {"ours": _build_ours, "vae-sr": _build_vae_sr}


def _frames() -> np.ndarray:
    return get_dataset("e3sm", t=12, h=16, w=16, seed=3).frames(0)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _saved(path, key: str) -> bytes:
    with np.load(path) as fx:
        return fx[key].tobytes()


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    """The frozen archives as files."""
    root = tmp_path_factory.mktemp("artifact-pins")
    with np.load(DATA) as fx:
        for key in fx.files:
            (root / key).write_bytes(fx[key].tobytes())
    return root


@pytest.mark.parametrize("name", list(MODELS))
def test_saved_artifact_pinned(name, tmp_path):
    path = tmp_path / "m.npz"
    manifest = save_artifact(path, MODELS[name]())
    state_hash, manifest_sha, config_sha = PINS[name]
    assert manifest.state_hash == state_hash
    assert _sha(_saved(path, "manifest_json")) == manifest_sha
    if config_sha is not None:
        assert _sha(_saved(path, "state/config_json")) == config_sha


def test_config_json_holds_every_config(tmp_path):
    save_artifact(tmp_path / "m.npz", _build_ours())
    cfg = json.loads(_saved(tmp_path / "m.npz", "state/config_json"))
    assert sorted(cfg) == ["diffusion", "original_dtype_bytes", "pca",
                           "pipeline", "schedule_steps", "vae"]
    assert cfg["pca"] == {"block": 4, "rank": 8, "coeff_quant_bits": 10}


@pytest.mark.parametrize("name", list(MODELS))
def test_frozen_archive_decodes_through_every_loader(name, archives,
                                                     tmp_path):
    archive = archives / ARCHIVES[name]
    with Session(codec=MODELS[name](), executor="serial") as s:
        expected = s.decompress(archive)
    assert nrmse(_frames(), expected) <= BOUND.value
    model = tmp_path / "m.npz"
    save_artifact(model, MODELS[name]())

    with Session(artifact=str(model), executor="serial") as s:
        assert np.array_equal(s.decompress(archive), expected)
    codec = load_artifact(model)
    assert codec.name == name
    opened = Archive.open(str(archive))
    payload = opened.data if name == "ours" else opened.envelope()[1]
    assert np.array_equal(codec.decompress(payload), expected)
    out = tmp_path / "out.npy"
    assert main(["decompress", str(archive), str(out),
                 "--codec-artifact", str(model)]) == 0
    assert np.array_equal(np.load(out), expected)


def _write() -> None:  # pragma: no cover - fixture regeneration
    import tempfile
    frames = _frames()
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, build in MODELS.items():
            codec = build()
            path = f"{tmp}/{name}.npz"
            manifest = save_artifact(path, codec)
            with Session(codec=codec, executor="serial", seed=5) as s:
                archive = s.compress(frames, bound=BOUND)
            out[ARCHIVES[name]] = archive.to_bytes()
            print(name, manifest.state_hash,
                  _sha(_saved(path, "manifest_json")),
                  _sha(_saved(path, "state/config_json"))
                  if name == "ours" else None,
                  f"archive {len(archive)} B")
    np.savez_compressed(DATA, **{k: np.frombuffer(v, dtype=np.uint8)
                                 for k, v in out.items()})
    print(f"wrote {DATA} ({DATA.stat().st_size} B)")


if __name__ == "__main__":  # pragma: no cover
    if "--write" in sys.argv:
        _write()
