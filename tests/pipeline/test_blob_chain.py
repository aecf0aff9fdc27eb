"""The chain a blob names is the chain its decode runs.

``data/ldcb_v2_v3.npz`` holds a v2 (arithmetic) and a v3 (rANS-tagged)
``ours`` blob, written by the last release that wrote those layouts,
with that release's decode of each.  The model is the seeded ``tiny``
model of :mod:`tests.pipeline.test_artifact_pins` (no BLAS-dependent
fitting).  Those blobs record 4 ancestral steps but ran the model's
whole 16-step schedule; they still do, bitwise.

A new (v4) blob records the schedule its chain was spaced over and
``min(sample_steps, schedule)``, and decode runs exactly that many UNet
steps per window batch.  A model on another schedule refuses the blob
before sampling, through every front door.
"""

from __future__ import annotations

import pathlib
from dataclasses import replace

import numpy as np
import pytest

from repro.api import Archive, Bound, Session
from repro.cli import main
from repro.pipeline import CompressedBlob, ScheduleMismatchError
from repro.pipeline.artifacts import save_artifact

from .test_artifact_pins import _build_ours, _frames

FIXTURE = pathlib.Path(__file__).parent / "data" / "ldcb_v2_v3.npz"
BOUND = Bound.nrmse(0.05)


def _frozen(key: str):
    with np.load(FIXTURE) as fx:
        return fx[f"{key}_blob"].tobytes(), fx[f"{key}_decode"]


def _count_unet_calls(compressor) -> list:
    """Wrap the model's ε̂ so every UNet forward is counted."""
    calls = []
    forward = compressor.ddpm.predict_noise

    def counted(y, t):
        calls.append(int(t))
        return forward(y, t)

    compressor.ddpm.predict_noise = counted
    return calls


@pytest.mark.parametrize("key, version, backend",
                         [("v2", 2, "arithmetic"), ("v3", 3, "rans")])
def test_frozen_blob_decodes_as_written(key, version, backend):
    data, expected = _frozen(key)
    assert data[4] == version
    blob = CompressedBlob.from_bytes(data)
    assert (blob.sampler, blob.sample_steps) == ("ancestral", 4)
    assert blob.entropy_backend == backend
    assert blob.schedule_steps is None and blob.chain_steps() is None
    codec = _build_ours()
    calls = _count_unet_calls(codec.compressor)
    np.testing.assert_array_equal(codec.decompress(data), expected)
    # one window batch (2 windows): the model's whole schedule
    assert calls == list(range(16, 0, -1))
    with Session(codec=_build_ours(), executor="serial") as s:
        np.testing.assert_array_equal(s.decompress(data), expected)
    with pytest.raises(ValueError, match="read-only"):
        blob.to_bytes()


def test_new_blob_runs_the_chain_it_records():
    codec = _build_ours()
    calls = _count_unet_calls(codec.compressor)
    res = codec.compress(_frames(), BOUND.native_for(codec, _frames()),
                         seed=5)
    blob = CompressedBlob.from_bytes(res.payload)
    assert res.payload[4] == 4
    assert (blob.sampler, blob.sample_steps, blob.schedule_steps) == (
        "ancestral", 8, 16)
    spaced = [16, 14, 12, 10, 7, 5, 3, 1]
    assert calls == spaced
    del calls[:]
    np.testing.assert_array_equal(codec.decompress(res.payload),
                                  res.reconstruction)
    assert calls == spaced


def test_schedule_shorter_than_the_chain_runs_whole():
    """A model fine-tuned to fewer steps than ``sample_steps`` runs its
    whole short schedule, on the schedule's own arrays."""
    codec = _build_ours()
    comp = codec.compressor
    comp.ddpm.set_schedule(4)
    calls = _count_unet_calls(comp)
    frames = _frames()
    res = comp.compress(frames, noise_seed=5)
    assert (res.blob.sample_steps, res.blob.schedule_steps) == (4, 4)
    assert calls == [4, 3, 2, 1]
    comp.config = replace(comp.config, sample_steps=4)
    np.testing.assert_array_equal(
        comp.compress(frames, noise_seed=5).reconstruction,
        res.reconstruction)


def test_model_on_another_schedule_refuses_the_blob(tmp_path, capsys):
    """Compress at 16 steps, shorten the schedule as few-step
    fine-tuning does, decompress: a typed error before any sampling,
    instead of a decode that misses its bound without a word."""
    codec = _build_ours()
    with Session(codec=codec, executor="serial", seed=5) as s:
        archive = s.compress(_frames(), bound=BOUND)
    path = tmp_path / "a.ldc"
    archive.save(str(path))
    codec.compressor.ddpm.set_schedule(4)
    calls = _count_unet_calls(codec.compressor)
    match = "16-step schedule; this model's has 4 steps"
    with pytest.raises(ScheduleMismatchError, match=match):
        codec.compressor.decompress(archive.blob())
    with Session(codec=codec, executor="serial") as s:
        with pytest.raises(ScheduleMismatchError, match=match):
            s.decompress(Archive.open(str(path)))
    assert calls == []
    model = tmp_path / "m.npz"
    save_artifact(model, codec)
    out = tmp_path / "out.npy"
    assert main(["decompress", str(path), str(out),
                 "--codec-artifact", str(model)]) == 2
    assert match in capsys.readouterr().err
    assert not out.exists()
