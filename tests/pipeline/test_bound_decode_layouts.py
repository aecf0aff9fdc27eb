"""The error bound holds on what every decode layout returns.

The learned decoder runs its GEMMs over batches of windows, and BLAS
blocks a GEMM differently for another batch shape.  So decoding one
archive under another ``MAX_BATCH_WINDOWS``, through ``Session``
shards, or through a trimmed ``select=`` can change the reconstruction
in its last bits.  The corrector spends its budget only to
``tau² (1 − DELTA)``; these tests measure the divergence that margin
must cover, require the margin to be at least 1000x it, and assert the
bound on the reconstruction every layout returns.
"""

import numpy as np
import pytest

import repro.pipeline.compressor as pipeline_compressor
from repro import nrmse
from repro.api import Bound, Session
from repro.codecs import LatentDiffusionCodec
from repro.postprocess.bound import DELTA

#: windows per batched UNet forward; 16 is the compress-time layout
LAYOUTS = (16, 2, 1)
BOUNDS = [Bound.nrmse(0.05), Bound.nrmse(0.01), Bound.l2(4.0)]


def _l2(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def _margin(tau: float) -> float:
    """The L2 slack the corrector reserves below ``tau``."""
    return tau * (1.0 - np.sqrt(1.0 - DELTA))


def _on_every_layout(monkeypatch, decode):
    out = {}
    for n in LAYOUTS:
        monkeypatch.setattr(pipeline_compressor, "MAX_BATCH_WINDOWS", n)
        out[n] = decode()
    monkeypatch.undo()
    return out


def _check(bound, frames, rec, tau):
    assert _l2(frames, rec) <= tau
    if bound.kind == "nrmse":
        assert nrmse(frames, rec) <= bound.value


@pytest.mark.parametrize("bound", BOUNDS, ids=str)
def test_blob_meets_bound_on_every_batch_layout(trained, bound,
                                                monkeypatch):
    _, comp, frames, _ = trained
    tau = bound.to("l2", frames=frames).value
    res = comp.compress(frames, error_bound=tau)
    decodes = _on_every_layout(monkeypatch,
                               lambda: comp.decompress(res.blob))
    # the compress-time layout decodes the encoder's output, bitwise
    np.testing.assert_array_equal(decodes[16], res.reconstruction)
    for rec in decodes.values():
        _check(bound, frames, rec, tau)
    divergence = max(_l2(rec, res.reconstruction)
                     for rec in decodes.values())
    assert 1000.0 * divergence <= _margin(tau)


@pytest.mark.parametrize("bound", BOUNDS, ids=str)
def test_encoder_correction_is_the_decoders(trained, bound):
    """``correct``'s ``x_G`` is bitwise ``apply(x_R, payload)``, and it
    is what a bounded compress reports."""
    _, comp, frames, _ = trained
    tau = bound.to("l2", frames=frames).value
    x_r = comp.compress(frames).reconstruction
    res = comp.corrector.correct(frames, x_r, tau)
    np.testing.assert_array_equal(res.corrected,
                                  comp.corrector.apply(x_r, res.payload))
    bounded = comp.compress(frames, error_bound=tau)
    assert bounded.blob.bound_payload == res.payload
    np.testing.assert_array_equal(bounded.reconstruction, res.corrected)


@pytest.mark.parametrize("bound", BOUNDS, ids=str)
def test_shards_and_trimmed_select_meet_bound(trained, bound,
                                              monkeypatch):
    _, comp, frames, _ = trained
    codec = LatentDiffusionCodec(compressor=comp)
    t0, t1 = 3, 20   # trims the head of shard 0 and the tail of shard 1
    with Session(codec=codec, workers=2) as session:
        archive = session.compress(frames, bound=bound, shards=2)
        members = archive.index()
        assert len(members) == 2
        full = _on_every_layout(monkeypatch,
                                lambda: session.decompress(archive))
        part = _on_every_layout(monkeypatch, lambda: session.decompress(
            archive, select=slice(t0, t1)))
    divergence = 0.0
    for n in LAYOUTS:
        np.testing.assert_array_equal(part[n], full[n][t0:t1])
        for m in members:
            x = frames[m.t0:m.t1]
            tau = bound.native_for(codec, x)
            _check(bound, x, full[n][m.t0:m.t1], tau)
            a, b = max(t0, m.t0), min(t1, m.t1)
            assert _l2(x[a - m.t0:b - m.t0], part[n][a - t0:b - t0]) <= tau
            divergence = max(divergence, _l2(full[n][m.t0:m.t1],
                                             full[16][m.t0:m.t1]) / tau)
    assert 1000.0 * divergence <= 1.0 - np.sqrt(1.0 - DELTA)
