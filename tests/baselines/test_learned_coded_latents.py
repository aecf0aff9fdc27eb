"""Learned codecs reconstruct from the latents they just coded.

``VAEHyperprior.compress`` returns the integer latents it entropy-codes,
so compress synthesizes its reconstruction from those and never
entropy-decodes its own streams; decompress reads the same latents back
from the streams.  Archives and reconstructions are pinned to the bytes
written while compress still decoded its own streams.
"""

import hashlib

import numpy as np
import pytest

from repro.codecs import get_codec
from repro.compression import VAEHyperprior
from repro.data import get_dataset_spec

#: sha256 of the unbounded archive and of its reconstruction, for
#: e3sm 12x16x16 (dataset seed 3), noise seed 5, after ``TRAIN``
GOLDEN = {
    "vae-sr": ("adae521df761a8b35df6e740437b8941"
               "3500926a773cdad0147a656b73c231a4",
               "5ab040312198a44cf1b8fbd4c2cd5d0b"
               "d9f2faff0e00a463f154603ab18e864b"),
    "gcd": ("317725287ad32ff49b2d338914e3cc84"
            "f84b408e6f763f5e60836553a8c8ae8a",
            "c67161ca6935aec11817c0b295849a2e"
            "37e44b58faa3e5a6b2723fa514f34c08"),
    "cdc-eps": ("46af00b5dfec4641e5b20725b0bf9687"
                "3465d58aadbabee2bfe47300c98e2f8d",
                "035d6486ec77e26e5e13073cd18aa005"
                "d0b3062b1b87c96c6ec951acf528c683"),
    "cdc-x": ("46af00b5dfec4641e5b20725b0bf9687"
              "3465d58aadbabee2bfe47300c98e2f8d",
              "b7e6cb7092ffae4a77fdb7ce0667eea1"
              "21441e3900a8af094f790080fdf358d3"),
}
#: a few large steps, so the latents are mostly nonzero
TRAIN = {"vae-sr": dict(vae_iters=20, sr_iters=5, lr=1e-2),
         "gcd": dict(vae_iters=20, diffusion_iters=5, lr=1e-2),
         "cdc-eps": dict(vae_iters=20, diffusion_iters=5, lr=1e-2),
         "cdc-x": dict(vae_iters=20, diffusion_iters=5, lr=1e-2)}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_compress_reuses_coded_latents(name, monkeypatch):
    frames = get_dataset_spec("e3sm", t=12, h=16, w=16,
                              seed=3).build().frames(0)
    codec = get_codec(name)
    codec.train([frames[i:i + 6] for i in (0, 3, 6)], **TRAIN[name])
    calls = []
    decompress_latents = VAEHyperprior.decompress_latents

    def counted(vae, streams):
        calls.append(vae)
        return decompress_latents(vae, streams)

    monkeypatch.setattr(VAEHyperprior, "decompress_latents", counted)
    res = codec.compress(frames, seed=5)
    baseline = codec._impl.compress(frames, seed=5)
    assert calls == []
    recon = np.ascontiguousarray(res.reconstruction, dtype=np.float64)
    assert (_sha(res.payload_bytes), _sha(recon.tobytes())) == GOLDEN[name]
    np.testing.assert_array_equal(baseline.reconstruction, recon)
    np.testing.assert_array_equal(codec.decompress(res.payload_bytes),
                                  recon)
    assert calls
