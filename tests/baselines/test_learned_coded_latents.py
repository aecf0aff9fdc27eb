"""Learned codecs reconstruct from the latents they just coded.

``VAEHyperprior.compress`` returns the integer latents it entropy-codes,
so compress synthesizes its reconstruction from those and never
entropy-decodes its own streams; decompress reads the same latents back
from the streams.  Archives are pinned to the bytes written while
compress still decoded its own streams.  Reconstructions also move when
training gradients move at rounding level, so all four are pinned to
the GEMM conv backward's training.  Its stride-1 input gradient (the
flipped-kernel forward) sums in another order than the per-tap einsum
loop did and moves all four, by at most 4.3e-12 (cdc-eps on a range of
185, 2.3e-14 of it); no archive byte moved.
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
               "d3d18640a3927f1b748aa07e65dfc831"
               "caaf687c4fc6e9593556781853efb34e"),
    "gcd": ("317725287ad32ff49b2d338914e3cc84"
            "f84b408e6f763f5e60836553a8c8ae8a",
            "5528bd3987307027d8bb0158bb751a20"
            "31da42629d911211f798efef8f8c40c1"),
    "cdc-eps": ("46af00b5dfec4641e5b20725b0bf9687"
                "3465d58aadbabee2bfe47300c98e2f8d",
                "f8167b1a8bbd0b69a2c0a559c959af8a"
                "dc4bf44cf1d1e9f922d4530af90854ff"),
    "cdc-x": ("46af00b5dfec4641e5b20725b0bf9687"
              "3465d58aadbabee2bfe47300c98e2f8d",
              "a8c8bc19e4023d0a78a5a2f8990b5093"
              "1bd430b2efe35cbc274660682b889014"),
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
    assert calls == []
    recon = np.ascontiguousarray(res.reconstruction, dtype=np.float64)
    assert (_sha(res.payload_bytes), _sha(recon.tobytes())) == GOLDEN[name]
    np.testing.assert_array_equal(codec.decompress(res.payload_bytes),
                                  recon)
    assert calls
