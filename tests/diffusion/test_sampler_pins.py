"""The single-window samplers are calls of their batched twins.

``ancestral_sample`` / ``ddim_sample`` run ``*_batched`` with one
generator shared by every row, and ``dpm_solver_sample`` starts from
the batched start state.  A shared generator draws the same sequence as
one full-shape draw, so outputs are pinned to the sha256 digests the
separate single-window loops produced, for one and two stacked windows.
"""

import hashlib

import numpy as np
import pytest

from repro.diffusion import (ConditionalDDPM, ancestral_sample,
                             ddim_sample, dpm_solver_sample, keyframe_spec)

from .test_unet_ddpm import CFG

#: sha256 of the sampler output for (sampler, rows, rng seed); model
#: seed 0 (an 8-step schedule), interpolation keyframes every 3
#: frames, 4 DDIM/DPM steps; ``ancestral`` runs the whole schedule and
#: ``ancestral-4`` 4 timesteps respaced over it
GOLDEN = {
    ("ancestral", 1, 1): "17d216216d74789531cf1e0a4d6f6a27"
                         "dc6a1a2b65b5c946152e737dd9deae7c",
    ("ancestral", 1, 2): "2d596cfdc30ff6875036e4d6735c1ab6"
                         "e3d032e3da31d207ebdd494be1ec6bb7",
    ("ancestral", 1, 3): "fe66a011675065e856f002a93027b2af"
                         "19aa7a36c8fc211bac0d03fe275f3e97",
    ("ancestral", 2, 1): "3e3b107749fd03a81b77beb5a8e97b60"
                         "e020f42e4f49b598193045fe5b89ba6f",
    ("ancestral", 2, 2): "17ee56e9af5f9066149297d80d088908"
                         "d0d9ff8df08b9c487792d4732f4b67bb",
    ("ancestral", 2, 3): "3690e20f2968219ed9ad72913f2798d7"
                         "61e7d31ab54302bde7bccfd138777412",
    ("ddim", 1, 1): "c06a642621c52722cc6415acda0100ba"
                    "3462f6e38961b20a46a5b756c6b3d7bd",
    ("ddim", 1, 2): "e33b14fc28571cd6a328d897ae3536d9"
                    "ce54a112f431f88738f098118a07b255",
    ("ddim", 1, 3): "59ae80f9120d7af51cf5c3d714435604"
                    "4408a6586608688224b85453725539bd",
    ("ddim", 2, 1): "b1f618b98530680ca8176c3454c98fcb"
                    "ad0b19da86e1dfc5e951dbdaaec835ee",
    ("ddim", 2, 2): "68d4efa82b43d9a6991e88775f4cd963"
                    "318da945b736d0217344f019834f8952",
    ("ddim", 2, 3): "5286f846491c3e4d783986780c49237b"
                    "054a9ffbbfa5d5bc9ea3dd8a4c1bb772",
    ("dpm", 1, 1): "bab2fe5f0eb4f2a7fa46233fce288b2f"
                   "7beb2ad7ea6e0b760373146acc50e263",
    ("dpm", 1, 2): "5a3f6867dce713e6fc82a54232a28a97"
                   "8a411cae8824e8a4771087c43991d769",
    ("dpm", 1, 3): "17c665831161d4d77dc15f547ac54102"
                   "2618c71118d8ed69994af12faa87c963",
    ("dpm", 2, 1): "df3031820199763a81154d3a1e6c9b17"
                   "535a5123332534b3bf63fcccf4cd5386",
    ("dpm", 2, 2): "591f631adaa127239167b58305c3f343"
                   "a265a7bbe1e094ace98860c94145fc12",
    ("dpm", 2, 3): "be7aa6d4e5438c45621d7fa2d564af18"
                   "cba77a74dce29a9c801d21a1095fff46",
    ("ancestral-4", 1, 1): "ff44b08ac9b2ef1fc775aa9b390c1d66"
                           "46aaae62432be0b37caa65cfdec4db6c",
    ("ancestral-4", 1, 2): "de8253e3c51b343af3a5e67fb55c157a"
                           "690d18c8c878615a2b2774cdac6f0850",
    ("ancestral-4", 1, 3): "ce7a3c27a615967f25580c6c530d8a40"
                           "587c16194e499a5e01d16c7b4ac02e35",
    ("ancestral-4", 2, 1): "5708d0c7b8a1418b166ef729cccb2b12"
                           "aba0e0d6164dd1be83412c4fa52b3eb0",
    ("ancestral-4", 2, 2): "98c8a885d856bb673b190761d51eb653"
                           "6066249b864504a2bf80367ee58bd3b4",
    ("ancestral-4", 2, 3): "9b8359f515bbc6b25bdb8c2fafaf148e"
                           "395df101025a4c1cc8c2c69d7c00c18e",
}

SAMPLERS = {
    "ancestral": lambda m, c, s, rng: ancestral_sample(m, c, s, rng=rng),
    "ancestral-4": lambda m, c, s, rng: ancestral_sample(m, c, s, rng=rng,
                                                         steps=4),
    "ddim": lambda m, c, s, rng: ddim_sample(m, c, s, 4, rng=rng),
    "dpm": lambda m, c, s, rng: dpm_solver_sample(m, c, s, 4, rng=rng),
}


@pytest.fixture(scope="module")
def model():
    return ConditionalDDPM(CFG, rng=np.random.default_rng(0))


@pytest.mark.parametrize("sampler, rows, seed", sorted(GOLDEN))
def test_output_pinned(model, sampler, rows, seed):
    spec = keyframe_spec(4, "interpolation", interval=3)
    cond = np.random.default_rng(2).normal(size=(rows, 4, 2, 4, 4))
    out = SAMPLERS[sampler](model, cond, spec, np.random.default_rng(seed))
    assert out.shape == cond.shape
    np.testing.assert_array_equal(out[:, spec.cond_idx],
                                  cond[:, spec.cond_idx])
    digest = hashlib.sha256(out.tobytes()).hexdigest()
    assert digest == GOLDEN[(sampler, rows, seed)]


@pytest.mark.parametrize("steps", [8, 9, 100])
def test_ancestral_chain_at_least_the_schedule_is_the_schedule(model,
                                                               steps):
    """A chain as long as the schedule (or longer) runs every timestep
    on the schedule's own arrays: bitwise the default chain."""
    spec = keyframe_spec(4, "interpolation", interval=3)
    cond = np.random.default_rng(2).normal(size=(2, 4, 2, 4, 4))
    full = ancestral_sample(model, cond, spec, np.random.default_rng(1))
    out = ancestral_sample(model, cond, spec, np.random.default_rng(1),
                           steps=steps)
    np.testing.assert_array_equal(out, full)
