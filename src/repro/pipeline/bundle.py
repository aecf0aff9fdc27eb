"""Model-bundle persistence for the latent-diffusion compressor.

A bundle is a single ``.npz`` that moves a trained compressor between
machines.  This module is a thin adapter over the codec-agnostic
artifact layer (:mod:`repro.pipeline.artifacts`): :func:`save_bundle`
writes a standard codec artifact (state arrays + provenance manifest)
and :func:`load_bundle` reads one back.

The split of the state (de)serialization into
:func:`compressor_state` / :func:`compressor_from_state` is what lets
the ``"ours"`` codec satisfy the uniform
:meth:`~repro.codecs.base.Codec.artifact_state` contract with the
exact on-disk layout bundles have always used.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict

import numpy as np

from ..compression import VAEHyperprior
from ..config import DiffusionConfig, PipelineConfig, VAEConfig
from ..diffusion import ConditionalDDPM
from ..postprocess import ErrorBoundCorrector, ResidualPCA
from .compressor import LatentDiffusionCompressor

__all__ = ["save_bundle", "load_bundle", "compressor_state",
           "compressor_from_state"]


def compressor_state(compressor: LatentDiffusionCompressor
                     ) -> Dict[str, np.ndarray]:
    """Flatten a compressor to ``{name: array}`` (bundle layout).

    Keys: ``vae/*`` and ``ddpm/*`` weights, ``pca/basis`` when a
    corrector is fitted, and ``config_json`` (uint8-encoded JSON with
    every config plus schedule/dtype metadata).
    """
    cfg = {
        "vae": dataclasses.asdict(compressor.vae.cfg),
        "diffusion": dataclasses.asdict(compressor.ddpm.cfg),
        "pipeline": dataclasses.asdict(compressor.config),
        "schedule_steps": compressor.ddpm.schedule.steps,
        "original_dtype_bytes": compressor.original_dtype_bytes,
    }
    arrays: Dict[str, np.ndarray] = {}
    for name, arr in compressor.vae.state_dict().items():
        arrays[f"vae/{name}"] = arr
    for name, arr in compressor.ddpm.state_dict().items():
        arrays[f"ddpm/{name}"] = arr
    if compressor.corrector is not None:
        pca = compressor.corrector.pca
        arrays["pca/basis"] = pca.basis
        cfg["pca"] = {"block": pca.block, "rank": pca.rank,
                      "coeff_quant_bits":
                          compressor.corrector.coeff_quant_bits}
    arrays["config_json"] = np.frombuffer(
        json.dumps(cfg).encode(), dtype=np.uint8)
    return arrays


def compressor_from_state(state: Dict[str, np.ndarray]
                          ) -> LatentDiffusionCompressor:
    """Inverse of :func:`compressor_state`."""
    cfg = json.loads(bytes(state["config_json"]).decode())
    vae_cfg = VAEConfig(**cfg["vae"])
    diff_cfg = DiffusionConfig(
        **{k: tuple(v) if k == "channel_mults" else v
           for k, v in cfg["diffusion"].items()})
    pipe_cfg = PipelineConfig.from_saved(cfg["pipeline"])
    vae = VAEHyperprior(vae_cfg)
    vae.load_state_dict({k[len("vae/"):]: state[k]
                         for k in state if k.startswith("vae/")})
    ddpm = ConditionalDDPM(diff_cfg)
    ddpm.load_state_dict({k[len("ddpm/"):]: state[k]
                          for k in state if k.startswith("ddpm/")})
    ddpm.set_schedule(int(cfg["schedule_steps"]))
    corrector = None
    if "pca/basis" in state:
        pca = ResidualPCA.from_state({
            "block": cfg["pca"]["block"], "rank": cfg["pca"]["rank"],
            "basis": state["pca/basis"]})
        corrector = ErrorBoundCorrector(
            pca, coeff_quant_bits=cfg["pca"]["coeff_quant_bits"])
    return LatentDiffusionCompressor(
        vae, ddpm, pipe_cfg, corrector=corrector,
        original_dtype_bytes=int(cfg["original_dtype_bytes"]))


def save_bundle(path: str, compressor: LatentDiffusionCompressor) -> None:
    """Serialize a trained compressor (weights + config + corrector).

    Writes an artifact-format ``.npz`` (state + manifest) that
    :func:`load_bundle`, ``repro info`` and the process-pool executor
    all understand.
    """
    from ..codecs.diffusion import LatentDiffusionCodec
    from .artifacts import save_artifact
    save_artifact(path, LatentDiffusionCodec(compressor=compressor))


def load_bundle(path: str) -> LatentDiffusionCompressor:
    """Inverse of :func:`save_bundle`; a ``.npz`` without an artifact
    manifest raises ``ValueError``."""
    from ..codecs.diffusion import LatentDiffusionCodec
    return LatentDiffusionCodec.from_bundle(path).compressor
