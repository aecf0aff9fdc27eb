"""``repro.codecs`` — one contract, one registry, every compressor.

Every compressor family in this repo — the six rule-based analogues,
the three learned baselines and the paper's latent-diffusion pipeline —
is reachable through the same interface::

    >>> from repro.codecs import get_codec, list_codecs
    >>> list_codecs()
    ['cdc-eps', 'cdc-x', 'dpcm', 'fazlike', 'gcd', 'mgard', 'ours',
     'szlike', 'tthresh', 'vae-sr', 'zfplike']
    >>> codec = get_codec("szlike")
    >>> res = codec.compress(frames, bound=1e-3)      # doctest: +SKIP
    >>> codec.decompress(res.payload)                 # doctest: +SKIP

See :mod:`repro.codecs.base` for the contract (bound normalization,
result container, codec envelopes), :mod:`repro.codecs.registry` for
registration, and :mod:`repro.pipeline.engine` for running any codec
over batches of windows/variables in parallel.
"""

from .base import (Codec, CodecCapabilities, CodecResult, is_envelope,
                   pack_envelope, peek_envelope, unpack_envelope)
from .registry import (CodecSpec, as_codec, codec_class, codec_from_spec,
                       codec_specs, get_codec, list_codecs, register_codec)

# Importing the implementation modules populates the registry.
from . import rule_based as _rule_based  # noqa: F401
from . import learned as _learned        # noqa: F401
from . import diffusion as _diffusion    # noqa: F401

from .diffusion import LatentDiffusionCodec
from .learned import (CDCEpsCodec, CDCXCodec, GCDCodec, LearnedCodec,
                      VAESRCodec)
from .rule_based import (DPCMCodec, FAZCodec, MGARDCodec, RuleBasedCodec,
                         SZCodec, TTHRESHCodec, ZFPCodec)

__all__ = [
    "Codec", "CodecCapabilities", "CodecResult", "CodecSpec",
    "register_codec", "get_codec", "codec_class", "list_codecs",
    "codec_specs", "as_codec", "codec_from_spec",
    "pack_envelope", "unpack_envelope", "is_envelope", "peek_envelope",
    "RuleBasedCodec", "SZCodec", "ZFPCodec", "TTHRESHCodec", "MGARDCodec",
    "DPCMCodec", "FAZCodec",
    "LearnedCodec", "CDCEpsCodec", "CDCXCodec", "GCDCodec", "VAESRCodec",
    "LatentDiffusionCodec",
]
