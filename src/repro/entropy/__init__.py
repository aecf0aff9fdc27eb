"""``repro.entropy`` — lossless entropy-coding substrate.

Implements the pieces the paper's rate model relies on (Sec. 3.1):

* a binary arithmetic coder (:mod:`repro.entropy.rangecoder`) standing
  in for the reference "arithmetic coding [33]";
* the non-parametric fully factorized density of Ballé et al. for the
  hyper-latent ``z`` (:mod:`repro.entropy.factorized`);
* the Gaussian conditional model ``p(y | mu, sigma)`` of Eq. 1–2
  (:mod:`repro.entropy.gaussian`);
* symbol-stream helpers tying models to the coder
  (:mod:`repro.entropy.coder`);
* an alternative scalar rANS backend with the same table interface
  (:mod:`repro.entropy.rans`);
* a lane-vectorized interleaved rANS backend — the fast path
  (:mod:`repro.entropy.vrans`);
* a table-cached LUT rANS backend — fast path round 2, with O(1)
  symbol decode and a process-wide :class:`TableCache` that reuses
  rescale/LUT work across windows (:mod:`repro.entropy.tablecoder`);
* the pluggable backend registry tying them together
  (:mod:`repro.entropy.backend`): ``get_backend("arithmetic" | "rans"
  | "vrans" | "trans")``, one-byte wire tags for container headers,
  and a per-job default selection (a context variable, so each thread
  has its own) that ``Session(entropy_backend=...)`` sets with
  ``using_backend``.

Strict decoders raise :class:`EntropyDecodeError` (a ``ValueError``)
on corrupted streams instead of returning garbage.
"""

from .backend import (DEFAULT_BACKEND, LEGACY_TAG, EntropyBackend,
                      backend_from_tag, get_backend,
                      get_default_backend, list_backends,
                      register_backend, using_backend)
from .coder import (EntropyDecodeError, check_contexts, decode_symbols,
                    encode_symbols)
from .factorized import FactorizedDensity
from .gaussian import (SCALE_MIN, GaussianConditional, gaussian_likelihood,
                       build_scale_table)
from .rangecoder import ArithmeticDecoder, ArithmeticEncoder
from .rans import (RansDecoder, RansEncoder, decode_symbols_rans,
                   encode_symbols_rans)
from .tablecoder import (TableCache, decode_symbols_trans,
                         encode_symbols_trans, get_table_cache)
from .vrans import decode_symbols_vrans, encode_symbols_vrans
from .bitio import BitReader, BitWriter

__all__ = [
    "ArithmeticEncoder", "ArithmeticDecoder", "BitReader", "BitWriter",
    "FactorizedDensity", "GaussianConditional", "gaussian_likelihood",
    "build_scale_table", "SCALE_MIN", "encode_symbols", "decode_symbols",
    "check_contexts", "RansEncoder", "RansDecoder", "encode_symbols_rans",
    "decode_symbols_rans", "encode_symbols_vrans", "decode_symbols_vrans",
    "encode_symbols_trans", "decode_symbols_trans", "TableCache",
    "get_table_cache", "EntropyDecodeError",
    "EntropyBackend", "get_backend", "backend_from_tag", "list_backends",
    "register_backend", "get_default_backend", "using_backend",
    "DEFAULT_BACKEND", "LEGACY_TAG",
]
