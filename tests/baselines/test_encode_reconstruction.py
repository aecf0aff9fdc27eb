"""The rule-based encoders report the decoder's output, bit for bit.

Every baseline's ``encode(frames, bound) -> (payload, reconstruction)``
must return exactly what ``decompress(payload)`` produces, because
:class:`~repro.codecs.rule_based.RuleBasedCodec` reports that array
(and its NRMSE) without decoding the payload.  ``compress`` must keep
writing the same bytes as ``encode``.
"""

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro.baselines import (DPCMCompressor, FAZLikeCompressor,
                             MGARDLikeCompressor, SZLikeCompressor,
                             TTHRESHLikeCompressor, ZFPLikeCompressor)

#: one constructor per baseline, each over the parameter that changes
#: the stream's structure
_CODERS = {
    "szlike": (SZLikeCompressor, "max_level", st.integers(1, 5)),
    "mgard": (MGARDLikeCompressor, "levels", st.integers(1, 4)),
    "fazlike": (FAZLikeCompressor, "levels", st.integers(1, 3)),
    "dpcm": (DPCMCompressor, "order", st.sampled_from([1, 2])),
    "tthresh": (TTHRESHLikeCompressor, "truncation_share",
                st.sampled_from([0.0, 0.1, 0.5])),
    "zfplike": (ZFPLikeCompressor, None, st.none()),
}


@st.composite
def _stacks(draw):
    # T from 1; H and W mostly not multiples of 4 (zfplike pads them)
    shape = (draw(st.integers(1, 9)), draw(st.integers(1, 13)),
             draw(st.integers(1, 13)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.floats(1e-3, 1e3))
    offset = scale * draw(st.floats(-10.0, 10.0))
    if draw(st.booleans()):
        frames = np.full(shape, offset)
    else:
        smooth = rng.standard_normal(shape).cumsum(axis=1).cumsum(axis=2)
        frames = offset + scale * smooth
    # 1e-6 .. 1e-1 of the range (of the magnitude, for a constant stack)
    span = float(np.ptp(frames)) or max(abs(offset), 1.0)
    bound = 10.0 ** draw(st.floats(-6.0, -1.0)) * span
    return frames, bound


@pytest.mark.parametrize("name", sorted(_CODERS))
@settings(max_examples=100, deadline=None)
@given(case=_stacks(), data=st.data())
def test_encode_reconstruction_is_the_decode(name, case, data):
    cls, param, values = _CODERS[name]
    value = data.draw(values)
    impl = cls() if param is None else cls(**{param: value})
    frames, bound = case
    try:
        payload, recon = impl.encode(frames, bound)
    except RuntimeError as exc:
        # TTHRESH stores float32 factors and refuses an RMSE bound
        # below their rounding error on data far from zero
        if name != "tthresh" or "RMSE bound" not in str(exc):
            raise
        reject()
    assert payload == impl.compress(frames, bound)
    decoded = impl.decompress(payload)
    assert recon.shape == decoded.shape == frames.shape
    assert recon.dtype == decoded.dtype == np.float64
    # bitwise: tobytes also tells -0.0 from 0.0
    assert recon.tobytes() == decoded.tobytes()
