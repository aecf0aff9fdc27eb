"""Rule-based compress through ``Session``: what it decodes, what it
refuses.

* Compress builds the reconstruction on the encoder side, so no
  ``Session.compress`` path may entropy-decode a payload it just wrote
  (counted at every ``decode_ints`` binding, as a tracer would).
* Non-finite frames are rejected with one ``ValueError`` naming the
  count and the first bad index, under either bound kind, before the
  NRMSE normalization can turn them into a NaN bound.
"""

import contextlib
import sys
from unittest import mock

import numpy as np
import pytest

from repro.api import Bound, Session
from repro.data import get_dataset_spec
from repro.postprocess import coding

RULE_BASED = ("dpcm", "fazlike", "mgard", "szlike", "tthresh", "zfplike")
BOUND = Bound.nrmse(1e-2)
SHAPE = {"t": 8, "h": 16, "w": 16}


@contextlib.contextmanager
def counting_decode_ints():
    """Count ``decode_ints`` calls through every module that binds it."""
    calls = []
    original = coding.decode_ints

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    with contextlib.ExitStack() as stack:
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, "decode_ints", None) is original):
                stack.enter_context(
                    mock.patch.object(module, "decode_ints", counted))
        yield calls


@pytest.fixture(scope="module")
def frames():
    return get_dataset_spec("e3sm", seed=4, **SHAPE).build().frames(0)


def _sources(frames, tmp_path):
    npy = tmp_path / "frames.npy"
    np.save(npy, frames)
    return {
        "stack": (frames, {}),
        "shards": (frames, {"shards": 2}),
        "chunked-npy": (str(npy), {"shards": 4, "chunk_shards": 1}),
        "dataset-plan": ("e3sm", {"variables": [0, 1], "shards": 2,
                                  "dataset_overrides": dict(SHAPE,
                                                            seed=4)}),
        "multivar": ({"a": frames, "b": 2.0 * frames + 1.0}, {}),
        "stream": (None, {}),
    }


@pytest.mark.parametrize("name", RULE_BASED)
def test_compress_decodes_nothing(name, frames, tmp_path):
    with Session(codec=name, executor="serial") as session:
        for path, (source, kw) in _sources(frames, tmp_path).items():
            if path == "stream":
                source = iter(list(frames))
            with counting_decode_ints() as calls:
                archive = session.compress(source, bound=BOUND, **kw)
            assert calls == [], (path, len(calls))
            # the counter does see the codec's decoder
            with counting_decode_ints() as calls:
                session.decompress(archive)
            assert calls, path


def _with_bad_value(frames, value):
    bad = np.array(frames, dtype=np.float64)
    bad[3, 5, 7] = value
    return bad


@pytest.mark.parametrize("name", RULE_BASED)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                         ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("bound", [Bound.pointwise(0.1), BOUND],
                         ids=["pointwise", "nrmse"])
def test_non_finite_frames_rejected(name, value, bound):
    frames = get_dataset_spec("e3sm", t=12, h=16, w=16,
                              seed=0).build().frames(0)
    with Session(codec=name, executor="serial") as session:
        with pytest.raises(ValueError, match=(
                rf"^{name} cannot compress non-finite input: 1 of 3072 "
                rf"values are NaN or infinite \(first at index "
                rf"\(3, 5, 7\)\)$")):
            session.compress(_with_bad_value(frames, value), bound=bound)


def test_non_finite_rejected_in_a_shard_worker(frames):
    """The engine path raises the same error from its worker; the index
    is the one inside the shard."""
    bad = np.array(frames)
    bad[6, 0, 1] = np.inf  # frame 2 of the second 4-frame shard
    with Session(codec="szlike", executor="thread",
                 workers=2) as session:
        with pytest.raises(ValueError, match=r"1 of 1024 values .* "
                                             r"\(first at index \(2, 0, 1\)\)"):
            session.compress(bad, bound=BOUND, shards=2)
