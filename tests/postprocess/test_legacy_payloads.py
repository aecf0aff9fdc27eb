"""Bytes written in the fixed-width integer format still decode, bit
for bit.

Before :func:`~repro.postprocess.coding.encode_ints` wrote LEB128
headers, every integer stream was ``RI``/``RT``/``RV`` with a 22-byte
header and a u32 per histogram bin.  Each fixture in
``data/legacy_payloads.npz`` is a byte string of that version: the
payloads and archives that tier-1 tests pinned by sha256, one ``RT``
stream per non-default backend and one ``RV`` stream.  The decode
digests were recorded with that version's decoder.
"""

import hashlib
import pathlib

import numpy as np
import pytest

from repro.api import Archive, Session
from repro.codecs import get_codec
from repro.data import get_dataset_spec
from repro.postprocess.coding import decode_ints

DATA = pathlib.Path(__file__).parent / "data"
FIXTURES = np.load(DATA / "legacy_payloads.npz")

_MULTIVAR = {"u": "b77ad58cf2ae45c7991a4f2bfbbd9f57"
                  "6f1b9226d91616b584beefd3ba12ec39",
             "v": "620a3b221cddbbb4a4d9f13225af2dbf"
                  "e6c208cb63684c707a32d786f8a81c8e"}
_RAMP = ("7bb347c8a8b46f2e8ab416532fbf227e"
         "5cbcd6e678943a53498396c5f05c4991")

#: name -> (sha256 of the fixture, sha256 of its decoded output)
LEGACY = {
    "ints-RI": ("6d01591d4fd89df821ec45bd34c4f6c3"
                "aef0156f770216b305dd0db176e9236f",
                "ef9508488bc93755f262d93c0d0b65d4"
                "9f161b3a5121a2879e4afb1815b9cde4"),
    "ints-RI-ramp": ("3d64c2d209b47251e20cf5d908d248fa"
                     "0b25a1ed9b8b575b4c20f44881c83d5c", _RAMP),
    "ints-RT-rans": ("c9680cc353e8efe14389be2f150866d0"
                     "2d9f91d2bf35c65288b393bd8016ce60", _RAMP),
    "ints-RT-vrans": ("1fdf47a17482974909d330b0a59c19d9"
                      "48517629086d17f5a86b85ae2eafbf78", _RAMP),
    "ints-RT-trans": ("c71042f33c2abd0295ee1e8d36818817"
                      "deb66a0bed04eaa06727d92644b00034", _RAMP),
    "ints-RV": ("223e1520343c89c5af686e12aa3449dc"
                "013efb5766dd56adabeb28338039f765",
                "1b0778dc79d6e74273e85e92290934bd"
                "6a0e298b983e14b7de000012a9099095"),
    "payload-dpcm-0.01": ("338e3255cf1c92a1a8af0ecb39b60508"
                          "98365dc3768c06f361c4ae942abb00ee",
                          "eba3c4397262bba3961c2fbba4e9e3b1"
                          "25a9d54282f5a82aec12e0bb3d37d7e7"),
    "payload-mgard-0.01": ("8f9acf8ae2ef8919a75a44e5eeb7dc4f"
                           "171069faad680ad0a884c8d4798cb3de",
                           "5e8265a99bb9c1ce30e9021ed0938612"
                           "4b09fe6ce8dadfd3e709fc5ba592f1ea"),
    "payload-zfplike-0.01": ("14c33167f825c540cd421f410776ab92"
                             "b2cf5b3d1870f42b2c6835ec78e33021",
                             "276c6a0c6238795338e202139a8d6da3"
                             "48763520655bdb6808a2817a49fa4ffa"),
    "payload-tthresh-0.01": ("0f3b89a413f513efa85cb3562d694e3a"
                             "a0850a11bf25cb6291566b61049969a8",
                             "c7d7ad8e74edda620ab2ec89a568750f"
                             "4d582791c67b67976a1c1db69f59d710"),
    "payload-fazlike-0.01": ("e7d341bf16dbf109f9335206f46746b3"
                             "359352b03ae447a5db832cdcac074e98",
                             "9c86dec9f68f89a34c677a021688c535"
                             "2ef16d65a04ef7ade6245226f3551713"),
    "payload-fazlike-0.1": ("9686df66fc3117717c1af2ed8284ec04"
                            "a2ba21f3423e5fb55bc41f79ab5a06e8",
                            "6db3fddc1d3192731a4fd3757c75d174"
                            "442797ee836fc4c433939b9b2b4aa128"),
    "archive-szlike-shards4": ("85f5d14048b92cee3eebbf2045f7a6e5"
                               "de205b4cc079d2f6a2a733d26c04dc81",
                               "4021cb1e2ffda0f74a44f30b43283931"
                               "27f2af7b00005cdd5239ec4793a6dd25"),
    "archive-szlike-inmemory6": ("2a7a59eb5d5ff16149690b779993dfa5"
                                 "29a0c7d6c27cafc4ba844bcc8de38595",
                                 "093fae732dcf8579b5d94074bed735e9"
                                 "8fc37ec8fdc825d36c4eb2b299cc6450"),
    "archive-szlike-dataset": ("314761520d31aa36d54c341e704bb119"
                               "57d705d6adaeb439a86010f62e8f4e63",
                               "35d563608f9c0646f5570b3cdaac3019"
                               "13d974f38cf450812fe3e45aad3c106c"),
    "archive-dpcm-dataset": ("c54f27a9e4f56c53df369ced048aa4dd"
                             "3d690218550154c443465ff66c103b6b",
                             "843d5433611b920a4ef90ae54aa52ae9"
                             "de9206acbd36af87273903ca1d354f37"),
    "archive-multivar-v3": ("3c9df097f40ae43bfcf32791ea7f2310"
                            "bd6870bc080c7f3aaf5d7262c96b047b",
                            _MULTIVAR),
    "archive-multivar-v2": ("34908f853797466b96fd9e7eacdff3e9"
                            "89900b19dcaa4320bc47d6e7818e69fc",
                            _MULTIVAR),
}


def legacy_bytes(name: str) -> bytes:
    """One frozen fixture, as the bytes it was written as."""
    return FIXTURES[name].tobytes()


def _sha(data) -> str:
    return hashlib.sha256(bytes(data)).hexdigest()


def _decode(name: str, data: bytes):
    kind, rest = name.split("-", 1)
    if kind == "ints":
        values, end = decode_ints(data)
        assert end == len(data)
        return values
    if kind == "payload":
        return get_codec(rest.split("-")[0]).decompress(data)
    with Session(codec="szlike", executor="serial") as session:
        return session.decompress(Archive.open(data))


def test_every_fixture_is_listed():
    assert sorted(FIXTURES.files) == sorted(LEGACY)


@pytest.mark.parametrize("name", sorted(LEGACY))
def test_fixture_decodes_as_written(name):
    data = legacy_bytes(name)
    digest, decoded = LEGACY[name]
    assert _sha(data) == digest
    out = _decode(name, data)
    if isinstance(out, dict):
        assert {k: _sha(v.tobytes()) for k, v in out.items()} == decoded
    else:
        assert _sha(np.ascontiguousarray(out).tobytes()) == decoded


@pytest.mark.parametrize("name", sorted(n for n in LEGACY
                                        if n.startswith("ints-")))
def test_integer_fixtures_carry_legacy_magic(name):
    assert legacy_bytes(name)[:2] == name.split("-")[1].encode()


@pytest.mark.parametrize("name", sorted(n for n in LEGACY
                                        if n.startswith("payload-")))
def test_todays_payload_decodes_to_the_same_array(name):
    """Only the framing of the integer streams changed: the payload
    written today for the fixture's input (e3sm 12x20x20, seed 3)
    decodes to the fixture's array."""
    _, codec_name, rel = name.split("-")
    frames = get_dataset_spec("e3sm", t=12, h=20, w=20,
                              seed=3).build().frames(0)
    codec = get_codec(codec_name)
    payload = codec.compress(frames,
                             float(rel) * float(np.ptp(frames))).payload
    assert len(payload) < len(legacy_bytes(name))
    assert _sha(codec.decompress(payload).tobytes()) == LEGACY[name][1]
