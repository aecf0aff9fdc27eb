"""Multi-member layouts of earlier releases still decode, bit for bit.

Every multi-member archive is now a ``SHRD`` v2 shard archive.  Before
that, variable mappings were written as ``LDMV`` v1–3, frame streams as
``LDSA`` v1–2, and shard archives without a footer as ``SHRD`` v1.
``data/legacy_archives.npz`` holds one archive of each layout, written
by the last release that wrote them, plus that release's ``SHRD`` v2
and bare ``CDX1``/``LDCB`` archives:

* rule-based (szlike) archives are pinned by the sha256 of their
  decode, recorded with that release's decoder;
* ``ours`` archives (an untrained tiny pipeline, smoke quality) are
  pinned by the sha256 of the bytes each reader hands the decoder, and
  their decode must equal the bare-blob decode of those bytes under
  the same ``get_codec("ours")``, so nn rounding drift cannot break
  the pins.

The ``SHRD`` fixtures are the 4-shard archive of
``tests/api/test_partial_decode.py``; the ``LDMV`` v2/v3 fixtures are
that module's ``TestMultivarFullDecode`` mapping.
"""

import hashlib
import pathlib

import numpy as np
import pytest

from repro.api import Archive, Session
from repro.cli import main
from repro.codecs import get_codec
from repro.pipeline.plan import read_members

DATA = pathlib.Path(__file__).parent / "data"
FIXTURES = np.load(DATA / "legacy_archives.npz")

_SHARDS = ("8f56ba2aba29a9baafc2b65825b2fcfa"
           "22a38c061aaba840d40400839967aeff")
_MAPPING = {"u": "b77ad58cf2ae45c7991a4f2bfbbd9f57"
                 "6f1b9226d91616b584beefd3ba12ec39",
            "v": "620a3b221cddbbb4a4d9f13225af2dbf"
                 "e6c208cb63684c707a32d786f8a81c8e"}
_OURS_BLOB = ("bced935ce4cdd2e46b12fc045db35aef"
              "dc2262ffea194c9d04b893ac158bb63d")

#: name -> (sha256 of the fixture, sniffed kind, rows from a footer,
#: pin): the pin is the decode's sha256 (one digest, or one per
#: variable) for szlike, and the sha256 of the bytes handed to the
#: decoder (one per member) for ours
LEGACY = {
    "shrd-v1-szlike": ("23d931660bc10d78c94889168f0f4b0d"
                       "5e8086910fbd9c7d1d4a94f53aa75d16",
                       "shard", False, _SHARDS),
    "shrd-v2-szlike": ("4f3dde1be683a004c556d1163b57609e"
                       "7fdc73c274fd9563966687300cc361be",
                       "shard", True, _SHARDS),
    "ldmv-v1-ours": ("d1ffd1256dca3973f3126139ec3cc63d"
                     "60d2df83b23c94876bdbdaadb27f326d",
                     "multivar", False,
                     [_OURS_BLOB,
                      "4bb5e118543ceb85ae96ba31b2a4b821"
                      "81a2c31c4a72c61187205f04a2e153fc"]),
    "ldmv-v2-szlike": ("cf8b5ba3e46e35a20fe43fc4f114410c"
                       "57543242c3b1912db2797bc3ba6b268f",
                       "multivar", False, _MAPPING),
    "ldmv-v3-szlike": ("76b38d7f707e22e29a169515ceeebad8"
                       "f6b41bed03132577ce7b952096bd400c",
                       "multivar", True, _MAPPING),
    "ldsa-v1-ours": ("1b67f60e5a0b3c1f6b53db1140d09c12"
                     "e3822038c79c186b9642b641536ad888",
                     "stream", False,
                     ["42fe62dc0be00cbe374627621c0ebbed"
                      "14be5d646355a1ec8db770ee0ec5dd5c",
                      "6d6db3d6a8b44487ca04d534be3e8a5f"
                      "47a526a6c811ba544be9628497087025"]),
    "ldsa-v2-szlike": ("4be94b0aed7cc5c060ae93cd84270155"
                       "28ddcbdbcc34b8609d140256345ce4c3",
                       "stream", False,
                       "e80a75c5f3f7f7452e84c8629d264ca7"
                       "e3e5819943be922f2d4eb49d5c7b7afe"),
    "cdx1-szlike": ("1e88bea4798a1387bbf1361f386e7c1e"
                    "ea99e1d18813fe95dc11762cdb163f95",
                    "envelope", False, _MAPPING["u"]),
    "ldcb-ours": (_OURS_BLOB, "blob", False, [_OURS_BLOB]),
}

#: member keys and frame ranges the legacy rows synthesize
ROWS = {
    "shrd-v1-szlike": [(f"stack/v0/t{a:04d}-{a + 6:04d}", 0, a, a + 6)
                       for a in range(0, 24, 6)],
    "ldmv-v1-ours": [("var0", 0, 0, 0), ("var1", 1, 0, 0)],
    "ldmv-v2-szlike": [("u", 0, 0, 0), ("v", 1, 0, 0)],
    "ldmv-v3-szlike": [("u", 0, 0, 0), ("v", 1, 0, 0)],
    "ldsa-v1-ours": [("stack/v0/t0000-0006", 0, 0, 6),
                     ("stack/v0/t0006-0012", 0, 6, 12)],
    "ldsa-v2-szlike": [(f"stack/v0/t{a:04d}-{a + 4:04d}", 0, a, a + 4)
                       for a in range(0, 16, 4)],
}
ROWS["shrd-v2-szlike"] = ROWS["shrd-v1-szlike"]


def legacy_archive(name: str) -> bytes:
    """One frozen fixture, as the bytes it was written as."""
    return FIXTURES[name].tobytes()


def _sha(data) -> str:
    return hashlib.sha256(bytes(data)).hexdigest()


@pytest.fixture(scope="module")
def ours():
    return get_codec("ours")


@pytest.fixture(scope="module")
def session(ours):
    with Session(codec=ours, executor="serial") as s:
        yield s


def test_every_fixture_is_listed():
    assert sorted(FIXTURES.files) == sorted(LEGACY)


@pytest.mark.parametrize("name", sorted(LEGACY))
def test_fixture_decodes_as_written(name, session, ours):
    data = legacy_archive(name)
    digest, kind, indexed, pin = LEGACY[name]
    assert _sha(data) == digest
    archive = Archive.open(data)
    assert (archive.kind, archive.indexed()) == (kind, indexed)
    out = session.decompress(archive)
    if name.endswith("-szlike"):
        if isinstance(out, dict):
            assert {k: _sha(v.tobytes()) for k, v in out.items()} == pin
        else:
            assert _sha(out.tobytes()) == pin
        return
    # ours: pin what the readers hand the decoder, then check the
    # decode against the bare decode of those bytes
    if kind == "blob":
        handed = [(None, data)]
    else:
        handed = [(m.key, payload) for m, _, payload in read_members(data)]
    assert [_sha(payload) for _, payload in handed] == pin
    bare = [ours.decompress(payload) for _, payload in handed]
    if isinstance(out, dict):
        assert list(out) == [key for key, _ in handed]
        for (key, _), ref in zip(handed, bare):
            np.testing.assert_array_equal(out[key], ref)
    else:
        np.testing.assert_array_equal(out, np.concatenate(bare))


@pytest.mark.parametrize("name", sorted(ROWS))
def test_rows_codecs_and_describe(name):
    archive = Archive.open(legacy_archive(name))
    rows = [(m.key, m.variable, m.t0, m.t1) for m in archive.index()]
    assert rows == ROWS[name]
    codec = "ours" if name.endswith("-ours") else "szlike"
    assert archive.codecs() == [codec]
    info = archive.describe()
    assert info["kind"] == LEGACY[name][1]
    assert info["indexed"] == LEGACY[name][2]
    assert [(e["shard_id"], e["variable"], e["t0"], e["t1"])
            for e in info["entries"]] == ROWS[name]
    assert {e["codec"] for e in info["entries"]} == {codec}
    assert info["variables"] == sorted({v for _, v, _, _ in rows})


@pytest.mark.parametrize("name", sorted(ROWS))
def test_select_matches_full_decode(name, session):
    data = legacy_archive(name)
    full = session.decompress(data)
    key, variable, t0, t1 = ROWS[name][-1]
    by_key = session.decompress(data, select=key)
    if isinstance(full, dict):
        np.testing.assert_array_equal(by_key[key], full[key])
        by_position = session.decompress(data, select=variable)
        assert list(by_position) == [key]
        return
    np.testing.assert_array_equal(by_key, full[t0:t1])
    # a range straddling the last member boundary, trimmed exactly
    a, b = t0 - 1, t1 - 1
    np.testing.assert_array_equal(
        session.decompress(data, select=slice(a, b)), full[a:b])


@pytest.mark.parametrize("name", ["ldmv-v2-szlike", "ldsa-v2-szlike",
                                  "shrd-v1-szlike"])
def test_info_renders_legacy_layouts_as_shard_archives(name, tmp_path,
                                                       capsys):
    path = tmp_path / "legacy.bin"
    path.write_bytes(legacy_archive(name))
    assert main(["info", str(path)]) == 0
    out = capsys.readouterr().out
    kind = LEGACY[name][1]
    assert (f"shard archive    : {len(ROWS[name])} shards" in out)
    assert f"no footer (legacy {kind} layout, scanned)" in out
    for key, _, _, _ in ROWS[name]:
        assert key in out
