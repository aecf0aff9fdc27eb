"""CLI surface of the seekable-archive work: ``decompress --select``,
``compress --chunk-shards`` and the ``info`` index table."""

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_select")
    rng = np.random.default_rng(4)
    frames = np.cumsum(rng.standard_normal((24, 8, 8)), axis=0)
    data = root / "stack.npy"
    np.save(data, frames)
    archive = root / "stack.shrd"
    rc = main(["compress", str(data), str(archive),
               "--codec", "szlike", "--nrmse-bound", "1e-3",
               "--shards", "4", "--executor", "serial"])
    assert rc == 0
    out = root / "full.npy"
    assert main(["decompress", str(archive), str(out)]) == 0
    return root, data, archive, np.load(out)


class TestDecompressSelect:
    def test_time_range(self, workspace, tmp_path):
        root, _, archive, full = workspace
        out = tmp_path / "window.npy"
        rc = main(["decompress", str(archive), str(out),
                   "--select", "5:17"])
        assert rc == 0
        np.testing.assert_array_equal(np.load(out), full[5:17])

    def test_shard_id(self, workspace, tmp_path, capsys):
        root, _, archive, full = workspace
        out = tmp_path / "shard.npy"
        rc = main(["decompress", str(archive), str(out),
                   "--select", "stack/v0/t0006-0012"])
        assert rc == 0
        assert "(partial)" in capsys.readouterr().out
        np.testing.assert_array_equal(np.load(out), full[6:12])

    def test_repeated_selects_union(self, workspace, tmp_path):
        root, _, archive, full = workspace
        out = tmp_path / "union.npy"
        rc = main(["decompress", str(archive), str(out),
                   "--select", "stack/v0/t0000-0006",
                   "--select", "stack/v0/t0006-0012"])
        assert rc == 0
        np.testing.assert_array_equal(np.load(out), full[:12])

    def test_variable_number(self, workspace, tmp_path):
        root, _, archive, full = workspace
        out = tmp_path / "var.npy"
        rc = main(["decompress", str(archive), str(out),
                   "--select", "0"])
        assert rc == 0
        np.testing.assert_array_equal(np.load(out), full)

    def test_bad_range_is_user_error(self, workspace, tmp_path):
        _, _, archive, _ = workspace
        out = tmp_path / "x.npy"
        assert main(["decompress", str(archive), str(out),
                     "--select", "a:b"]) == 2
        assert main(["decompress", str(archive), str(out),
                     "--select", "no/such/shard"]) == 2


class TestInfoIndex:
    def test_info_prints_index_table(self, workspace, capsys):
        _, _, archive, _ = workspace
        assert main(["info", str(archive)]) == 0
        out = capsys.readouterr().out
        assert "seekable footer index" in out
        assert "crc=" in out
        assert "stack/v0/t0000-0006" in out


class TestCompressChunked:
    def test_chunked_cli_is_byte_identical(self, workspace, tmp_path):
        _, data, archive, _ = workspace
        chunked = tmp_path / "chunked.shrd"
        rc = main(["compress", str(data), str(chunked),
                   "--codec", "szlike", "--nrmse-bound", "1e-3",
                   "--shards", "4", "--chunk-shards", "2",
                   "--executor", "serial"])
        assert rc == 0
        assert chunked.read_bytes() == archive.read_bytes()
