"""CLI coverage for the codec registry (`codecs`, `--codec NAME`)."""

import numpy as np
import pytest

from repro.cli import main
from repro.codecs import list_codecs
from repro.data import E3SMSynthetic
from repro.metrics import nrmse


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_codecs")
    frames = E3SMSynthetic(t=12, h=16, w=16, seed=4).frames(0)
    path = root / "frames.npy"
    np.save(path, frames)
    return root, path, frames


def test_codecs_lists_registry(capsys):
    assert main(["codecs"]) == 0
    out = capsys.readouterr().out
    for name in list_codecs():
        assert name in out


@pytest.mark.parametrize("codec", ["szlike", "zfplike", "tthresh",
                                   "mgard", "dpcm", "fazlike"])
def test_rule_based_codec_roundtrip(codec, data_file, capsys):
    root, path, frames = data_file
    stream = root / f"{codec}.bin"
    out = root / f"{codec}.npy"
    rc = main(["compress", str(path), str(stream),
               "--codec", codec, "--nrmse-bound", "0.02"])
    assert rc == 0
    assert "ratio=" in capsys.readouterr().out
    rc = main(["info", str(stream)])
    assert rc == 0
    assert codec in capsys.readouterr().out
    rc = main(["decompress", str(stream), str(out)])
    assert rc == 0
    restored = np.load(out)
    assert restored.shape == frames.shape
    assert nrmse(frames, restored) <= 0.02 * (1 + 1e-9)


def test_rule_based_codec_requires_bound(data_file, capsys):
    root, path, _ = data_file
    rc = main(["compress", str(path), str(root / "x.bin"),
               "--codec", "szlike"])
    assert rc == 2
    assert "bound" in capsys.readouterr().err


def test_decompress_codec_mismatch_detected(data_file, capsys):
    root, path, _ = data_file
    stream = root / "sz_mismatch.bin"
    assert main(["compress", str(path), str(stream),
                 "--codec", "szlike", "--nrmse-bound", "0.05"]) == 0
    capsys.readouterr()
    rc = main(["decompress", str(stream), str(root / "y.npy"),
               "--codec", "mgard"])
    assert rc == 2
    assert "szlike" in capsys.readouterr().err
