"""CLI coverage for the dataset registry, shard planner and executors
(`datasets`, `--dataset`, `--shards`, `--executor`)."""

import numpy as np
import pytest

from repro.cli import main
from repro.data import get_dataset, list_datasets
from repro.metrics import nrmse


def test_datasets_lists_registry(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    for name in list_datasets():
        assert name in out
    assert "Climate" in out and "Combustion" in out


@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
def test_dataset_sharded_roundtrip(executor, tmp_path, capsys):
    stream = tmp_path / f"s3d-{executor}.cdx"
    out = tmp_path / f"s3d-{executor}.npy"
    rc = main(["compress", "--dataset", "s3d", "--codec", "szlike",
               "--executor", executor, "--shards", "4",
               "--nrmse-bound", "0.02", str(stream)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "shards=4" in printed and f"executor={executor}" in printed
    assert main(["decompress", str(stream), str(out)]) == 0
    restored = np.load(out)
    original = get_dataset("s3d").frames(0)
    assert restored.shape == original.shape
    assert nrmse(original, restored) <= 0.02 * (1 + 1e-9)


def test_dataset_mode_defaults_output_and_bound(tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.chdir(tmp_path)
    # the acceptance-criteria invocation, verbatim
    rc = main(["compress", "--dataset", "s3d", "--codec", "szlike",
               "--executor", "process", "--shards", "8"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "defaulting to --nrmse-bound" in printed
    assert (tmp_path / "s3d-szlike.cdx").exists()
    assert main(["decompress", "s3d-szlike.cdx", "back.npy"]) == 0
    restored = np.load(tmp_path / "back.npy")
    original = get_dataset("s3d").frames(0)
    assert nrmse(original, restored) <= 0.01 * (1 + 1e-9)


def test_sharded_executors_produce_identical_archives(tmp_path):
    streams = {}
    for executor in ("serial", "process"):
        stream = tmp_path / f"jh-{executor}.cdx"
        rc = main(["compress", "--dataset", "jhtdb", "--codec", "dpcm",
                   "--executor", executor, "--shards", "3",
                   "--nrmse-bound", "0.05", str(stream)])
        assert rc == 0
        streams[executor] = stream.read_bytes()
    assert streams["serial"] == streams["process"]


def test_npy_file_sharded_roundtrip(tmp_path, capsys):
    frames = get_dataset("e3sm", t=10, h=16, w=16, seed=5).frames(0)
    data = tmp_path / "frames.npy"
    np.save(data, frames)
    stream = tmp_path / "frames.cdx"
    out = tmp_path / "restored.npy"
    rc = main(["compress", str(data), str(stream),
               "--codec", "zfplike", "--shards", "3",
               "--nrmse-bound", "0.02"])
    assert rc == 0
    assert main(["info", str(stream)]) == 0
    info = capsys.readouterr().out
    assert "3 shards" in info and "frames/v0/" in info
    assert main(["decompress", str(stream), str(out)]) == 0
    restored = np.load(out)
    assert restored.shape == frames.shape
    assert nrmse(frames, restored) <= 0.02 * (1 + 1e-9)


def test_unknown_dataset_lists_registered(capsys):
    rc = main(["compress", "--dataset", "nope", "--codec", "szlike",
               "--nrmse-bound", "0.01"])
    assert rc == 2
    err = capsys.readouterr().err
    for name in list_datasets():
        assert name in err


def test_unknown_codec_lists_registered(capsys):
    rc = main(["compress", "--dataset", "s3d", "--codec", "nope"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "szlike" in err and "ours" in err and "tthresh" in err


def test_dataset_mode_rejects_input_file(tmp_path, capsys):
    data = tmp_path / "frames.npy"
    np.save(data, np.zeros((4, 8, 8)))
    rc = main(["compress", str(data), str(tmp_path / "x.cdx"),
               "--dataset", "s3d", "--codec", "szlike",
               "--nrmse-bound", "0.01"])
    assert rc == 2
    assert "generates its own frames" in capsys.readouterr().err


def test_missing_input_mentions_dataset_flag(capsys):
    rc = main(["compress", "--codec", "szlike", "--nrmse-bound", "0.01"])
    assert rc == 2
    assert "--dataset" in capsys.readouterr().err


def test_decompress_shard_archive_codec_mismatch(tmp_path, capsys):
    stream = tmp_path / "a.cdx"
    rc = main(["compress", "--dataset", "e3sm", "--codec", "szlike",
               "--shards", "2", "--nrmse-bound", "0.05",
               str(stream)])
    assert rc == 0
    rc = main(["decompress", str(stream), str(tmp_path / "b.npy"),
               "--codec", "mgard"])
    assert rc == 2
    assert "szlike" in capsys.readouterr().err


def test_npy_variable_stack_roundtrip(tmp_path, capsys):
    """A (V, T, H, W) .npy compresses to one named member per variable,
    prints the shard line every multi-member archive reports, and
    decompresses with its variables in their original order (eleven,
    so name order ``var0, var1, var10, ...`` would differ)."""
    rng = np.random.default_rng(5)
    frames = np.stack([v + np.cumsum(rng.standard_normal((4, 8, 8)),
                                     axis=0) for v in range(0, 110, 10)])
    data = tmp_path / "vars.npy"
    np.save(data, frames)
    stream = tmp_path / "vars.shrd"
    out = tmp_path / "restored.npy"
    rc = main(["compress", str(data), str(stream),
               "--codec", "szlike", "--nrmse-bound", "0.02",
               "--executor", "serial"])
    assert rc == 0
    line = capsys.readouterr().out
    assert "shards=11 executor=serial" in line and str(stream) in line
    assert main(["decompress", str(stream), str(out)]) == 0
    assert "(var0, var1, var2," in capsys.readouterr().out
    restored = np.load(out)
    assert restored.shape == frames.shape
    for v in range(11):
        assert nrmse(frames[v], restored[v]) <= 0.02 * (1 + 1e-9)
