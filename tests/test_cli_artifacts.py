"""CLI coverage for the generalized train command and artifact-backed
compression (`train --codec`, `--codec-artifact`, `info` provenance)."""

import numpy as np
import pytest

from repro.cli import main
from repro.metrics import nrmse


@pytest.fixture(scope="module")
def vae_sr_artifact(tmp_path_factory):
    """Train vae-sr on a tiny registered dataset through the CLI."""
    root = tmp_path_factory.mktemp("cli-artifacts")
    model = root / "vae-sr.npz"
    rc = main(["train", "--codec", "vae-sr", "--dataset", "e3sm",
               "--shape", "12x16x16", "--save", str(model),
               "--vae-iters", "3", "--sr-iters", "2", "--seed", "1"])
    assert rc == 0
    return root, model


class TestGeneralizedTrain:
    def test_artifact_written_with_provenance(self, vae_sr_artifact,
                                              capsys):
        _, model = vae_sr_artifact
        assert model.exists()
        rc = main(["info", str(model)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "model artifact   : vae-sr" in out
        assert "state hash" in out
        assert "name=e3sm" in out          # training dataset spec
        assert "vae_iters=3" in out        # training config

    def test_model_free_codec_rejected(self, tmp_path, capsys):
        rc = main(["train", "--codec", "szlike", "--dataset", "e3sm",
                   "--shape", "12x16x16",
                   "--save", str(tmp_path / "x.npz")])
        assert rc == 2
        assert "model-free" in capsys.readouterr().err

    def test_missing_save_path_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--codec", "vae-sr", "--dataset", "e3sm"])
        assert exc.value.code == 2
        assert "--save" in capsys.readouterr().err

    def test_missing_data_rejected(self, tmp_path, capsys):
        rc = main(["train", "--codec", "vae-sr",
                   "--save", str(tmp_path / "x.npz")])
        assert rc == 2
        assert "--dataset" in capsys.readouterr().err


class TestCompressWithArtifact:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_sharded_roundtrip(self, vae_sr_artifact, executor,
                               tmp_path, capsys):
        _, model = vae_sr_artifact
        stream = tmp_path / f"sweep-{executor}.cdx"
        rc = main(["compress", "--dataset", "e3sm", "--shape",
                   "12x16x16", "--codec", "vae-sr",
                   "--codec-artifact", str(model),
                   "--executor", executor, "--shards", "4",
                   "--nrmse-bound", "0.5",
                   str(stream)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "shards=4" in printed and f"executor={executor}" in printed
        out = tmp_path / f"back-{executor}.npy"
        rc = main(["decompress", str(stream), str(out),
                   "--codec-artifact", str(model)])
        assert rc == 0
        restored = np.load(out)
        from repro.data import get_dataset
        original = get_dataset("e3sm", t=12, h=16, w=16).frames(0)
        assert restored.shape == original.shape
        assert nrmse(original, restored) <= 0.5 * (1 + 1e-9)

    def test_backends_identical_archives(self, vae_sr_artifact,
                                         tmp_path):
        _, model = vae_sr_artifact
        blobs = {}
        for executor in ("serial", "thread", "process"):
            stream = tmp_path / f"eq-{executor}.cdx"
            rc = main(["compress", "--dataset", "e3sm", "--shape",
                       "12x16x16", "--codec", "vae-sr",
                       "--codec-artifact", str(model),
                       "--executor", executor, "--shards", "4",
                       str(stream)])
            assert rc == 0
            blobs[executor] = stream.read_bytes()
        assert blobs["thread"] == blobs["serial"]
        assert blobs["process"] == blobs["serial"]

    def test_mismatched_codec_name_rejected(self, vae_sr_artifact,
                                            tmp_path, capsys):
        _, model = vae_sr_artifact
        rc = main(["compress", "--dataset", "e3sm", "--codec", "gcd",
                   "--codec-artifact", str(model),
                   str(tmp_path / "x.cdx")])
        assert rc == 2
        assert "holds codec 'vae-sr'" in capsys.readouterr().err

    def test_untrained_learned_codec_hints_at_artifact(self, tmp_path,
                                                       capsys):
        for codec in ("vae-sr", "VAE_SR", "OURS"):
            out = tmp_path / f"{codec}.cdx"
            rc = main(["compress", "--dataset", "e3sm", "--codec", codec,
                       str(out)])
            assert rc == 2
            err = capsys.readouterr().err
            assert "--codec-artifact" in err and "repro train" in err
            assert not out.exists()

    def test_single_file_compression_with_artifact(self, vae_sr_artifact,
                                                   tmp_path, capsys):
        _, model = vae_sr_artifact
        frames = np.random.default_rng(4).normal(
            size=(4, 16, 16)).cumsum(axis=0)
        data = tmp_path / "frames.npy"
        np.save(data, frames)
        stream = tmp_path / "frames.lcx"
        rc = main(["compress", str(data), str(stream),
                   "--codec", "vae-sr", "--codec-artifact", str(model)])
        assert rc == 0
        out = tmp_path / "back.npy"
        rc = main(["decompress", str(stream), str(out),
                   "--codec-artifact", str(model)])
        assert rc == 0
        assert np.load(out).shape == frames.shape
