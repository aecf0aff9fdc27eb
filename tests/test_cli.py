"""CLI tests: train, compress and decompress the paper's pipeline, with
the model named by its artifact."""

import numpy as np
import pytest

from repro import nrmse
from repro.bound import Bound
from repro.cli import main
from repro.codecs import LatentDiffusionCodec
from repro.data import E3SMSynthetic
from repro.pipeline import load_artifact, save_artifact


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, trained_cli):
    return trained_cli


@pytest.fixture(scope="module")
def trained_cli(tmp_path_factory):
    """Train once through the CLI itself; reuse for all CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    frames = E3SMSynthetic(t=24, h=16, w=16, seed=2).frames(0)
    data = root / "frames.npy"
    np.save(data, frames)
    model = root / "model.npz"
    rc = main(["train", str(data), "--save", str(model), "--preset", "tiny",
               "--vae-iters", "120", "--diffusion-iters", "200",
               "--stride", "2"])
    assert rc == 0
    return root, data, model, frames


class TestTrainCompressDecompress:
    def test_bundle_exists(self, trained_cli):
        _, _, model, _ = trained_cli
        assert model.exists()

    def test_compress_decompress_roundtrip(self, trained_cli, capsys):
        root, data, model, frames = trained_cli
        stream = root / "frames.ldc"
        rc = main(["compress", str(data), str(stream),
                   "--codec-artifact", str(model), "--nrmse-bound", "0.05"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "ratio=" in printed and "nrmse=" in printed

        out = root / "restored.npy"
        rc = main(["decompress", str(stream), str(out),
                   "--codec-artifact", str(model)])
        assert rc == 0
        restored = np.load(out)
        assert restored.shape == frames.shape
        assert nrmse(frames, restored) <= 0.05 * (1 + 1e-9)

    def test_info(self, trained_cli, capsys):
        root, data, model, _ = trained_cli
        stream = root / "info.ldc"
        main(["compress", str(data), str(stream),
              "--codec-artifact", str(model)])
        capsys.readouterr()
        rc = main(["info", str(stream)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "latent (L)" in out
        assert "guarantee (G)" in out
        # the chain decode runs: half of the tiny model's schedule
        assert "sampler          : ancestral, 8 of 16 steps" in out

    @pytest.mark.parametrize("key", ["v2", "v3"])
    def test_info_of_a_read_only_blob(self, key, tmp_path, capsys):
        """A v2/v3 blob records 4 steps but its decode runs the model's
        whole schedule; info says so, and counts its bytes as read."""
        import pathlib
        fixture = (pathlib.Path(__file__).parent / "pipeline" / "data"
                   / "ldcb_v2_v3.npz")
        with np.load(fixture) as fx:
            data = fx[f"{key}_blob"].tobytes()
        blob = tmp_path / "old.ldc"
        blob.write_bytes(data)
        assert main(["info", str(blob)]) == 0
        out = capsys.readouterr().out
        assert "sampler          : ancestral, the model's full schedule" \
            in out
        assert f"total bytes      : {len(data)}" in out

    @pytest.mark.parametrize("argv", [
        ["compress", "{missing}.npy", "{out}", "--codec", "szlike",
         "--nrmse-bound", "0.01"],
        ["decompress", "{missing}.cdx", "{out}"],
        ["info", "{missing}.cdx"],
        ["train", "{missing}.npy", "--save", "{out}.npz"]])
    def test_missing_input_is_a_user_error(self, argv, tmp_path, capsys):
        missing, out = tmp_path / "nope", tmp_path / "out"
        argv = [a.format(missing=missing, out=out) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == (f"error: No such file or directory: "
                       f"{argv[1]}\n")
        assert list(tmp_path.iterdir()) == []

    def test_train_rejects_bad_shape(self, tmp_path):
        bad = tmp_path / "bad.npy"
        np.save(bad, np.zeros((4, 4)))
        rc = main(["train", str(bad), "--save", str(tmp_path / "m.npz")])
        assert rc == 2


class TestBundleRoundtrip:
    def test_bundle_preserves_behaviour(self, trained_cli, tmp_path):
        root, data, model, frames = trained_cli
        comp = load_artifact(model).compressor
        res1 = comp.compress(frames, noise_seed=5)
        path2 = tmp_path / "again.npz"
        save_artifact(path2, LatentDiffusionCodec(compressor=comp))
        comp2 = load_artifact(path2).compressor
        res2 = comp2.compress(frames, noise_seed=5)
        np.testing.assert_allclose(res1.reconstruction,
                                   res2.reconstruction, atol=1e-12)
        assert res1.blob.to_bytes() == res2.blob.to_bytes()

    def test_bundle_keeps_corrector(self, trained_cli):
        _, _, model, frames = trained_cli
        comp = load_artifact(model).compressor
        assert comp.corrector is not None
        tau = Bound.nrmse(0.05).to("l2", frames=frames).value
        res = comp.compress(frames, error_bound=tau)
        assert res.achieved_nrmse <= 0.05 * (1 + 1e-9)

    def test_bundle_keeps_schedule(self, trained_cli):
        _, _, model, _ = trained_cli
        comp = load_artifact(model).compressor
        assert comp.ddpm.schedule.steps == comp.ddpm.cfg.train_steps


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse refuses the grammar itself
        return exc.code


class TestRetiredGrammar:
    """Every form of the positional model (``-`` for none) exits 2
    and leaves its files untouched: a model is named only by
    ``--codec-artifact`` (and written by ``train --save``)."""

    @pytest.mark.parametrize("form", [
        "compress - DATA OUT", "compress MODEL DATA OUT",
        "compress MODEL DATA", "decompress - IN OUT", "train DATA MODEL",
        "compress --dataset e3sm MODEL OUT"])
    def test_old_form_exits_2(self, form, trained_cli, tmp_path, capsys):
        _, data, model, _ = trained_cli
        stream = tmp_path / "in.ldc"
        assert main(["compress", str(data), str(stream),
                     "--codec-artifact", str(model)]) == 0
        paths = {"DATA": data, "MODEL": model, "IN": stream,
                 "OUT": tmp_path / "out.ldc"}
        before = {k: p.read_bytes() for k, p in paths.items()
                  if p.exists()}
        argv = [str(paths.get(tok, tok)) for tok in form.split()]
        assert _exit_code(argv) == 2
        assert not paths["OUT"].exists()
        assert {k: p.read_bytes() for k, p in paths.items()
                if p.exists()} == before
        if "MODEL DATA" in form and "OUT" not in form:
            assert "--codec-artifact" in capsys.readouterr().err
