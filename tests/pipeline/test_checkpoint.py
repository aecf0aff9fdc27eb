"""Optimizer state and trainer checkpoint/resume tests."""

import numpy as np
import pytest

from repro import TrainingConfig, TwoStageTrainer, tiny
from repro.data import E3SMSynthetic
from repro.data.base import train_test_windows
from repro.nn import Linear, Sequential, Tensor
from repro.nn.optim import SGD, Adam, CosineLR, StepLR


def _model(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(Linear(6, 12, rng=rng), Linear(12, 3, rng=rng))


def _train_steps(model, opt, n, seed=0, sched=None):
    """Deterministic toy regression steps; returns final weights."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((8, 6))
    y = rng.standard_normal((8, 3))
    for _ in range(n):
        out = model(Tensor(x))
        loss = ((out - Tensor(y)) * (out - Tensor(y))).sum()
        opt.zero_grad()
        loss.backward()
        opt.step()
        if sched is not None:
            sched.step()
    return {n: p.data.copy() for n, p in model.named_parameters()}


class TestOptimizerStateDict:
    @pytest.mark.parametrize("cls,kwargs", [
        (Adam, {"lr": 1e-2}),
        (SGD, {"lr": 1e-2, "momentum": 0.9}),
    ])
    def test_resume_matches_uninterrupted(self, cls, kwargs):
        """10 steps == 5 steps + checkpoint + 5 steps, exactly."""
        m_full = _model()
        opt_full = cls(m_full.parameters(), **kwargs)
        ref = _train_steps(m_full, opt_full, 10)

        m_a = _model()
        opt_a = cls(m_a.parameters(), **kwargs)
        _train_steps(m_a, opt_a, 5)
        weights = m_a.state_dict()
        opt_state = opt_a.state_dict()

        m_b = _model(seed=99)  # different init, fully overwritten
        m_b.load_state_dict(weights)
        opt_b = cls(m_b.parameters(), **kwargs)
        opt_b.load_state_dict(opt_state)
        resumed = _train_steps(m_b, opt_b, 5)

        for name in ref:
            np.testing.assert_array_equal(resumed[name], ref[name])

    def test_rejects_mismatched_buffers(self):
        m = _model()
        opt = Adam(m.parameters(), lr=1e-2)
        other = Adam(_model().parameters()[:1], lr=1e-2)
        with pytest.raises((KeyError, ValueError)):
            opt.load_state_dict(other.state_dict())

    @pytest.mark.parametrize("make", [
        lambda o: StepLR(o, step_size=3, gamma=0.5),
        lambda o: CosineLR(o, total_steps=10),
    ])
    def test_scheduler_state_roundtrip(self, make):
        m = _model()
        opt_full = Adam(m.parameters(), lr=1e-2)
        sched_full = make(opt_full)
        for _ in range(7):
            sched_full.step()
        lr_ref = opt_full.lr

        opt_res = Adam(_model().parameters(), lr=1e-2)
        sched_a = make(opt_res)
        for _ in range(4):
            sched_a.step()
        state = sched_a.state_dict()
        opt_b = Adam(_model().parameters(), lr=1e-2)
        sched_b = make(opt_b)
        sched_b.load_state_dict(state)
        for _ in range(3):
            sched_b.step()
        assert opt_b.lr == pytest.approx(lr_ref)


class TestTrainerCheckpoint:
    def _data(self):
        frames = E3SMSynthetic(t=24, h=16, w=16, seed=0).frames(0)
        return train_test_windows(frames, window=6, stride=3)[0]

    def _cfg(self):
        return TrainingConfig(vae_iters=5, diffusion_iters=5,
                              finetune_iters=0, lam=1e-6)

    def test_stage_boundary_resume_is_exact(self, tmp_path):
        """vae -> checkpoint -> diffusion == vae -> diffusion."""
        train = self._data()
        path = str(tmp_path / "stage1.npz")

        ref = TwoStageTrainer(tiny(), self._cfg(), seed=3)
        ref.train_vae(train)
        ref.save_checkpoint(path)
        ref.train_diffusion(train)

        resumed = TwoStageTrainer.from_checkpoint(path)
        resumed.train_diffusion(train)

        for (n0, a0), (n1, a1) in zip(
                sorted(ref.ddpm.state_dict().items()),
                sorted(resumed.ddpm.state_dict().items())):
            assert n0 == n1
            np.testing.assert_array_equal(a0, a1)

    def test_checkpoint_preserves_configs_and_history(self, tmp_path):
        train = self._data()
        path = str(tmp_path / "ck.npz")
        trainer = TwoStageTrainer(tiny(), self._cfg(), seed=1)
        trainer.train_vae(train)
        trainer.save_checkpoint(path)
        restored = TwoStageTrainer.from_checkpoint(path)
        assert restored.config == trainer.config
        assert restored.train_cfg == trainer.train_cfg
        assert restored.seed == trainer.seed
        np.testing.assert_allclose(restored.history.vae_losses,
                                   trainer.history.vae_losses)
        assert restored.history.diffusion_losses == []

    def test_checkpoint_with_retired_error_bound_loads(self, tmp_path):
        """Checkpoints saved while PipelineConfig had an (unread)
        ``error_bound`` field carry it as null; it is dropped."""
        import json
        path = str(tmp_path / "ck.npz")
        trainer = TwoStageTrainer(tiny(), self._cfg(), seed=1)
        trainer.save_checkpoint(path)
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        cfg = json.loads(bytes(arrays["config_json"]).decode())
        assert "error_bound" not in cfg["pipeline"]
        cfg["pipeline"]["error_bound"] = None
        arrays["config_json"] = np.frombuffer(json.dumps(cfg).encode(),
                                              dtype=np.uint8)
        np.savez_compressed(path, **arrays)
        restored = TwoStageTrainer.from_checkpoint(path)
        assert restored.config == trainer.config

    def test_checkpoint_after_finetune_keeps_schedule(self, tmp_path):
        train = self._data()
        cfg = TrainingConfig(vae_iters=3, diffusion_iters=3,
                             finetune_iters=2, lam=1e-6)
        trainer = TwoStageTrainer(tiny(), cfg, seed=2)
        trainer.train_vae(train)
        trainer.train_diffusion(train)
        trainer.finetune_diffusion(train)
        short = trainer.ddpm.schedule.steps
        path = str(tmp_path / "ft.npz")
        trainer.save_checkpoint(path)
        restored = TwoStageTrainer.from_checkpoint(path)
        assert restored.ddpm.schedule.steps == short
