"""Noise-schedule math tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffusion import NoiseSchedule
from repro.diffusion.schedule import cosine_betas, linear_betas


class TestBetas:
    def test_linear_reference_endpoints(self):
        b = linear_betas(1000)
        assert b[0] == pytest.approx(1e-4)
        assert b[-1] == pytest.approx(0.02)

    def test_linear_short_chain_matches_reference_endpoint(self):
        """Short chains subsample the 1000-step ᾱ curve, so their final
        cumulative noise level equals the reference schedule's."""
        ref = np.cumprod(1.0 - linear_betas(1000))[-1]
        for steps in (10, 32, 128):
            ab = np.cumprod(1.0 - linear_betas(steps))[-1]
            assert ab == pytest.approx(ref, rel=1e-6)
        b = linear_betas(10)
        assert np.all(b > 0) and np.all(b < 1.0)

    def test_cosine_valid(self):
        b = cosine_betas(100)
        assert np.all(b >= 0) and np.all(b <= 0.999)


class TestNoiseSchedule:
    def test_alpha_bar_monotone_decreasing(self):
        s = NoiseSchedule(50)
        assert np.all(np.diff(s.alpha_bars) < 0)
        assert 0 < s.alpha_bars[-1] < s.alpha_bars[0] < 1

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            NoiseSchedule(0)
        with pytest.raises(ValueError):
            NoiseSchedule(10, kind="bogus")
        with pytest.raises(ValueError):
            NoiseSchedule(10).alpha_bar(11)
        with pytest.raises(ValueError):
            NoiseSchedule(10).alpha_bar(0)

    def test_q_sample_endpoints(self):
        s = NoiseSchedule(100)
        y0 = np.ones((2, 3))
        eps = np.full((2, 3), 2.0)
        early = s.q_sample(y0, 1, eps)
        late = s.q_sample(y0, 100, eps)
        # early: mostly signal; late: mostly noise
        assert np.abs(early - y0).max() < np.abs(late - y0).max()

    def test_predict_x0_inverts_q_sample(self):
        s = NoiseSchedule(64)
        rng = np.random.default_rng(0)
        y0 = rng.normal(size=(4, 4))
        eps = rng.normal(size=(4, 4))
        for t in (1, 17, 64):
            y_t = s.q_sample(y0, t, eps)
            np.testing.assert_allclose(s.predict_x0(y_t, t, eps), y0,
                                       atol=1e-9)

    def test_posterior_step_with_true_noise_reduces_noise_level(self):
        """Stepping with the oracle ε moves y_t toward y_0."""
        s = NoiseSchedule(64)
        rng = np.random.default_rng(1)
        y0 = rng.normal(size=(8, 8))
        eps = rng.normal(size=(8, 8))
        t = 40
        y_t = s.q_sample(y0, t, eps)
        y_prev = s.posterior_step(y_t, t, eps, np.zeros_like(y_t))
        assert np.abs(y_prev - y0).mean() < np.abs(y_t - y0).mean()

    def test_ddim_step_with_oracle_noise_recovers_x0(self):
        s = NoiseSchedule(32)
        rng = np.random.default_rng(2)
        y0 = rng.normal(size=(5, 5))
        eps = rng.normal(size=(5, 5))
        y_t = s.q_sample(y0, 32, eps)
        np.testing.assert_allclose(s.ddim_step(y_t, 32, 0, eps), y0,
                                   atol=1e-9)

    def test_ddim_chain_consistency(self):
        """DDIM with oracle noise lands on y0 regardless of spacing."""
        s = NoiseSchedule(64)
        rng = np.random.default_rng(3)
        y0 = rng.normal(size=(3, 3))
        eps = rng.normal(size=(3, 3))
        y = s.q_sample(y0, 64, eps)
        ts = s.spaced_timesteps(4)
        for i, t in enumerate(ts):
            t_prev = int(ts[i + 1]) if i + 1 < len(ts) else 0
            y = s.ddim_step(y, int(t), t_prev, eps)
        np.testing.assert_allclose(y, y0, atol=1e-9)

    def test_spaced_timesteps(self):
        s = NoiseSchedule(100)
        ts = s.spaced_timesteps(5)
        assert ts[0] == 100 and ts[-1] == 1
        assert np.all(np.diff(ts) < 0)
        # more steps than schedule -> clamp
        assert len(NoiseSchedule(4).spaced_timesteps(100)) == 4

    @pytest.mark.parametrize("steps, num", [(16, 8), (16, 4), (64, 32),
                                            (1000, 32), (16, 1)])
    def test_spaced_timesteps_are_distinct(self, steps, num):
        """``num`` distinct timesteps: the chain runs exactly ``num``
        UNet steps, the count a blob records."""
        ts = NoiseSchedule(steps).spaced_timesteps(num)
        assert len(ts) == num and ts[-1] == 1

    def test_respaced_chain(self):
        """Nichol & Dhariwal respacing: ᾱ at the kept timesteps, and
        β′ = 1 - ᾱ_t / ᾱ_t′ between consecutive kept timesteps (ᾱ = 1
        after the last), so the DDPM posterior jumps between them."""
        s = NoiseSchedule(16)
        ts = s.spaced_timesteps(8)
        chain = s.respaced(ts)
        assert chain.steps == 8
        kept = s.alpha_bars[ts[::-1] - 1]
        np.testing.assert_array_equal(chain.alpha_bars, kept)
        prev = np.concatenate([[1.0], kept[:-1]])
        np.testing.assert_allclose(chain.betas, 1.0 - kept / prev)
        np.testing.assert_allclose(np.cumprod(chain.alphas), kept,
                                   rtol=1e-12)
        # the posterior mean of x_t' given (x_t, x0): Eq. 7 of Ho et al.
        # with ᾱ_{t-1} -> ᾱ_t'
        k = 5                              # chain step k is ts[-k]
        ab, ab_prev = kept[k - 1], kept[k - 2]
        beta = 1.0 - ab / ab_prev
        np.testing.assert_allclose(
            chain.posterior_coef_x0[k - 1],
            np.sqrt(ab_prev) * beta / (1.0 - ab))
        np.testing.assert_allclose(
            chain.posterior_coef_yt[k - 1],
            np.sqrt(1.0 - beta) * (1.0 - ab_prev) / (1.0 - ab))
        # predict_x0 at chain step k is the schedule's at timestep t
        y, eps = np.ones(3), np.full(3, 0.5)
        np.testing.assert_array_equal(chain.predict_x0(y, k, eps),
                                      s.predict_x0(y, int(ts[-k]), eps))

    def test_respacing_every_timestep_is_the_schedule(self):
        s = NoiseSchedule(16)
        assert s.respaced(s.spaced_timesteps(16)) is s


@settings(max_examples=30, deadline=None)
@given(steps=st.integers(1, 200), kind=st.sampled_from(["linear", "cosine"]))
def test_schedule_invariants(steps, kind):
    s = NoiseSchedule(steps, kind)
    assert s.betas.shape == (steps,)
    assert np.all(s.betas > 0) and np.all(s.betas <= 0.999)
    assert np.all(s.alpha_bars > 0) and np.all(s.alpha_bars < 1)
    assert np.all(np.diff(s.alpha_bars) <= 0)
    assert np.all(s.posterior_variance >= 0)
