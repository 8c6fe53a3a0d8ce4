"""Tests for process variation, wear profiles and the delay model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, PhysicsError
from repro.physics.aging import CLOUD_PART, NEW_PART, WearProfile
from repro.physics.delay import (
    TransitionDelays,
    alpha_power_delay_shift,
)
from repro.physics.variation import (
    DEFAULT_VARIATION,
    ProcessVariation,
    VariationParams,
)
from tests.oracles import (
    sample_residual_imprints_scalar,
    sample_segment_scalar,
)


class TestProcessVariation:
    def test_deterministic_per_seed(self):
        a = ProcessVariation(seed=7).sample_segment(100.0, 1.0)
        b = ProcessVariation(seed=7).sample_segment(100.0, 1.0)
        assert a == b

    def test_different_seeds_differ(self):
        a = ProcessVariation(seed=7).sample_segment(100.0, 1.0)
        b = ProcessVariation(seed=8).sample_segment(100.0, 1.0)
        assert a != b

    def test_sample_near_nominal(self):
        rng = ProcessVariation(seed=1)
        samples = [rng.sample_segment(450.0, 0.5) for _ in range(500)]
        risings = np.array([s[0] for s in samples])
        amps = np.array([s[2] for s in samples])
        assert abs(risings.mean() - 450.0) < 5.0
        assert abs(amps.mean() - 0.5) < 0.05

    def test_die_to_die_delay_variation_stays_small(self):
        """theta_init portability (Experiment 3) requires ~1%-class
        die-to-die delay variation."""
        assert DEFAULT_VARIATION.delay_sigma <= 0.02

    def test_invalid_nominal_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessVariation(seed=1).sample_segment(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            ProcessVariation(seed=1).sample_segment(10.0, -1.0)

    def test_negative_params_rejected(self):
        with pytest.raises(ConfigurationError):
            VariationParams(delay_sigma=-0.1)


class TestWearProfiles:
    def test_new_part_is_pristine(self):
        assert NEW_PART.sample_age_hours(seed=1) == 0.0
        assert NEW_PART.sample_residual_imprints(1.0, seed=1) == (0.0, 0.0)

    def test_cloud_part_is_aged(self):
        ages = [CLOUD_PART.sample_age_hours(seed=i) for i in range(50)]
        assert all(age > 0.0 for age in ages)
        assert 2500.0 < np.mean(ages) < 5500.0

    def test_cloud_residuals_are_small_fractions(self):
        highs, lows = zip(*[
            CLOUD_PART.sample_residual_imprints(1.0, seed=i) for i in range(100)
        ])
        assert all(h >= 0.0 for h in highs)
        assert max(highs) < 0.5
        assert max(lows) < 0.5

    def test_invalid_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            WearProfile("x", age_mean_hours=-1.0, age_sigma_hours=0.0,
                        residual_imprint_fraction=0.0)
        with pytest.raises(ConfigurationError):
            WearProfile("x", age_mean_hours=0.0, age_sigma_hours=0.0,
                        residual_imprint_fraction=1.5)


class TestDelayModel:
    def test_delta_ps_definition(self):
        d = TransitionDelays(rising_ps=100.0, falling_ps=103.5)
        assert d.delta_ps == pytest.approx(3.5)

    def test_addition(self):
        a = TransitionDelays(10.0, 12.0)
        b = TransitionDelays(5.0, 4.0)
        total = a + b
        assert total.rising_ps == 15.0
        assert total.falling_ps == 16.0

    def test_zero(self):
        assert TransitionDelays.zero().delta_ps == 0.0

    def test_negative_delay_rejected(self):
        with pytest.raises(PhysicsError):
            TransitionDelays(rising_ps=-1.0, falling_ps=1.0)

    def test_alpha_power_linear_in_vth(self):
        one = alpha_power_delay_shift(1000.0, 10.0)
        two = alpha_power_delay_shift(1000.0, 20.0)
        assert two == pytest.approx(2.0 * one)

    def test_alpha_power_scales_with_delay(self):
        short = alpha_power_delay_shift(1000.0, 10.0)
        long_ = alpha_power_delay_shift(10000.0, 10.0)
        assert long_ == pytest.approx(10.0 * short)

    def test_alpha_power_magnitude_plausible(self):
        # ~25 mV on a 1000 ps path at 0.53 V overdrive: tens of ps.
        shift = alpha_power_delay_shift(1000.0, 25.0)
        assert 20.0 < shift < 100.0

    def test_alpha_power_invalid_inputs(self):
        with pytest.raises(PhysicsError):
            alpha_power_delay_shift(-1.0, 10.0)
        with pytest.raises(PhysicsError):
            alpha_power_delay_shift(100.0, 10.0, vdd=0.3, vth=0.4)


class TestBatchedSampling:
    """The batched samplers are the only sampling path; the one-draw-
    at-a-time reference samplers of ``tests.oracles`` must reproduce a
    batch of n exactly, draw for draw."""

    def test_sample_segments_matches_scalar_calls(self):
        """Over 10k segments the batch equals the scalar loop bit for bit
        (a SIMD ``np.exp`` in place of libm ``exp`` breaks this)."""
        n = 10_000
        nominal = np.random.default_rng(5)
        delays = nominal.uniform(20.0, 600.0, size=n)
        amplitudes = nominal.uniform(0.0, 2.0, size=n)
        batch = ProcessVariation(seed=11)
        scalar = ProcessVariation(seed=11)
        rising, falling, amplitude = batch.sample_segments(delays, amplitudes)
        expected = np.array([
            sample_segment_scalar(scalar, float(d), float(a))
            for d, a in zip(delays, amplitudes)
        ])
        assert np.array_equal(rising, expected[:, 0])
        assert np.array_equal(falling, expected[:, 1])
        assert np.array_equal(amplitude, expected[:, 2])
        # Both streams stand at the same position afterwards.
        assert batch.spawn_rng().random() == scalar.spawn_rng().random()

    def test_single_samples_are_batches_of_one(self):
        wrapper = ProcessVariation(seed=3)
        batch = ProcessVariation(seed=3)
        singles = [wrapper.sample_segment(450.0, 0.5) for _ in range(5)]
        rising, falling, amplitude = batch.sample_segments(
            [450.0] * 5, [0.5] * 5
        )
        assert singles == list(zip(rising.tolist(), falling.tolist(),
                                   amplitude.tolist()))
        highs, lows = CLOUD_PART.sample_residual_imprints_many(
            [0.5, 0.0], np.random.default_rng(9)
        )
        rng = np.random.default_rng(9)
        assert [CLOUD_PART.sample_residual_imprints(a, rng)
                for a in (0.5, 0.0)] == list(zip(highs.tolist(),
                                                 lows.tolist()))

    def test_sample_segments_rejects_invalid_nominals(self):
        with pytest.raises(ConfigurationError):
            ProcessVariation(seed=1).sample_segments([10.0, 0.0], [1.0, 1.0])
        with pytest.raises(ConfigurationError):
            ProcessVariation(seed=1).sample_segments([10.0], [-1.0])

    def test_residual_imprints_match_scalar_calls(self):
        amplitudes = np.random.default_rng(2).uniform(0.0, 1.5, size=2_000)
        amplitudes[::3] = 0.0
        batch_rng = np.random.default_rng(4)
        scalar_rng = np.random.default_rng(4)
        highs, lows = CLOUD_PART.sample_residual_imprints_many(
            amplitudes, batch_rng
        )
        expected = np.array([
            sample_residual_imprints_scalar(CLOUD_PART, float(a), scalar_rng)
            for a in amplitudes
        ])
        assert np.array_equal(highs, expected[:, 0])
        assert np.array_equal(lows, expected[:, 1])
        assert batch_rng.random() == scalar_rng.random()

    def test_zero_scale_imprints_consume_no_draws(self):
        untouched = np.random.default_rng(8)
        rng = np.random.default_rng(8)
        highs, lows = CLOUD_PART.sample_residual_imprints_many(
            np.zeros(50), rng
        )
        assert not highs.any() and not lows.any()
        highs, lows = NEW_PART.sample_residual_imprints_many(
            np.ones(50), rng
        )
        assert not highs.any() and not lows.any()
        assert rng.random() == untouched.random()
