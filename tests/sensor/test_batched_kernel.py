"""Scalar-vs-batched capture kernel equivalence.

The batched kernel is the only production measurement path; the scalar
per-word loop is the reference oracle in ``tests.oracles.capture``.  Two
pins hold the kernels together:

* **Bit-exact** for jitter-free noise models: the batched kernel draws
  its metastability uniforms in one C-order ``random`` call, which
  consumes the generator stream in exactly the per-word order of the
  scalar path, so every capture word and every ``Measurement`` field is
  identical from identical seeds.
* **Distributional** once per-sample jitter is on: the batched kernel
  draws the jitter as one matrix *before* the uniforms, while the
  scalar path interleaves one ziggurat ``normal`` per word between
  ``random`` calls on the same shared stream.  The draws cannot be
  reordered without changing their values (the ziggurat consumes a
  variable number of raw words per normal), so the kernels realise
  different -- but identically distributed -- noise; over many seeds the
  delta estimates must agree in mean and spread.
"""

import numpy as np
import pytest

from repro.designs import build_route_bank
from repro.errors import SensorError
from repro.fabric.device import FpgaDevice
from repro.fabric.parts import ZYNQ_ULTRASCALE_PLUS
from repro.sensor.capture import CaptureBank
from repro.sensor.carry_chain import CarryChain
from repro.sensor.noise import LAB_NOISE, NoiseModel
from repro.sensor.postprocess import (
    batch_delta_ps,
    batch_hamming_distances,
    batch_trace_mean_distances,
    delta_ps_from_traces,
    trace_mean_distance,
)
from repro.observability.metrics import registry
from repro.sensor.tdc import TunableDualPolarityTdc
from repro.sensor.trace import Polarity
from tests.oracles import (
    capture_trace_scalar,
    measure_raw_scalar,
    reference_engines,
)

#: Slow polarity offset on, per-sample jitter off: every RNG draw of a
#: measurement happens in the same stream order under both kernels.
DRIFT_ONLY = NoiseModel(
    jitter_ps=0.0, polarity_offset_sigma_ps=0.05, offset_correlation=0.6
)

THETA = 1200.0


def make_tdc(seed, noise=DRIFT_ONLY):
    device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=21)
    route = build_route_bank(device.grid, [1000.0])[0]
    return TunableDualPolarityTdc(device, route, noise=noise, seed=seed)


class TestWavefrontPositions:
    def test_matches_scalar_everywhere(self):
        chain = CarryChain(length=64, nominal_bin_ps=2.8, seed=7)
        times = np.concatenate([
            np.linspace(-10.0, chain.total_delay_ps + 10.0, 500),
            chain._boundaries,  # exactly on every bin boundary
            [0.0, chain.total_delay_ps],
        ])
        batched = chain.wavefront_positions(times)
        scalar = np.array(
            [chain.wavefront_position(float(t)) for t in times]
        )
        assert batched.shape == times.shape
        np.testing.assert_array_equal(batched, scalar)

    def test_preserves_input_shape(self):
        chain = CarryChain(length=64, nominal_bin_ps=2.8, seed=7)
        times = np.full((3, 5), 90.0)
        assert chain.wavefront_positions(times).shape == (3, 5)


class TestCaptureBatch:
    def test_matches_sequential_scalar_draws(self):
        positions = np.linspace(0.0, 64.0, 12).reshape(3, 4)
        for polarity in Polarity:
            scalar_bank = CaptureBank(length=64, seed=11)
            batched_bank = CaptureBank(length=64, seed=11)
            scalar_words = np.array([
                [scalar_bank.capture(float(p), polarity) for p in row]
                for row in positions
            ])
            batched_words = batched_bank.capture_batch(positions, polarity)
            np.testing.assert_array_equal(batched_words, scalar_words)

    def test_out_of_range_rejected(self):
        bank = CaptureBank(length=64, seed=1)
        with pytest.raises(SensorError):
            bank.capture_batch(np.array([[1.0, 65.0]]), Polarity.RISING)
        with pytest.raises(SensorError):
            bank.capture_batch(np.array([-0.5]), Polarity.FALLING)


class TestBatchPostprocess:
    def test_batch_matches_per_trace_pipeline(self):
        rng = np.random.default_rng(3)
        rising_words = rng.random((10, 16, 64)) < 0.4
        falling_words = rng.random((10, 16, 64)) < 0.6
        from repro.sensor.trace import Trace

        rising = [Trace(Polarity.RISING, 100.0, w) for w in rising_words]
        falling = [Trace(Polarity.FALLING, 100.0, w) for w in falling_words]
        np.testing.assert_array_equal(
            batch_trace_mean_distances(rising_words, Polarity.RISING),
            [trace_mean_distance(t) for t in rising],
        )
        assert batch_delta_ps(rising_words, falling_words, 2.8) == (
            delta_ps_from_traces(rising, falling, 2.8)
        )

    def test_batch_hamming_polarity(self):
        words = np.zeros((2, 3, 8), dtype=bool)
        words[..., :5] = True
        assert (batch_hamming_distances(words, Polarity.RISING) == 5).all()
        assert (batch_hamming_distances(words, Polarity.FALLING) == 3).all()

    def test_invalid_inputs_rejected(self):
        with pytest.raises(SensorError):
            batch_hamming_distances(np.zeros((2, 8)), Polarity.RISING)
        with pytest.raises(SensorError):
            batch_trace_mean_distances(
                np.zeros((2, 8), dtype=bool), Polarity.RISING
            )
        with pytest.raises(SensorError):
            batch_delta_ps(
                np.zeros((1, 2, 8), dtype=bool),
                np.zeros((1, 2, 8), dtype=bool),
                0.0,
            )


class TestKernelEquivalence:
    def test_bit_identical_without_jitter(self):
        """Same seed => identical Measurement and identical raw words."""
        for seed in (5, 17, 123):
            scalar_m, scalar_r, scalar_f = measure_raw_scalar(
                make_tdc(seed), THETA
            )
            batched_m, batched_r, batched_f = make_tdc(seed).measure_raw(
                THETA
            )
            assert batched_m == scalar_m
            for a, b in zip(scalar_r + scalar_f, batched_r + batched_f):
                assert a.theta_ps == b.theta_ps
                assert np.array_equal(a.words, b.words)

    def test_capture_trace_bit_identical_without_jitter(self):
        scalar = capture_trace_scalar(make_tdc(9), THETA, Polarity.RISING)
        batched = make_tdc(9).capture_trace(THETA, Polarity.RISING)
        np.testing.assert_array_equal(scalar.words, batched.words)

    def test_distributional_equivalence_with_jitter(self):
        """With jitter the draw order differs by design (matrix-first);
        over >= 200 seeds the delta distributions must coincide."""
        n_seeds = 200
        scalar_deltas = np.array([
            measure_raw_scalar(make_tdc(seed, LAB_NOISE), THETA)[0].delta_ps
            for seed in range(n_seeds)
        ])
        batched_deltas = np.array([
            make_tdc(seed, LAB_NOISE).measure(THETA).delta_ps
            for seed in range(n_seeds)
        ])
        # Means agree within 4 standard errors; spreads within 25%.
        stderr = scalar_deltas.std() / np.sqrt(n_seeds)
        assert abs(scalar_deltas.mean() - batched_deltas.mean()) < 4 * stderr
        assert batched_deltas.std() == pytest.approx(
            scalar_deltas.std(), rel=0.25
        )

    def test_trace_metadata_matches(self):
        measurement, rising, falling = make_tdc(4).measure_raw(THETA)
        assert len(rising) == len(falling) == 10
        thetas = [t.theta_ps for t in rising]
        assert thetas == sorted(thetas, reverse=True)
        for trace in rising + falling:
            assert trace.words.shape == (16, 64)
        assert measurement.delta_ps == pytest.approx(
            (measurement.rising_distance - measurement.falling_distance)
            * 2.8
        )


class TestKernelSelection:
    """The batched kernel is the only one ``src`` runs; the scalar
    reference is reachable only through ``tests.oracles``."""

    def test_default_is_batched(self):
        make_tdc(1).measure_raw(THETA)
        # Only the batched kernel counts its words.
        assert registry.counters["capture_words_total"].value == 2 * 10 * 16

    def test_context_manager_restores(self):
        production = TunableDualPolarityTdc.measure_raw
        with reference_engines("capture"):
            assert TunableDualPolarityTdc.measure_raw is measure_raw_scalar
        assert TunableDualPolarityTdc.measure_raw is production

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            with reference_engines("simd"):
                pass
        with pytest.raises(TypeError):
            make_tdc(1).measure_raw(THETA, kernel="nope")

    def test_invalid_batch_params_rejected(self):
        tdc = make_tdc(1)
        with pytest.raises(SensorError):
            tdc.capture_words([THETA], Polarity.RISING, samples=0)
        with pytest.raises(SensorError):
            tdc.capture_words([], Polarity.RISING)
