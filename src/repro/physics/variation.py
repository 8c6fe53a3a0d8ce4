"""Process-variation models.

Every manufactured die differs: segment delays, rising/falling asymmetry
and per-switch BTI susceptibility all vary around their nominal values.
Variation matters for three reasons in this reproduction:

1. it is why sensor calibration (finding theta_init per route) exists;
2. it sets the static falling-minus-rising offset that the paper removes
   by centring each series at its first measurement;
3. it doubles as a **device fingerprint**: the vector of route delays is
   unique per die, which the attacker exploits to confirm re-acquisition
   of the victim's physical board (Assumption 2 / Section 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import SeedLike, make_rng


@dataclass(frozen=True)
class VariationParams:
    """Magnitudes of manufacturing variation.

    Attributes:
        delay_sigma: lognormal sigma of per-segment delay multipliers.
        amplitude_sigma: lognormal sigma of per-segment BTI amplitude
            multipliers (trap-density variation).
        asymmetry_sigma_ps: gaussian sigma of the static falling-minus-
            rising offset per segment, in picoseconds.
    """

    delay_sigma: float = 0.008
    amplitude_sigma: float = 0.18
    asymmetry_sigma_ps: float = 1.5

    def __post_init__(self) -> None:
        for name in ("delay_sigma", "amplitude_sigma", "asymmetry_sigma_ps"):
            if getattr(self, name) < 0.0:
                raise ConfigurationError(f"{name} must be >= 0")


DEFAULT_VARIATION = VariationParams()


def _libm_exp(values: np.ndarray) -> np.ndarray:
    """Elementwise ``exp`` through libm (:func:`math.exp`).

    numpy's ``Generator.lognormal`` exponentiates with libm's ``exp``;
    ``np.exp`` is numpy's own SIMD implementation, which differs from it
    in the last bit for some inputs.
    """
    return np.fromiter(map(math.exp, values.tolist()), dtype=float,
                       count=values.shape[0])


class ProcessVariation:
    """Samples per-segment manufacturing variation for one die.

    All draws come from a die-specific random stream, so two devices
    built from different seeds have different (but individually
    reproducible) variation maps -- the basis of fingerprinting.
    """

    def __init__(
        self, seed: SeedLike = None, params: VariationParams = DEFAULT_VARIATION
    ) -> None:
        self.params = params
        self._rng = make_rng(seed)

    def sample_segments(
        self, nominal_delays_ps, nominal_amplitudes_ps
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample (rising_ps, falling_ps, amplitude_ps) arrays for a batch.

        One ``(n, 3)`` normal draw, row *i* holding segment *i*'s delay,
        asymmetry and amplitude deviates -- the order n one-at-a-time
        samples consume the stream in.  The two lognormal columns are
        exponentiated by :func:`_libm_exp`, as numpy's own scalar
        ``lognormal`` does.
        """
        delays = np.asarray(nominal_delays_ps, dtype=float)
        amplitudes = np.asarray(nominal_amplitudes_ps, dtype=float)
        if np.any(delays <= 0.0):
            raise ConfigurationError(
                f"nominal delay must be positive, got {delays.min()}"
            )
        if np.any(amplitudes < 0.0):
            raise ConfigurationError(
                f"nominal amplitude must be >= 0, got {amplitudes.min()}"
            )
        p = self.params
        draws = self._rng.normal(
            0.0, [p.delay_sigma, p.asymmetry_sigma_ps, p.amplitude_sigma],
            size=(delays.shape[0], 3),
        )
        delay = delays * _libm_exp(draws[:, 0])
        half_asymmetry = draws[:, 1] / 2.0
        rising = np.maximum(delay - half_asymmetry, 1.0)
        falling = np.maximum(delay + half_asymmetry, 1.0)
        amplitude = amplitudes * _libm_exp(draws[:, 2])
        return rising, falling, amplitude

    def sample_segment(
        self, nominal_delay_ps: float, nominal_amplitude_ps: float
    ) -> tuple[float, float, float]:
        """Sample (rising_ps, falling_ps, amplitude_ps) for one segment."""
        rising, falling, amplitude = self.sample_segments(
            [nominal_delay_ps], [nominal_amplitude_ps]
        )
        return float(rising[0]), float(falling[0]), float(amplitude[0])

    def spawn_rng(self) -> np.random.Generator:
        """A child generator for related per-die randomness."""
        return np.random.default_rng(self._rng.integers(0, 2**63))
