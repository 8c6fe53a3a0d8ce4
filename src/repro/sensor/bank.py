"""Bank-level capture: every route of a board in one kernel call.

A board's whole measurement bank resolves as one ``(routes, 2, traces,
samples)`` array of Binary Hamming Distances, and a calibration round
probes every still-searching route in one call.

The RNG discipline that makes this bit-identical to the per-route path:
each route owns an independent generator stream (spawned per route by
:class:`~repro.designs.measure.MeasureSession`), and the bank kernels
materialise each route's draws *sequentially, in bank order* via
:meth:`~repro.sensor.tdc.TunableDualPolarityTdc.capture_draws` /
``measure_draws`` -- exactly the draws the per-route loop would make --
straight into one board-wide ``(routes, 2, traces, samples, chain)``
uniform tensor.  The resolve then never forms a capture word: the paper's
procedure consumes only each word's distance, and
:func:`~repro.sensor.capture.resolve_distances` computes it from the
(at most two) taps at the wavefront.  Batching therefore changes
where the arithmetic happens, never which random numbers feed it.

:func:`~repro.sensor.capture.resolve_words` and
:func:`~repro.sensor.postprocess.bank_trace_mean_distances` are
re-exported here as the dense raw-word form of the same resolve (one
boolean per tap, then a Hamming pass); the test oracle builds on them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.observability.metrics import registry
from repro.sensor.capture import resolve_distances, resolve_words
from repro.sensor.carry_chain import bank_wavefront_positions
from repro.sensor.postprocess import bank_trace_mean_distances
from repro.sensor.tdc import Measurement, TunableDualPolarityTdc
from repro.sensor.trace import SAMPLES_PER_TRACE, Polarity

__all__ = [
    "bank_trace_mean_distances",
    "bank_wavefront_positions",
    "probe_bank",
    "resolve_bank",
    "resolve_words",
]


def _count_words(words: int) -> None:
    registry.counter(
        "capture_words_total",
        "capture words computed by the batched kernel",
    ).inc(words)


def resolve_bank(
    tdcs: Sequence[TunableDualPolarityTdc],
    thetas_init_ps: Sequence[float],
    times: np.ndarray,
    uniforms: np.ndarray,
) -> dict[str, Measurement]:
    """Reduce a bank of pre-drawn measurements to one per route.

    ``times`` is ``(routes, 2, traces, samples)`` and ``uniforms``
    ``(routes, 2, traces, samples, chain)``, axis 1 ordered (rising,
    falling) -- row ``r`` holds ``tdcs[r].measure_draws`` at
    ``thetas_init_ps[r]``.  Wavefront positions resolve against the
    per-route chain boundaries in one call, each word reduces straight
    to its distance, and each route's means agree bit for bit with
    ``measure_raw`` on that route alone.
    """
    if not tdcs:
        return {}
    positions = bank_wavefront_positions(
        [tdc.chain for tdc in tdcs], np.maximum(times, 0.0)
    )
    # Mean over samples within a trace, then over traces: the paper's
    # reduction order, and measure_raw's.
    means = resolve_distances(positions, uniforms).mean(axis=-1).mean(axis=-1)
    _count_words(2 * times.shape[0] * times.shape[2] * times.shape[3])
    measurements: dict[str, Measurement] = {}
    for tdc, theta, (rising, falling) in zip(tdcs, thetas_init_ps, means):
        rising = float(rising)
        falling = float(falling)
        name = tdc.route.name
        measurements[name] = Measurement(
            route_name=name,
            theta_init_ps=theta,
            rising_distance=rising,
            falling_distance=falling,
            delta_ps=(rising - falling) * tdc.chain.nominal_bin_ps,
        )
    return measurements


def probe_bank(
    tdcs: Sequence[TunableDualPolarityTdc],
    thetas_ps: Sequence[float],
    samples: int = SAMPLES_PER_TRACE,
) -> tuple[np.ndarray, np.ndarray]:
    """One calibration probe per route, resolved as one stacked call.

    Route ``r`` takes a single rising and a single falling trace at
    ``thetas_ps[r]`` -- the same draws, in the same per-route order, as
    two sequential ``capture_trace`` calls -- and the whole round
    resolves together.  Returns ``(rising_means, falling_means)``, the
    per-route mean propagation distances in chain elements.
    """
    routes = len(tdcs)
    times = np.empty((routes, 2, 1, samples))
    uniforms = np.empty((routes, 2, 1, samples, tdcs[0].chain_length))
    for row, (tdc, theta) in enumerate(zip(tdcs, thetas_ps)):
        for axis, polarity in enumerate((Polarity.RISING, Polarity.FALLING)):
            times[row, axis], _ = tdc.capture_draws(
                [theta], polarity, samples, out=uniforms[row, axis]
            )
    positions = bank_wavefront_positions(
        [tdc.chain for tdc in tdcs], np.maximum(times, 0.0)
    )
    means = resolve_distances(positions, uniforms)[:, :, 0].mean(axis=-1)
    _count_words(2 * routes * samples)
    return means[:, 0], means[:, 1]
