"""Reference capture: one capture word per sample, walked in Python.

The production sensor resolves a whole measurement as one tensor
(:meth:`~repro.sensor.tdc.TunableDualPolarityTdc.capture_words`) and a
whole board as one stacked call
(:meth:`~repro.designs.measure.MeasureSession.measure_bank`).  These
functions are the per-word and per-route paths that batching replaced,
kept so the equivalence suite can pin the batched engine against them:

* **bit-exact** without per-sample jitter -- the batched engine draws
  its metastability uniforms in one C-order call, which consumes the
  generator stream in exactly the per-word order used here;
* **distributional** with jitter -- the batched engine draws the jitter
  as one matrix before the uniforms, while :func:`sample_word`
  interleaves one normal per word, so the two realise different but
  identically distributed noise.

Each function takes the TDC (or session) as its first argument, so
:func:`tests.oracles.reference_engines` can install it as a method --
except :func:`resolve_bank_dense`, the dense form of
:func:`repro.sensor.bank.resolve_bank` (one boolean per tap, then a
Hamming pass), which the equivalence suite and the bank microbench
call directly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.designs.measure import MeasureSession
from repro.errors import CaptureDropError, SensorError, TransientError
from repro.reliability.faults import maybe_inject
from repro.reliability.retry import retry_call
from repro.sensor.bank import (
    bank_trace_mean_distances,
    bank_wavefront_positions,
    resolve_words,
)
from repro.sensor.postprocess import batch_trace_mean_distances
from repro.sensor.tdc import (
    TRACES_PER_MEASUREMENT,
    Measurement,
    TunableDualPolarityTdc,
)
from repro.sensor.trace import SAMPLES_PER_TRACE, Polarity, Trace


def sample_word(
    tdc: TunableDualPolarityTdc, theta_ps: float, polarity: Polarity
) -> np.ndarray:
    """One capture word at one theta setting.

    The wavefront position is ``theta`` minus the edge's arrival time at
    the chain entry, perturbed by clock jitter and the slow
    polarity-asymmetric supply offset.
    """
    theta = tdc.phase.quantise(theta_ps)
    arrival = tdc.generator.arrival_at_chain_ps(polarity)
    offset = tdc._noise.polarity_offset_ps
    arrival += offset if polarity is Polarity.FALLING else -offset
    arrival += tdc._noise.sample_jitter_ps()
    time_in_chain = theta - arrival
    position = tdc.chain.wavefront_position(max(time_in_chain, 0.0))
    return tdc._bank.capture(position, polarity)


def capture_trace_scalar(
    tdc: TunableDualPolarityTdc,
    theta_ps: float,
    polarity: Polarity,
    samples: int = SAMPLES_PER_TRACE,
) -> Trace:
    """One trace: one :func:`sample_word` per sample."""
    if samples <= 0:
        raise SensorError(f"samples must be positive, got {samples}")
    words = np.stack(
        [sample_word(tdc, theta_ps, polarity) for _ in range(samples)]
    )
    return Trace(polarity=polarity, theta_ps=theta_ps, words=words)


def measure_raw_scalar(
    tdc: TunableDualPolarityTdc,
    theta_init_ps: float,
    traces: int = TRACES_PER_MEASUREMENT,
    samples: int = SAMPLES_PER_TRACE,
) -> tuple[Measurement, list[Trace], list[Trace]]:
    """:meth:`~repro.sensor.tdc.TunableDualPolarityTdc.measure_raw`,
    trace by trace: the same fault site, noise epoch and theta steps,
    with every trace taken by :func:`capture_trace_scalar`."""
    maybe_inject(
        "sensor.capture", CaptureDropError,
        f"route {tdc.route.name!r}: capture trace dropped in "
        f"flight (injected)",
    )
    tdc._noise.advance_epoch()
    thetas = tdc.phase.steps_down(theta_init_ps, traces)
    rising = [
        capture_trace_scalar(tdc, t, Polarity.RISING, samples) for t in thetas
    ]
    falling = [
        capture_trace_scalar(tdc, t, Polarity.FALLING, samples)
        for t in thetas
    ]
    rising_mean = float(np.mean(batch_trace_mean_distances(
        np.stack([t.words for t in rising]), Polarity.RISING
    )))
    falling_mean = float(np.mean(batch_trace_mean_distances(
        np.stack([t.words for t in falling]), Polarity.FALLING
    )))
    measurement = Measurement(
        route_name=tdc.route.name,
        theta_init_ps=theta_init_ps,
        rising_distance=rising_mean,
        falling_distance=falling_mean,
        delta_ps=(rising_mean - falling_mean) * tdc.chain.nominal_bin_ps,
    )
    return measurement, rising, falling


def measure_bank_sequential(
    session: MeasureSession, recover: bool = False
) -> tuple[dict[str, Measurement], list[str]]:
    """:meth:`~repro.designs.measure.MeasureSession.measure_bank` as a
    :meth:`~repro.designs.measure.MeasureSession.measure_route` loop.

    Same contract: with ``recover=False`` an uncalibrated route raises
    and a capture drop propagates; with ``recover=True`` drops retry per
    route and failures land in the returned ``dropped`` list.
    """
    measurements: dict[str, Measurement] = {}
    dropped: list[str] = []
    for name in session.route_names:
        if not recover:
            measurements[name] = session.measure_route(name)
            continue
        if name not in session.theta_init:
            dropped.append(name)
            continue
        try:
            measurements[name] = retry_call(
                session.measure_route, name,
                label=f"sensor.capture:{name}",
            )
        except TransientError:
            dropped.append(name)
    return measurements, dropped


def resolve_bank_dense(
    tdcs: Sequence[TunableDualPolarityTdc],
    thetas_init_ps: Sequence[float],
    times: np.ndarray,
    uniforms: np.ndarray,
) -> dict[str, Measurement]:
    """:func:`repro.sensor.bank.resolve_bank` through the raw words.

    Resolves every tap of every word as a ``(routes, traces, samples,
    chain)`` boolean tensor per polarity, then reduces each word by
    counting -- the O(words x taps) resolve the sparse closed form
    replaced.
    """
    positions = bank_wavefront_positions(
        [tdc.chain for tdc in tdcs], np.maximum(times, 0.0)
    )
    means = [
        bank_trace_mean_distances(
            resolve_words(positions[:, axis], uniforms[:, axis], polarity),
            polarity,
        ).mean(axis=-1)
        for axis, polarity in enumerate((Polarity.RISING, Polarity.FALLING))
    ]
    measurements: dict[str, Measurement] = {}
    for tdc, theta, rising, falling in zip(tdcs, thetas_init_ps, *means):
        rising = float(rising)
        falling = float(falling)
        measurements[tdc.route.name] = Measurement(
            route_name=tdc.route.name,
            theta_init_ps=theta,
            rising_distance=rising,
            falling_distance=falling,
            delta_ps=(rising - falling) * tdc.chain.nominal_bin_ps,
        )
    return measurements
