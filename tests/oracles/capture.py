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
:func:`tests.oracles.reference_engines` can install it as a method.
"""

from __future__ import annotations

import numpy as np

from repro.designs.measure import MeasureSession
from repro.errors import CaptureDropError, SensorError, TransientError
from repro.reliability.faults import maybe_inject
from repro.reliability.retry import retry_call
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
