"""Reference calibration: the sequential per-route scan.

:meth:`~repro.designs.measure.MeasureSession.calibrate` runs every
route's descent in lockstep, one stacked resolve per probe round.  This
is the loop it replaced -- one :func:`~repro.sensor.calibration.find_theta_init`
per route, in bank order, each retried on a glitch -- kept so the
equivalence suite can pin the lockstep scan against it.  Every route
owns an independent generator stream, so the two are bit-identical even
with jitter on.
"""

from __future__ import annotations

from repro.designs.measure import MeasureSession
from repro.errors import TransientError
from repro.observability import trace
from repro.observability.log import get_logger
from repro.observability.metrics import registry
from repro.reliability.retry import retry_call
from repro.sensor.calibration import find_theta_init

_log = get_logger("designs.measure")


def calibrate_sequential(session: MeasureSession) -> dict[str, float]:
    """The Calibration phase, one route at a time."""
    unrecovered = 0
    for name, tdc in session._tdcs.items():
        with trace.span("sensor.calibrate", route=name):
            try:
                session.theta_init[name] = retry_call(
                    find_theta_init, tdc, label=f"sensor.calibrate:{name}",
                )
            except TransientError:
                # Glitch past the retry budget: the route stays
                # uncalibrated and downstream passes skip it.
                unrecovered += 1
                registry.counter(
                    "calibrations_unrecovered_total",
                    "routes left uncalibrated past the retry budget",
                ).inc()
                _log.warning("calibration_unrecovered", route=name)
                continue
        registry.counter(
            "calibrations_total", "routes calibrated from scratch"
        ).inc()
    _log.info("calibrated", routes=len(session._tdcs) - unrecovered,
              unrecovered=unrecovered)
    return dict(session.theta_init)
