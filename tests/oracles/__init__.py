"""Reference engines: the paths the production engines replaced.

``src/repro`` runs exactly one engine per hot loop -- batched capture,
lockstep calibration, structure-of-arrays aging and lazy provider
aging.  The implementations they replaced live here, test-only, as
oracles the equivalence suite and the benchmarks pin them against:

* :mod:`tests.oracles.capture` -- per-word capture, the per-route
  measurement loop and the dense (every-tap) bank resolve;
* :mod:`tests.oracles.calibration` -- the sequential per-route scan;
* :mod:`tests.oracles.aging` -- :class:`ScalarAgingDevice`, one
  ``SegmentBti`` object per segment, materialised one draw at a time;
* :mod:`tests.oracles.provider` -- :class:`EagerCloudProvider`, which
  ages every device on every clock tick.

Unit-level tests call these directly.  Whole-experiment reference runs
use :func:`reference_engines`, which patches them into the production
classes and modules for the duration of a ``with`` block.  Nothing in
``src/repro`` imports this package.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
from contextlib import contextmanager
from typing import Iterator

import repro
from repro.cloud.provider import CloudProvider
from repro.designs.measure import MeasureSession
from repro.fabric.device import FpgaDevice
from repro.sensor.tdc import TunableDualPolarityTdc
from tests.oracles.aging import (
    ScalarAgingDevice,
    sample_residual_imprints_scalar,
    sample_segment_scalar,
)
from tests.oracles.calibration import calibrate_sequential
from tests.oracles.capture import (
    capture_trace_scalar,
    measure_bank_sequential,
    measure_raw_scalar,
    resolve_bank_dense,
    sample_word,
)
from tests.oracles.provider import EagerCloudProvider

#: Engines :func:`reference_engines` can swap for their reference.
ENGINES = ("capture", "calibration", "aging")

#: Module-level classes the ``aging`` engine swaps wherever ``repro``
#: binds them: the reference device always comes with the eager
#: provider, so no reference device reaches the bulk idle catch-up.
_AGING_CLASSES = (
    ("FpgaDevice", FpgaDevice, ScalarAgingDevice),
    ("CloudProvider", CloudProvider, EagerCloudProvider),
)


def _repro_modules() -> list:
    """Every module of the ``repro`` package, imported.

    Importing all of them up front means no module first imports a
    patched binding inside the ``with`` block and keeps it afterwards.
    """
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    return [module for name, module in sorted(sys.modules.items())
            if name == "repro" or name.startswith("repro.")]


def _patches(engines: tuple[str, ...]) -> list[tuple[object, str, object]]:
    patches: list[tuple[object, str, object]] = []
    if "capture" in engines:
        patches += [
            (TunableDualPolarityTdc, "capture_trace", capture_trace_scalar),
            (TunableDualPolarityTdc, "measure_raw", measure_raw_scalar),
            (MeasureSession, "measure_bank", measure_bank_sequential),
        ]
    if "capture" in engines or "calibration" in engines:
        # The lockstep scan resolves its probe rounds through the
        # batched engine, so reference capture implies the sequential
        # scan as well.
        patches.append((MeasureSession, "calibrate", calibrate_sequential))
    if "aging" in engines:
        for module in _repro_modules():
            for name, production, reference in _AGING_CLASSES:
                if vars(module).get(name) is production:
                    patches.append((module, name, reference))
    return patches


@contextmanager
def reference_engines(*engines: str) -> Iterator[list[tuple[object, str]]]:
    """Run the body on the reference engines, restoring everything on exit.

    ``engines`` picks from :data:`ENGINES` (all of them by default):

    * ``capture`` -- per-word traces, per-route measurement and the
      sequential calibration scan;
    * ``calibration`` -- the sequential calibration scan only (capture
      stays batched);
    * ``aging`` -- :class:`ScalarAgingDevice` and
      :class:`EagerCloudProvider` wherever ``repro`` constructs a device
      or a provider.  Devices keep their engine after the block ends.

    Yields the ``(owner, attribute)`` pairs it patched.
    """
    engines = engines or ENGINES
    unknown = sorted(set(engines) - set(ENGINES))
    if unknown:
        raise ValueError(
            f"unknown reference engine(s) {unknown}; choose from {ENGINES}"
        )
    patches = _patches(engines)
    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in patches]
    try:
        for owner, name, reference in patches:
            setattr(owner, name, reference)
        yield [(owner, name) for owner, name, _ in patches]
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


__all__ = [
    "ENGINES",
    "EagerCloudProvider",
    "ScalarAgingDevice",
    "calibrate_sequential",
    "capture_trace_scalar",
    "measure_bank_sequential",
    "measure_raw_scalar",
    "reference_engines",
    "resolve_bank_dense",
    "sample_residual_imprints_scalar",
    "sample_segment_scalar",
    "sample_word",
]
