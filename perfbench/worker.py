"""One benchmark sample in a fresh interpreter.

``run.py`` starts this file once per sample so import and every cold
cache count the way a user pays for them.  Modes:

* ``setup``  -- import the workload's modules and build its config,
  then stop: a set-up time probe;
* ``run``    -- set up, then run the workload once with no timing
  wrappers (the end-to-end sample);
* ``traced`` -- the same run with the layer tracer installed.

Prints one JSON record as the last line of standard output.  Set-up
time counts from ``--spawned-at``, the parent's ``time.monotonic()``
just before it started this process (a system-wide clock on Linux).
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
import traceback

from layers import Tracer, installed_wrappers, layer_metrics
from workloads import WORKLOADS, program_counters


class DeviceCensus:
    """Keeps every ``FpgaDevice`` a run constructs.

    Not a timing wrapper: one list append per device construction, so
    the digest and the traced run can read materialised-segment counts
    of boards the program never hands back (the fleet's lazy boards).
    """

    def __init__(self) -> None:
        self.devices: list = []
        self._owner = None
        self._original = None

    def install(self) -> None:
        from repro.fabric.device import FpgaDevice

        original = FpgaDevice.__dict__["__init__"]
        devices = self.devices

        def __init__(device, *args, **kwargs):
            original(device, *args, **kwargs)
            devices.append(device)

        self._owner, self._original = FpgaDevice, original
        FpgaDevice.__init__ = __init__

    def uninstall(self) -> None:
        if self._owner is not None:
            self._owner.__init__ = self._original
            self._owner = None

    @property
    def segments(self) -> int:
        return sum(d.materialised_segments for d in self.devices)


def resolved_kernels() -> dict:
    """The capture/aging/calibration kernels this process resolved."""
    from repro.observability.manifest import resolved_kernels as kernels
    from repro.sensor.calibration import get_calibration_kernel

    return {**kernels(), "calibration": get_calibration_kernel()}


def sample(record: dict, workload_name: str, seed: int, scale: str,
           mode: str, spawned_at: float) -> None:
    """Fill ``record`` with one sample (partially, if the run raises)."""
    workload = WORKLOADS[workload_name]
    for module in workload.modules:
        importlib.import_module(module)
    config = workload.make_config(seed, scale)
    record.update(
        workload=workload_name, seed=seed, scale=scale, mode=mode,
        attempted=workload.ops(config),
        setup_s=time.monotonic() - spawned_at,
    )
    if mode == "setup":
        return

    census = DeviceCensus()
    tracer = Tracer() if mode == "traced" else None
    census.install()
    if tracer is not None:
        tracer.install()
    record["wrappers_active"] = len(installed_wrappers())
    before = program_counters()
    try:
        start = time.perf_counter()
        if tracer is not None:
            result = tracer.run_root(workload.run, config)
        else:
            result = workload.run(config)
        record["wall_s"] = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
        census.uninstall()
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    outcome = workload.outcome(config, result, census.devices)
    record.update(
        accuracy=outcome.accuracy,
        failed=outcome.failed,
        digest=outcome.digest,
        checks=outcome.checks,
        kernels=resolved_kernels(),
        leftover_wrappers=installed_wrappers(),
    )
    if tracer is not None:
        after = program_counters()
        counters = {k: v - before.get(k, 0.0) for k, v in after.items()}
        facts = {"churn_events": 0.0, "tm2_boards_probed": 0.0,
                 "segments_materialised": float(census.segments)}
        facts.update(outcome.facts)
        record["layers"] = layer_metrics(tracer, counters, facts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("paper", "quick"), default="paper")
    parser.add_argument("--mode", choices=("setup", "run", "traced"),
                        required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    record: dict = {}
    try:
        sample(record, args.workload, args.seed, args.scale, args.mode,
               args.spawned_at)
    except Exception:
        # The harness boundary: a raising run is reported, not hidden.
        record["error"] = traceback.format_exc()
        print(json.dumps(record))
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
