"""The benchmark's workloads: inputs from a seed, the run, the checks.

Each workload builds its input from ``seed`` alone (the program only
receives the generated config), runs one public entry point, and
summarises the result as accuracy, operations attempted and failed, a
result digest, and the structural checks its output must pass.

``scale="paper"`` is the benchmark; ``scale="quick"`` shrinks every
workload for the harness self-test.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

#: Route statuses that count as a successful route decision.
OK_STATUSES = ("recovered", "ok")

#: Program counters every exp* digest covers (deterministic per seed).
EXP_DIGEST_COUNTERS = (
    "captures_total",
    "capture_words_total",
    "aging_segment_updates_total",
)

#: Fleet-scan scenario shape (``devices`` scales with ``scale``).
FLEET_DEVICES = {"paper": 100_000, "quick": 2_000}
FLEET_HORIZON_HOURS = 336.0
FLEET_ARRIVAL_WINDOW_HOURS = 48.0
FLEET_MEAN_RENTAL_HOURS = 12.0
FLEET_ROUTES = 8
FLEET_VICTIMS = 4


@dataclass
class Outcome:
    """One workload run, summarised for the harness.

    ``failed`` counts failed operations; the operations a run attempts
    come from :attr:`Workload.ops`, so a run that raises still has them.
    """

    accuracy: float
    failed: int
    digest_payload: dict
    checks: list
    facts: dict

    @property
    def digest(self) -> str:
        blob = json.dumps(self.digest_payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _counter(name: str) -> float:
    from repro.observability.metrics import registry

    counter = registry.counters.get(name)
    return float(counter.value) if counter is not None else 0.0


def program_counters() -> dict[str, float]:
    """Current values of every registry counter."""
    from repro.observability.metrics import registry

    return {name: float(c.value) for name, c in registry.counters.items()}


def _series_hash(bundle) -> str:
    """Hash of every recorded (hour, delta-ps) point, bit for bit."""
    import numpy as np

    digest = hashlib.sha256()
    for name in sorted(bundle.series):
        series = bundle.series[name]
        digest.update(name.encode())
        digest.update(np.asarray(series.hours_array, dtype=np.float64).tobytes())
        digest.update(np.asarray(series.raw_array, dtype=np.float64).tobytes())
    return digest.hexdigest()[:16]


def _exp_outcome(result, expect_routes: int, expect_points: int,
                 devices_probed: int, expect_devices: int) -> Outcome:
    truth = {
        series.route_name: series.burn_value for series in result.bundle
    }
    bits = {
        name: truth[name] if ok else 1 - truth[name]
        for name, ok in result.recovery_score.per_route.items()
    }
    status = dict(result.route_status)
    failed = sum(1 for s in status.values() if s not in OK_STATUSES)
    checks = []
    if len(status) != expect_routes:
        checks.append(f"{len(status)} route decisions, expected {expect_routes}")
    if set(bits) != set(status):
        checks.append("recovered bits and route statuses name different routes")
    short = [s.route_name for s in result.bundle if len(s) != expect_points]
    if short:
        checks.append(f"{len(short)} series without {expect_points} points")
    if devices_probed != expect_devices:
        checks.append(f"{devices_probed} boards probed, expected {expect_devices}")
    accuracy = result.recovery_score.accuracy
    if not 0.0 <= accuracy <= 1.0:
        checks.append(f"accuracy {accuracy} outside [0, 1]")
    payload = {
        "bits": bits,
        "route_status": status,
        "devices_probed": devices_probed,
        "series": _series_hash(result.bundle),
        "counters": {name: _counter(name) for name in EXP_DIGEST_COUNTERS},
    }
    return Outcome(
        accuracy=accuracy,
        failed=failed,
        digest_payload=payload,
        checks=checks,
        facts={},
    )


# --- exp1-lab ---------------------------------------------------------------


def _exp1_config(seed: int, scale: str):
    from repro.experiments import Experiment1Config

    return (Experiment1Config.paper(seed) if scale == "paper"
            else Experiment1Config.quick(seed))


def _exp1_run(config):
    from repro.experiments import run_experiment1

    return run_experiment1(config)


def _exp1_outcome(config, result, devices) -> Outcome:
    cycles = int(config.burn_hours / config.measure_every_hours) + int(
        config.recovery_hours / config.measure_every_hours
    )
    return _exp_outcome(result, len(config.route_lengths), cycles + 2,
                        devices_probed=1, expect_devices=1)


# --- exp2-tm1 ---------------------------------------------------------------


def _exp2_config(seed: int, scale: str):
    from repro.experiments import Experiment2Config

    return (Experiment2Config.paper(seed) if scale == "paper"
            else Experiment2Config.quick(seed))


def _exp2_run(config):
    from repro.experiments import run_experiment2

    return run_experiment2(config)


def _exp2_outcome(config, result, devices) -> Outcome:
    cycles = int(round(config.burn_hours / config.measure_every_hours))
    return _exp_outcome(result, len(config.route_lengths), cycles + 1,
                        devices_probed=1, expect_devices=1)


# --- exp3-tm2 ---------------------------------------------------------------


def _exp3_config(seed: int, scale: str):
    from repro.experiments import Experiment3Config

    return (Experiment3Config.paper(seed) if scale == "paper"
            else Experiment3Config.quick(seed))


def _exp3_run(config):
    from repro.experiments import run_experiment3

    return run_experiment3(config)


def _exp3_outcome(config, result, devices) -> Outcome:
    outcome = _exp_outcome(result, len(config.route_lengths),
                           config.recovery_hours + 1,
                           devices_probed=result.devices_probed,
                           expect_devices=config.fleet_size)
    outcome.facts["tm2_boards_probed"] = float(result.devices_probed)
    return outcome


# --- fleet-scan -------------------------------------------------------------


def _fleet_config(seed: int, scale: str):
    from repro.cloud.campaigns import ChurnModel, FleetScenario, ScanPlan

    devices = FLEET_DEVICES[scale]
    scenario = FleetScenario(
        devices=devices,
        horizon_hours=FLEET_HORIZON_HOURS,
        churn=ChurnModel(
            arrival_rate_per_hour=devices / FLEET_ARRIVAL_WINDOW_HOURS,
            mean_rental_hours=FLEET_MEAN_RENTAL_HOURS,
        ),
        routes=FLEET_ROUTES,
        seed=seed,
        engine="bulk",
    )
    return scenario, ScanPlan(victims=FLEET_VICTIMS)


def _fleet_run(config):
    from repro.cloud.campaigns import run_scan_campaign

    scenario, plan = config
    return run_scan_campaign(scenario, plan)


def _fleet_outcome(config, result, devices) -> Outcome:
    scenario, plan = config
    summary = result.to_dict()
    segments = sum(d.materialised_segments for d in devices)
    checks = []
    if result.victims_attempted + result.victims_skipped != plan.victims:
        checks.append("victims attempted + skipped != victims planned")
    if result.boards_probed <= 0 or result.lifecycle_events <= 0:
        checks.append("campaign probed no boards or replayed no churn")
    if not 0.0 <= result.mean_accuracy <= 1.0:
        checks.append(f"mean accuracy {result.mean_accuracy} outside [0, 1]")
    if len(devices) > scenario.devices:
        checks.append(f"{len(devices)} boards materialised of {scenario.devices}")
    payload = {
        "campaign": summary,
        "fleet_events_total": _counter("fleet_events_total"),
        "segments_materialised": segments,
    }
    return Outcome(
        accuracy=result.mean_accuracy,
        failed=result.victims_skipped,
        digest_payload=payload,
        checks=checks,
        facts={"churn_events": float(result.lifecycle_events)},
    )


def _route_ops(config) -> int:
    return len(config.route_lengths)


def _victim_ops(config) -> int:
    return config[1].victims


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``modules`` are imported during set-up, so the timed run starts with
    everything the entry point needs already loaded; ``ops`` counts the
    operations (route decisions or victims) a run attempts.
    """

    name: str
    modules: tuple
    make_config: Callable
    run: Callable
    outcome: Callable
    ops: Callable


_EXP_MODULES = ("numpy", "repro.experiments")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("exp1-lab", _EXP_MODULES, _exp1_config, _exp1_run,
                 _exp1_outcome, _route_ops),
        Workload("exp2-tm1", _EXP_MODULES, _exp2_config, _exp2_run,
                 _exp2_outcome, _route_ops),
        Workload("exp3-tm2", _EXP_MODULES, _exp3_config, _exp3_run,
                 _exp3_outcome, _route_ops),
        Workload("fleet-scan", ("numpy", "repro.cloud.campaigns"),
                 _fleet_config, _fleet_run, _fleet_outcome, _victim_ops),
    )
}
