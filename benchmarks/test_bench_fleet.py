"""Fleet-scale simulation benchmark: the PR 8 tentpole's headline.

Four phases, written to ``BENCH_fleet.json`` at the repo root:

* **bulk_churn** -- the headline workload: 100k devices, 500k tenant
  arrivals (1M lifecycle events, drop-free by construction) resolved
  by the vectorised bulk-churn engine.  Hard-gated at >= 1M events/s.
* **reference_baseline** -- the per-event reference engine timed on a
  smaller trace; its events/s is the eager baseline the bulk speedup
  is measured against.
* **equivalence** -- bulk vs reference on a moderate drop-heavy
  scenario: free-stack contents, event counts and capacity drops must
  match exactly, and the bulk engine must be invariant to the window
  size it resolves the trace in.
* **campaign_quick** -- a small flash-attack campaign recording fleet
  recovery yield, pinned identical across engines.
* **materialise_microbench** -- first-touch probing of fresh cloud
  boards (every route segment materialised on the probe), batched
  lookups against the per-segment reference walker
  (``tests.oracles.ScalarAgingDevice``): the route deltas must be
  equal and the batched path must not be slower.

Hard gates are deliberately loose (the 1M events/s floor is ~3x under
what this path measures on a warm laptop core); the headline ratios
are recorded for trend tracking by ``repro bench diff``.
"""

import json
import math
import os
import platform
from pathlib import Path
from time import perf_counter

from repro.designs import build_route_bank
from repro.fabric.device import FpgaDevice
from repro.physics.aging import CLOUD_PART
from repro.cloud.campaigns import (
    ChurnModel,
    FlashAttackPlan,
    FleetScenario,
    VirtualRegion,
    run_churn_benchmark,
    run_flash_campaign,
)
from tests.oracles import ScalarAgingDevice

_TARGET = Path(__file__).resolve().parents[1] / "BENCH_fleet.json"

#: Headline workload: 2 * _ARRIVALS lifecycle events on _DEVICES boards.
_DEVICES = 100_000
_ARRIVALS = 500_000

#: The reference engine replays one python-level event at a time; a
#: full million-event trace would dominate the bench session, so the
#: baseline is timed on a slice and compared per-event.
_REFERENCE_ARRIVALS = 20_000
_REFERENCE_DEVICES = 4_000

#: CI gate: minimum bulk-path throughput, lifecycle events per second.
_FLOOR_EVENTS_PER_SECOND = 1_000_000


#: First-touch microbench: fresh cloud boards, each probed once on
#: every route of a fleet-scan-sized bank.
_PROBE_BOARDS = 200
_PROBE_ROUTES = 8


def _probe_fresh_boards(device_cls, part, routes, seeds):
    """Route deltas of ``seeds`` fresh boards and the seconds it took."""
    start = perf_counter()
    deltas = [
        [device.route_delta_ps(route) for route in routes]
        for device in (
            device_cls(part, wear=CLOUD_PART, seed=seed) for seed in seeds
        )
    ]
    return deltas, perf_counter() - start


def _campaign_scenario(engine):
    return FleetScenario(
        devices=96,
        horizon_hours=220.0,
        churn=ChurnModel(arrival_rate_per_hour=2.0,
                         mean_rental_hours=10.0),
        routes=4,
        seed=6,
        engine=engine,
    )


def test_bench_fleet(emit):
    # -- bulk churn headline -------------------------------------------
    best = None
    for _ in range(2):  # best-of-2: first run pays numpy warm-up
        stats = run_churn_benchmark(
            devices=_DEVICES, arrivals=_ARRIVALS, seed=0, engine="bulk"
        )
        if best is None or stats["seconds"] < best["seconds"]:
            best = stats
    emit(f"bulk churn: {best['events']:,} events over "
         f"{best['devices']:,} devices in {best['seconds']:.2f} s "
         f"({best['events_per_second']:,.0f} events/s)")

    # -- reference baseline --------------------------------------------
    ref = run_churn_benchmark(
        devices=_REFERENCE_DEVICES, arrivals=_REFERENCE_ARRIVALS,
        seed=0, engine="reference",
    )
    speedup = best["events_per_second"] / ref["events_per_second"]
    emit(f"reference baseline: {ref['events']:,} events in "
         f"{ref['seconds']:.2f} s ({ref['events_per_second']:,.0f} "
         f"events/s) -- bulk is {speedup:.0f}x faster per event")

    # -- engine equivalence --------------------------------------------
    trace = ChurnModel(40.0, 6.0).draw(200.0, seed=3)
    engines = {}
    for engine, batch in (("reference", math.inf), ("bulk", math.inf),
                          ("bulk", 11.0)):
        region = VirtualRegion(48, trace, engine=engine,
                               batch_hours=batch)
        region.advance_to(240.0)
        engines[(engine, batch)] = (
            region.free_boards(), region.events_processed,
            region.dropped_arrivals,
        )
    ref_state = engines[("reference", math.inf)]
    equivalent = all(state == ref_state for state in engines.values())
    emit(f"equivalence: {ref_state[1]:,} events, "
         f"{ref_state[2]:,} drops -- bulk == reference: {equivalent}, "
         f"batch-invariant: "
         f"{engines[('bulk', 11.0)] == engines[('bulk', math.inf)]}")

    # -- quick campaign ------------------------------------------------
    start = perf_counter()
    campaign = run_flash_campaign(
        _campaign_scenario("bulk"),
        FlashAttackPlan(victims=2, flash_limit=4, reaction_hours=0.25),
    )
    campaign_s = perf_counter() - start
    campaign_ref = run_flash_campaign(
        _campaign_scenario("reference"),
        FlashAttackPlan(victims=2, flash_limit=4, reaction_hours=0.25),
    )
    emit(f"campaign: yield {campaign.recovery_yield:.2f}, "
         f"mean accuracy {campaign.mean_accuracy:.3f}, "
         f"{campaign.lifecycle_events:,} churn events in "
         f"{campaign_s:.2f} s")

    # -- first-touch materialisation -----------------------------------
    fleet = FleetScenario()
    routes = build_route_bank(
        fleet.part.make_grid(), [fleet.route_length_ps] * _PROBE_ROUTES
    )
    seeds = range(_PROBE_BOARDS)
    batched, batched_s = _probe_fresh_boards(
        FpgaDevice, fleet.part, routes, seeds
    )
    walker, walker_s = _probe_fresh_boards(
        ScalarAgingDevice, fleet.part, routes, seeds
    )
    deltas_equal = batched == walker
    materialise_speedup = walker_s / batched_s
    emit(f"first touch: {_PROBE_BOARDS} boards x {_PROBE_ROUTES} routes "
         f"in {batched_s:.2f} s batched vs {walker_s:.2f} s per segment "
         f"({materialise_speedup:.1f}x), deltas equal: {deltas_equal}")

    payload = {
        "suite": "fleet",
        "python_version": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "bulk_churn": {
            "devices": best["devices"],
            "arrivals": best["arrivals"],
            "events": best["events"],
            "dropped_arrivals": best["dropped_arrivals"],
            "seconds": round(best["seconds"], 3),
            "events_per_second": round(best["events_per_second"]),
        },
        "reference_baseline": {
            "devices": ref["devices"],
            "arrivals": ref["arrivals"],
            "events": ref["events"],
            "seconds": round(ref["seconds"], 3),
            "events_per_second": round(ref["events_per_second"]),
            "bulk_speedup": round(speedup, 1),
        },
        "equivalence": {
            "events": ref_state[1],
            "dropped_arrivals": ref_state[2],
            "bulk_matches_reference": equivalent,
        },
        "campaign_quick": {
            "engine": "bulk",
            "victims": campaign.victims_attempted,
            "recovery_yield": campaign.recovery_yield,
            "mean_accuracy": round(campaign.mean_accuracy, 4),
            "lifecycle_events": campaign.lifecycle_events,
            "seconds": round(campaign_s, 3),
            "engine_invariant": (
                campaign.recovery_yield == campaign_ref.recovery_yield
                and campaign.details == campaign_ref.details
            ),
        },
        "materialise_microbench": {
            "boards": _PROBE_BOARDS,
            "routes": _PROBE_ROUTES,
            "batched_seconds": round(batched_s, 3),
            "reference_seconds": round(walker_s, 3),
            "speedup": round(materialise_speedup, 2),
            "deltas_equal": deltas_equal,
        },
    }
    _TARGET.write_text(json.dumps(payload, indent=1))
    emit(f"wrote {_TARGET.name}")

    # Hard gates: the bulk path must clear the CI throughput floor on a
    # drop-free million-event trace, it must never lose to the
    # per-event reference, and correctness must not depend on the
    # engine or the window size.
    assert best["events"] == 2 * _ARRIVALS
    assert best["dropped_arrivals"] == 0
    assert best["events_per_second"] >= _FLOOR_EVENTS_PER_SECOND
    assert speedup > 1.0
    assert equivalent
    assert campaign.recovery_yield == campaign_ref.recovery_yield
    assert campaign.mean_accuracy == campaign_ref.mean_accuracy
    assert deltas_equal
    assert materialise_speedup >= 1.0
