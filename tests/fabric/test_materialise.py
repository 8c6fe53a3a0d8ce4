"""Batched first-touch materialisation against the per-segment walker.

``FpgaDevice`` materialises every new segment of a lookup in one batch
(one variation draw, one imprint draw, one registration, one imprint
preload).  ``tests.oracles.ScalarAgingDevice`` materialises segment by
segment through the scalar samplers.  From one seed the two must give
bit-identical delays and segment states and leave both random streams
at the same position, however routes repeat, share or partly overlap
already-materialised segments -- and also when two devices interleave
their first touches into one shared store.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs import build_route_bank, build_target_design
from repro.fabric.device import _LOAD_BATCH_SEGMENTS, FpgaDevice
from repro.fabric.parts import VIRTEX_ULTRASCALE_PLUS
from repro.fabric.routing import Route
from repro.physics.aging import CLOUD_PART, NEW_PART
from repro.physics.pool_array import SegmentBtiArray
from tests.oracles import ScalarAgingDevice

PART = VIRTEX_ULTRASCALE_PLUS

#: Physical segments the generated routes draw from (ids only: segment
#: identity does not depend on the device).
POOL = tuple(dict.fromkeys(
    segment
    for route in build_route_bank(PART.make_grid(), [3000.0, 2000.0, 2500.0])
    for segment in route
))

WEARS = pytest.mark.parametrize("wear", [NEW_PART, CLOUD_PART],
                                ids=["new", "cloud"])

#: One query: (kind, segment positions).  ``state`` reads the snapshot
#: of the first segment only, so single-segment first touches mix with
#: whole-route batches.
query = st.tuples(
    st.sampled_from(["delta", "delays", "state"]),
    st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=14),
)
queries = st.lists(query, min_size=1, max_size=8)


def _run(device, plan):
    out = []
    for kind, positions in plan:
        route = Route("q", tuple(POOL[p] for p in positions))
        if kind == "delta":
            out.append(device.route_delta_ps(route))
        elif kind == "delays":
            out.append(device.transition_delays(route))
        else:
            out.append(device.segment_state(route.segments[0]).snapshot())
    return out


def _next_draws(device):
    """The next value of both materialisation streams."""
    return (device._variation._rng.random(), device._imprint_rng.random())


def _assert_same(device, reference, plan):
    assert _run(device, plan) == _run(reference, plan)
    assert device.materialised_segments == reference.materialised_segments
    for segment in {POOL[p] for _, positions in plan for p in positions}:
        assert (device.segment_state(segment).snapshot()
                == reference.segment_state(segment).snapshot())
    assert _next_draws(device) == _next_draws(reference)


@WEARS
@settings(max_examples=30, deadline=None)
@given(plan=queries, seed=st.integers(0, 2**32 - 1))
def test_batched_lookups_match_the_walker(wear, plan, seed):
    _assert_same(FpgaDevice(PART, wear=wear, seed=seed),
                 ScalarAgingDevice(PART, wear=wear, seed=seed), plan)


@WEARS
def test_route_repeating_a_segment(wear):
    plan = [("delta", [3, 5, 3, 3, 7, 5]), ("delays", [5, 3, 9])]
    _assert_same(FpgaDevice(PART, wear=wear, seed=3),
                 ScalarAgingDevice(PART, wear=wear, seed=3), plan)


@WEARS
def test_routes_sharing_segments(wear):
    plan = [("delta", [0, 1, 2, 3]), ("delta", [2, 3, 4, 5]),
            ("delays", [5, 6, 0])]
    _assert_same(FpgaDevice(PART, wear=wear, seed=4),
                 ScalarAgingDevice(PART, wear=wear, seed=4), plan)


@WEARS
def test_partially_materialised_route(wear):
    plan = [("state", [6]), ("state", [2]), ("delays", [1, 2, 3, 4, 5, 6, 7])]
    _assert_same(FpgaDevice(PART, wear=wear, seed=5),
                 ScalarAgingDevice(PART, wear=wear, seed=5), plan)


def test_one_preload_per_batch(monkeypatch):
    calls = []
    original = SegmentBtiArray.preload_imprint

    def counted(self, indices, *args, **kwargs):
        calls.append(np.asarray(indices).size)
        return original(self, indices, *args, **kwargs)

    monkeypatch.setattr(SegmentBtiArray, "preload_imprint", counted)
    device = FpgaDevice(PART, wear=CLOUD_PART, seed=6)
    device.route_delta_ps(Route("r", POOL[:12]))
    device.route_delta_ps(Route("r", POOL[:12]))
    assert calls == [12]
    FpgaDevice(PART, wear=NEW_PART, seed=6).route_delta_ps(Route("r", POOL))
    assert calls == [12]


@WEARS
@settings(max_examples=20, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.integers(0, 1), query),
        min_size=1, max_size=10,
    ),
)
def test_devices_interleaving_into_a_shared_store(wear, steps):
    store = SegmentBtiArray()
    shared = [FpgaDevice(PART, wear=wear, seed=s, bti_store=store)
              for s in (41, 42)]
    references = [ScalarAgingDevice(PART, wear=wear, seed=s)
                  for s in (41, 42)]
    for board, step in steps:
        assert _run(shared[board], [step]) == _run(references[board], [step])
    assert len(store) == sum(d.materialised_segments for d in shared)
    for device, reference in zip(shared, references):
        _assert_same(device, reference, [("delta", list(range(len(POOL))))])


@WEARS
def test_load_batches_nets_like_the_walker(wear, monkeypatch):
    """A heater design's many single-segment nets load in a few batches,
    bit-identical to the walker's segment-by-segment first load."""
    batches = []
    original = FpgaDevice._materialise

    def counted(self, segment_ids):
        batches.append(len(segment_ids))
        return original(self, segment_ids)

    monkeypatch.setattr(FpgaDevice, "_materialise", counted)
    devices = [cls(PART, wear=wear, seed=8)
               for cls in (FpgaDevice, ScalarAgingDevice)]
    routes = build_route_bank(devices[0].grid, [3000.0, 2000.0])
    design = build_target_design(PART, routes, [1, 0], heater_dsps=600)
    for device in devices:
        device.load(design.bitstream)
        device.advance_hours(6.0, 330.0)
    array, walker = devices
    assert sum(batches) == array.materialised_segments
    assert max(batches) <= _LOAD_BATCH_SEGMENTS
    assert len(batches) < array.materialised_segments // 10
    assert ([array.route_delta_ps(r) for r in routes]
            == [walker.route_delta_ps(r) for r in routes])
    assert _next_draws(array) == _next_draws(walker)
