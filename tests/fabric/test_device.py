"""Tests for the FpgaDevice: the persistence of analog state is the
vulnerability, so these are the most security-relevant invariants in the
code base."""

import gc

import pytest

from repro.errors import FabricError
from repro.designs import build_route_bank, build_target_design
from repro.fabric.device import FpgaDevice
from repro.fabric.parts import VIRTEX_ULTRASCALE_PLUS, ZYNQ_ULTRASCALE_PLUS
from repro.observability.metrics import registry
from repro.physics.bti import SegmentBti
from repro.physics.aging import CLOUD_PART, NEW_PART
from repro.physics.pool_array import SegmentBtiArray
from repro.cloud.fleet import build_fleet
from repro.units import celsius_to_kelvin
from tests.oracles import ScalarAgingDevice, reference_engines

AMBIENT = celsius_to_kelvin(60.0)


def conditioned_device(burn_values=(1, 0), hours=24):
    device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, wear=NEW_PART, seed=7)
    routes = build_route_bank(device.grid, [2000.0] * len(burn_values))
    design = build_target_design(
        device.part, routes, list(burn_values), heater_dsps=0
    )
    device.load(design.bitstream)
    device.advance_hours(float(hours), AMBIENT)
    return device, routes


class TestWipeSemantics:
    def test_wipe_clears_logical_state(self):
        device, _ = conditioned_device()
        assert device.loaded_design is not None
        device.wipe()
        assert device.loaded_design is None

    def test_wipe_preserves_analog_state(self):
        """The central claim of the paper, enforced structurally."""
        device, routes = conditioned_device()
        before = [device.route_delta_ps(r) for r in routes]
        device.wipe()
        after = [device.route_delta_ps(r) for r in routes]
        assert after == before
        assert abs(after[0]) > 0.1  # a real imprint survived

    def test_reload_after_wipe_sees_same_transistors(self):
        device, routes = conditioned_device()
        imprint = device.route_delta_ps(routes[0])
        device.wipe()
        other = build_target_design(
            device.part, routes, [0, 0], heater_dsps=0, name="second-tenant"
        )
        device.load(other.bitstream)
        assert device.route_delta_ps(routes[0]) == pytest.approx(imprint)


class TestLoadLifecycle:
    def test_double_load_rejected(self):
        device, routes = conditioned_device()
        design = build_target_design(
            device.part, routes, [1, 1], heater_dsps=0, name="x"
        )
        with pytest.raises(FabricError):
            device.load(design.bitstream)

    def test_advance_without_design_anneals(self):
        device, routes = conditioned_device(burn_values=(1, 1), hours=50)
        device.wipe()
        before = device.route_delta_ps(routes[0])
        device.advance_hours(100.0, AMBIENT)
        after = device.route_delta_ps(routes[0])
        assert 0.0 <= after < before

    def test_negative_advance_rejected(self):
        device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=1)
        with pytest.raises(FabricError):
            device.advance_hours(-1.0, AMBIENT)

    def test_age_accumulates_only_while_powered(self):
        device, _ = conditioned_device(hours=10)
        powered_age = device.effective_age_hours
        device.wipe()
        device.advance_hours(10.0, AMBIENT)
        assert device.effective_age_hours == powered_age

    def test_sim_hours_always_advance(self):
        device, _ = conditioned_device(hours=10)
        device.wipe()
        device.advance_hours(5.0, AMBIENT)
        assert device.sim_hours == pytest.approx(15.0)


class TestBurnDirection:
    def test_burn_values_imprint_with_correct_signs(self):
        device, routes = conditioned_device(burn_values=(1, 0), hours=48)
        assert device.route_delta_ps(routes[0]) > 0.0
        assert device.route_delta_ps(routes[1]) < 0.0

    def test_longer_routes_imprint_more(self):
        device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, wear=NEW_PART, seed=9)
        routes = build_route_bank(device.grid, [1000.0, 10000.0])
        design = build_target_design(device.part, routes, [1, 1], heater_dsps=0)
        device.load(design.bitstream)
        device.advance_hours(48.0, AMBIENT)
        short, long_ = (device.route_delta_ps(r) for r in routes)
        assert long_ > 4.0 * short


class TestWear:
    def test_cloud_devices_have_residual_imprints(self):
        device = FpgaDevice(VIRTEX_ULTRASCALE_PLUS, wear=CLOUD_PART, seed=11)
        routes = build_route_bank(device.grid, [5000.0])
        delta = device.route_delta_ps(routes[0])
        # Residuals are nonzero but small relative to a fresh burn.
        assert delta != 0.0
        assert abs(delta) < 3.0

    def test_new_devices_are_clean(self):
        device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, wear=NEW_PART, seed=12)
        routes = build_route_bank(device.grid, [5000.0])
        assert device.route_delta_ps(routes[0]) == 0.0

    def test_device_ids_unique(self):
        a = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=1)
        b = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=1)
        assert a.device_id != b.device_id

    def test_info_reports_identity(self):
        device = FpgaDevice(VIRTEX_ULTRASCALE_PLUS, wear=CLOUD_PART, seed=13)
        info = device.info()
        assert info.part_name == "xcvu9p"
        assert info.effective_age_hours > 0.0


class TestAgingKernelEquivalence:
    """The array kernel must be bit-identical to the scalar reference
    (``tests.oracles.ScalarAgingDevice``) at the device level: same
    seed, same schedule, same delays."""

    @staticmethod
    def _run_history(device_cls, wear):
        device = device_cls(ZYNQ_ULTRASCALE_PLUS, wear=wear, seed=21)
        routes = build_route_bank(device.grid, [2000.0, 3000.0, 1500.0])
        design = build_target_design(
            device.part, routes, [1, 0, 1], heater_dsps=2
        )
        device.load(design.bitstream)
        device.advance_hours(24.0, AMBIENT)
        device.advance_hours(12.0, AMBIENT + 10.0)
        device.wipe()
        device.advance_hours(8.0, AMBIENT)
        second = build_target_design(
            device.part, routes, [0, 1, 0], heater_dsps=0, name="tenant-2"
        )
        device.load(second.bitstream)
        device.advance_hours(16.0, AMBIENT)
        return device, routes

    @pytest.mark.parametrize("wear", [NEW_PART, CLOUD_PART],
                             ids=["new", "cloud"])
    def test_kernels_bit_identical_across_tenant_history(self, wear):
        scalar_dev, scalar_routes = self._run_history(ScalarAgingDevice, wear)
        array_dev, array_routes = self._run_history(FpgaDevice, wear)
        for sr, ar in zip(scalar_routes, array_routes):
            assert array_dev.route_delta_ps(ar) == scalar_dev.route_delta_ps(sr)
            assert (array_dev.transition_delays(ar)
                    == scalar_dev.transition_delays(sr))

    @staticmethod
    def _run_reload_history(device_cls, wear):
        """Reloads of one bitstream, a load/wipe before any advance, a
        segment materialised while a cached design is loaded, then a
        second design over shared segments."""
        device = device_cls(ZYNQ_ULTRASCALE_PLUS, wear=wear, seed=33)
        routes = build_route_bank(
            device.grid, [2000.0, 3000.0, 1500.0, 2500.0, 1000.0]
        )
        first = build_target_design(
            device.part, routes[:3], [1, 0, 1], heater_dsps=2
        )
        second = build_target_design(
            device.part, routes[1:4], [0, 1, 1], heater_dsps=0,
            name="tenant-2",
        )
        device.load(second.bitstream)
        device.wipe()
        for hours in (6.0, 12.0, 3.0):
            device.load(first.bitstream)
            device.advance_hours(hours, AMBIENT)
            if hours == 12.0:
                # Materialise an undriven route mid-tenancy: the cached
                # grouping must pick it up as idle.
                device.route_delta_ps(routes[4])
                device.advance_hours(2.0, AMBIENT + 5.0)
            device.wipe()
            device.advance_hours(1.0, AMBIENT)
        device.load(second.bitstream)
        device.advance_hours(10.0, AMBIENT)
        device.wipe()
        device.load(first.bitstream)
        device.advance_hours(4.0, AMBIENT)
        return device, routes

    @pytest.mark.parametrize("wear", [NEW_PART, CLOUD_PART],
                             ids=["new", "cloud"])
    def test_kernels_bit_identical_across_reloads(self, wear, monkeypatch):
        scalar_updates = []
        for name in ("hold", "toggle", "idle"):
            original = getattr(SegmentBti, name)

            def counted(self, *args, _original=original, _name=name,
                        **kwargs):
                scalar_updates.append(_name)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(SegmentBti, name, counted)
        scalar_dev, scalar_routes = self._run_reload_history(
            ScalarAgingDevice, wear
        )
        array_dev, array_routes = self._run_reload_history(FpgaDevice, wear)
        for sr, ar in zip(scalar_routes, array_routes):
            assert array_dev.route_delta_ps(ar) == scalar_dev.route_delta_ps(sr)
            assert (array_dev.transition_delays(ar)
                    == scalar_dev.transition_delays(sr))
        # The cached groups update exactly the segments the walker does,
        # interval by interval.
        assert registry.counter("aging_segment_updates_total").value == (
            len(scalar_updates)
        )

    def test_reload_skips_the_segment_walk(self, monkeypatch):
        device, _ = conditioned_device()
        design = device.loaded_design
        device.wipe()
        device.advance_hours(1.0, AMBIENT)
        touched = []
        for name in ("_segment_indices", "segment_state"):
            original = getattr(device, name)

            def counted(segment_id, _original=original, _name=name):
                touched.append(_name)
                return _original(segment_id)

            monkeypatch.setattr(device, name, counted)
        device.load(design)
        device.advance_hours(2.0, AMBIENT)
        assert touched == []

    def test_design_cache_holds_only_live_designs(self):
        device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, wear=NEW_PART, seed=5)
        routes = build_route_bank(device.grid, [2000.0, 3000.0])
        kept = build_target_design(device.part, routes, [1, 1],
                                   heater_dsps=0, name="kept")
        device.load(kept.bitstream)
        device.advance_hours(1.0, AMBIENT)
        device.wipe()
        for i in range(20):
            design = build_target_design(device.part, routes, [i % 2, 0],
                                         heater_dsps=0, name=f"tenant-{i}")
            device.load(design.bitstream)
            device.advance_hours(1.0, AMBIENT)
            device.wipe()
            del design
        gc.collect()
        # The kept design and at most the last tenant (still referenced
        # by the grouping key) remain; the other 19 were evicted.
        assert kept.bitstream in device._designs
        assert len(device._designs) <= 2

    def test_kernel_resolved_at_construction(self):
        with reference_engines("aging"):
            device = build_fleet(ZYNQ_ULTRASCALE_PLUS, 1, seed=1)[0]
        # Leaving the context does not retroactively change the device.
        assert isinstance(device, ScalarAgingDevice)
        assert type(build_fleet(ZYNQ_ULTRASCALE_PLUS, 1, seed=1)[0]) is (
            FpgaDevice
        )

    def test_unknown_kernel_rejected(self):
        with pytest.raises(TypeError):
            FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=1, aging_kernel="turbo")
        # The reference walker has no shared store to join.
        with pytest.raises(FabricError):
            ScalarAgingDevice(ZYNQ_ULTRASCALE_PLUS, seed=1,
                              bti_store=SegmentBtiArray())

    def test_segment_views_are_stable(self):
        """segment_state returns the same cached view object for the
        same physical segment."""
        device, routes = conditioned_device()
        segment_id = next(iter(routes[0]))
        assert device.segment_state(segment_id) is device.segment_state(
            segment_id
        )

    def test_group_cache_invalidated_by_reload(self):
        """A second tenant's design must not reuse the first design's
        activity grouping."""
        device, routes = conditioned_device(burn_values=(1, 1), hours=24)
        first = device.route_delta_ps(routes[0])
        device.wipe()
        opposite = build_target_design(
            device.part, routes, [0, 0], heater_dsps=0, name="opposite"
        )
        device.load(opposite.bitstream)
        device.advance_hours(24.0, AMBIENT)
        # Holding the opposite value anneals the high pool and stresses
        # the low pool: the imprint must move downward.
        assert device.route_delta_ps(routes[0]) < first


class TestThermalCoupling:
    def test_junction_reflects_loaded_power(self):
        device, _ = conditioned_device()
        loaded = device.junction_k()
        device.wipe()
        assert device.junction_k() < loaded

    def test_delays_shift_with_temperature(self):
        device, routes = conditioned_device(hours=1)
        cool = device.transition_delays(routes[0]).rising_ps
        device.set_ambient(AMBIENT + 30.0)
        warm = device.transition_delays(routes[0]).rising_ps
        assert warm > cool

    def test_invalid_ambient_rejected(self):
        device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=1)
        with pytest.raises(FabricError):
            device.set_ambient(0.0)
