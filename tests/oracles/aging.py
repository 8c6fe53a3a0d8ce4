"""Reference aging: one ``SegmentBti`` object per segment.

:class:`~repro.fabric.device.FpgaDevice` keeps every segment in one
structure-of-arrays store and ages a whole interval in a handful of
masked updates.  :class:`ScalarAgingDevice` is the walker that replaced:
each materialised segment is a :class:`~repro.physics.bti.SegmentBti`,
and an interval visits every routed net and every idle segment in
Python.  It also materialises one segment at a time, drawing traits
and imprints with numpy's scalar samplers (:func:`sample_segment_scalar`,
:func:`sample_residual_imprints_scalar`) where the device draws a whole
batch at once.  Both consume each random stream in the same order and
call the same transcendentals, so the two are bit-identical from a
shared seed.

The walker has no shared store, so it can never join a fleet-wide bulk
catch-up: pair it with :class:`tests.oracles.provider.EagerCloudProvider`
(``reference_engines`` does), under which devices never have pending
intervals.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import FabricError
from repro.fabric.device import (
    _DELAY_TEMP_REF_K,
    DELAY_TEMP_COEFF_PER_K,
    FpgaDevice,
)
from repro.fabric.netlist import Net, NetActivity
from repro.fabric.parts import PartDescriptor
from repro.fabric.routing import Route, SegmentId
from repro.fabric.segments import spec_for
from repro.physics.aging import NEW_PART, WearProfile
from repro.physics.bti import SegmentBti, SegmentTraits
from repro.physics.delay import TransitionDelays
from repro.physics.pool_array import SegmentBtiArray
from repro.physics.variation import ProcessVariation
from repro.rng import SeedLike


def sample_segment_scalar(
    variation: ProcessVariation, nominal_delay_ps: float,
    nominal_amplitude_ps: float,
) -> tuple[float, float, float]:
    """One segment's (rising, falling, amplitude), one draw at a time.

    The sampler ``ProcessVariation.sample_segments`` batched: a
    lognormal delay multiplier, a normal asymmetry and a lognormal
    amplitude multiplier, each from numpy's scalar samplers.
    """
    rng, params = variation._rng, variation.params
    delay = nominal_delay_ps * float(rng.lognormal(0.0, params.delay_sigma))
    asymmetry = float(rng.normal(0.0, params.asymmetry_sigma_ps))
    rising = max(delay - asymmetry / 2.0, 1.0)
    falling = max(delay + asymmetry / 2.0, 1.0)
    amplitude = nominal_amplitude_ps * float(
        rng.lognormal(0.0, params.amplitude_sigma)
    )
    return rising, falling, amplitude


def sample_residual_imprints_scalar(
    wear: WearProfile, burn_amplitude_ps: float, rng: np.random.Generator
) -> tuple[float, float]:
    """One segment's residual (high, low) charges, one draw at a time;
    a zero imprint scale draws nothing."""
    scale = wear.residual_imprint_fraction * burn_amplitude_ps
    if scale == 0.0:
        return 0.0, 0.0
    return abs(float(rng.normal(0.0, scale))), abs(float(rng.normal(0.0, scale)))


class ScalarAgingDevice(FpgaDevice):
    """An :class:`FpgaDevice` aged by the per-object reference walker."""

    def __init__(
        self,
        part: PartDescriptor,
        wear: WearProfile = NEW_PART,
        seed: SeedLike = None,
        bti_store: Optional[SegmentBtiArray] = None,
    ) -> None:
        if bti_store is not None:
            raise FabricError(
                "a shared bti_store requires the array aging engine"
            )
        super().__init__(part, wear=wear, seed=seed)
        self._segments: dict[SegmentId, SegmentBti] = {}
        self._ordinals: dict[SegmentId, int] = {}

    def segment_state(self, segment_id: SegmentId) -> SegmentBti:
        self.sync()
        state = self._segments.get(segment_id)
        if state is None:
            # One variation sample, then one imprint sample, segment by
            # segment: the order the batched materialisation must keep.
            spec = spec_for(segment_id.kind)
            rising, falling, amplitude = sample_segment_scalar(
                self._variation, spec.delay_ps, spec.burn_amplitude_ps
            )
            high, low = sample_residual_imprints_scalar(
                self.wear, amplitude, self._imprint_rng
            )
            state = SegmentBti(SegmentTraits(
                rising_delay_ps=rising,
                falling_delay_ps=falling,
                burn_amplitude_ps=amplitude,
            ))
            if high or low:
                state.preload_imprint(high_charge_ps=high, low_charge_ps=low)
            self._ordinals[segment_id] = len(self._segments)
            self._segments[segment_id] = state
        return state

    def _segment_indices(self, segment_ids: Sequence[SegmentId]) -> np.ndarray:
        """Materialise through :meth:`segment_state`, one by one.

        The walker has no array slots; a segment's "slot" is its
        position in materialisation order.
        """
        for segment_id in segment_ids:
            self.segment_state(segment_id)
        return np.array(
            [self._ordinals[s] for s in segment_ids], dtype=np.intp
        )

    @property
    def materialised_segments(self) -> int:
        return len(self._segments)

    def _age_segments(self, duration_hours: float, junction_k: float) -> None:
        driven: set[SegmentId] = set()
        if self._loaded is not None:
            for net in self._loaded.netlist.routed_nets():
                for segment_id in net.route:
                    self._apply_activity(
                        self.segment_state(segment_id), net,
                        duration_hours, junction_k,
                    )
                driven.update(net.route)
        for segment_id, state in self._segments.items():
            if segment_id not in driven:
                state.idle(duration_hours, junction_k)

    def _apply_activity(
        self, state: SegmentBti, net: Net, duration_hours: float,
        junction_k: float,
    ) -> None:
        if net.activity is NetActivity.STATIC:
            state.hold(
                int(net.static_value),
                duration_hours,
                junction_k,
                device_age_hours=self.effective_age_hours,
                voltage_v=self.core_voltage_v,
            )
        elif net.activity is NetActivity.TOGGLING:
            state.toggle(
                duration_hours,
                junction_k,
                device_age_hours=self.effective_age_hours,
                duty_high=net.duty_high,
                voltage_v=self.core_voltage_v,
            )
        else:
            state.idle(duration_hours, junction_k)

    def transition_delays(self, route: Route) -> TransitionDelays:
        self.sync()
        total = TransitionDelays.zero()
        for segment_id in route:
            total = total + self.segment_state(segment_id).transition_delays()
        scale = 1.0 + DELAY_TEMP_COEFF_PER_K * (
            self.junction_k() - _DELAY_TEMP_REF_K
        )
        return TransitionDelays(
            rising_ps=total.rising_ps * scale,
            falling_ps=total.falling_ps * scale,
        )

    def route_delta_ps(self, route: Route) -> float:
        self.sync()
        return float(sum(self.segment_state(seg).delta_ps for seg in route))
