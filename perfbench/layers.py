"""Layer tracer for the traced benchmark run.

The traced run wraps the *public* entry points of each layer from this
file, leaving ``src/`` untouched.  Every name is patched where callers
look it up: a method on its class, or the module-level binding in the
calling module (``repro.sensor.bank.resolve_words`` is patched in
``repro.sensor.bank`` because that is where ``resolve_bank`` finds it).

A wrapped call pushes a frame on one stack; on return its duration is
charged to its layer and subtracted from the enclosing frame, so a
layer's *self* time excludes its wrapped children.  The workload call
itself is the root frame: its self time is ``other.self_s``, the wall
time no wrapper covers, and ``coverage`` is the attributed share of the
traced wall.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

#: Minimum share of traced wall the named layers must attribute.
MIN_COVERAGE = 0.95


@dataclass(frozen=True)
class Patch:
    """One wrapped entry point.

    ``owner`` is ``"pkg.module:Class"`` for a method or ``"pkg.module"``
    for a module-level binding.  ``hook`` names extra bookkeeping the
    wrapper does around the call (see :class:`Tracer`).
    """

    layer: str
    owner: str
    name: str
    hook: str = ""


PATCHES = (
    # --- sensor: capture-side randomness, route delays, bank kernels ----
    Patch("sensor.measure_draws", "repro.sensor.tdc:TunableDualPolarityTdc",
          "measure_draws"),
    Patch("sensor.capture_draws", "repro.sensor.tdc:TunableDualPolarityTdc",
          "capture_draws"),
    Patch("sensor.jitter_draws", "repro.sensor.noise:NoiseState",
          "sample_jitter_matrix_ps"),
    Patch("sensor.uniform_draws", "repro.sensor.capture:CaptureBank",
          "draw_uniforms"),
    Patch("sensor.route_delay", "repro.sensor.transition:TransitionGenerator",
          "arrival_at_chain_ps"),
    Patch("sensor.resolve_bank", "repro.designs.measure", "resolve_bank"),
    Patch("sensor.probe_bank", "repro.sensor.bank", "probe_bank"),
    Patch("sensor.wavefront", "repro.sensor.bank", "bank_wavefront_positions"),
    Patch("sensor.compare", "repro.sensor.bank", "resolve_words"),
    Patch("sensor.hamming", "repro.sensor.bank", "bank_trace_mean_distances"),
    Patch("sensor.calibrate", "repro.designs.measure",
          "find_theta_init_bank"),
    Patch("sensor.attach", "repro.designs.measure:MeasureDesign", "attach"),
    # --- designs: bank measurement and design compilation ---------------
    Patch("designs.measure_bank", "repro.designs.measure:MeasureSession",
          "measure_bank"),
    Patch("designs.calibrate", "repro.designs.measure:MeasureSession",
          "calibrate"),
    Patch("designs.build", "repro.experiments.experiment1",
          "build_route_bank"),
    Patch("designs.build", "repro.experiments.experiment1",
          "build_target_design"),
    Patch("designs.build", "repro.experiments.experiment1",
          "build_measure_design"),
    Patch("designs.build", "repro.experiments.experiment2",
          "build_route_bank"),
    Patch("designs.build", "repro.experiments.experiment2",
          "build_target_design"),
    Patch("designs.build", "repro.experiments.experiment3",
          "build_route_bank"),
    Patch("designs.build", "repro.experiments.experiment3",
          "build_target_design"),
    Patch("designs.build", "repro.experiments.experiment3",
          "build_measure_design"),
    Patch("designs.build", "repro.core.threat_model1",
          "build_measure_design"),
    Patch("designs.build", "repro.core.threat_model2",
          "build_measure_design"),
    Patch("designs.build", "repro.core.threat_model2",
          "build_target_design"),
    Patch("designs.build", "repro.cloud.campaigns", "build_route_bank"),
    Patch("designs.build", "repro.cloud.campaigns", "build_target_design"),
    # --- fabric: the device model -----------------------------------------
    Patch("fabric.device_init", "repro.fabric.device:FpgaDevice", "__init__"),
    Patch("fabric.load", "repro.fabric.device:FpgaDevice", "load",
          hook="materialise"),
    Patch("fabric.wipe", "repro.fabric.device:FpgaDevice", "wipe"),
    Patch("fabric.advance_hours", "repro.fabric.device:FpgaDevice",
          "advance_hours"),
    Patch("fabric.sync", "repro.fabric.device:FpgaDevice", "sync"),
    Patch("fabric.transition_delays", "repro.fabric.device:FpgaDevice",
          "transition_delays", hook="materialise"),
    Patch("fabric.route_delta", "repro.fabric.device:FpgaDevice",
          "route_delta_ps", hook="materialise"),
    # --- physics: the BTI kernels -----------------------------------------
    Patch("physics.aging_kernel", "repro.physics.pool_array:SegmentBtiArray",
          "hold"),
    Patch("physics.aging_kernel", "repro.physics.pool_array:SegmentBtiArray",
          "toggle"),
    Patch("physics.aging_kernel", "repro.physics.pool_array:SegmentBtiArray",
          "idle"),
    Patch("physics.preload_imprint",
          "repro.physics.pool_array:SegmentBtiArray", "preload_imprint"),
    Patch("physics.catch_up", "repro.physics.pool_array:FleetAgingArray",
          "catch_up_idle"),
    # --- core: protocol, phases, threat models, classification ------------
    Patch("core.protocol", "repro.core.protocol:ConditionMeasureProtocol",
          "run_cycles", hook="cycle_group"),
    Patch("core.protocol", "repro.core.protocol:ConditionMeasureProtocol",
          "calibrate"),
    Patch("core.calibration_phase", "repro.core.phases:CalibrationPhase",
          "run"),
    Patch("core.condition_phase", "repro.core.phases:ConditionPhase", "run"),
    Patch("core.measurement_phase", "repro.core.phases:MeasurementPhase",
          "run", hook="cycle"),
    Patch("core.measure_with_recovery", "repro.core.threat_model2",
          "measure_with_recovery"),
    Patch("core.tm1", "repro.core.threat_model1:ThreatModel1Attack", "run",
          hook="cycle_group"),
    Patch("core.tm2", "repro.core.threat_model2:ThreatModel2Attack", "run"),
    Patch("core.classify", "repro.core.classify:BurnTrendClassifier",
          "classify"),
    Patch("core.classify", "repro.core.classify:BurnTrendClassifier",
          "classify_many"),
    Patch("core.classify", "repro.core.classify:RecoverySlopeClassifier",
          "classify_many"),
    Patch("core.classify", "repro.core.classify:NullReferencedSlopeClassifier",
          "classify_many"),
    Patch("core.bench", "repro.core.bench:LabBench", "load_image"),
    Patch("core.bench", "repro.core.bench:LabBench", "run_hours"),
    # --- analysis ---------------------------------------------------------
    Patch("analysis.smooth", "repro.core.classify", "local_linear_smooth"),
    # --- cloud: provider, instances, fleet campaign -----------------------
    Patch("cloud.build_fleet", "repro.experiments.experiment2", "build_fleet"),
    Patch("cloud.build_fleet", "repro.experiments.experiment3", "build_fleet"),
    Patch("cloud.provider_advance", "repro.cloud.provider:CloudProvider",
          "advance"),
    Patch("cloud.rent_release", "repro.cloud.provider:CloudProvider", "rent"),
    Patch("cloud.rent_release", "repro.cloud.provider:CloudProvider",
          "release"),
    Patch("cloud.sync_devices", "repro.cloud.provider:Region",
          "sync_devices"),
    Patch("cloud.load_image", "repro.cloud.instance:F1Instance",
          "load_image"),
    Patch("cloud.drc", "repro.cloud.instance", "check_design"),
    Patch("cloud.run_hours", "repro.cloud.instance:F1Instance", "run_hours"),
    Patch("cloud.flash_acquire", "repro.cloud.colocation:FlashAttack",
          "acquire_all"),
    Patch("cloud.flash_release", "repro.cloud.colocation:FlashAttack",
          "release_except"),
    Patch("cloud.fleet_setup", "repro.cloud.campaigns:FleetSimulator",
          "__init__"),
    Patch("cloud.churn_draw", "repro.cloud.campaigns:ChurnModel", "draw"),
    Patch("cloud.churn", "repro.cloud.campaigns:VirtualRegion", "advance_to"),
    Patch("cloud.sync_board", "repro.cloud.campaigns:FleetSimulator",
          "sync_board"),
    Patch("cloud.probe", "repro.cloud.campaigns:FleetSimulator", "probe",
          hook="probe"),
    Patch("cloud.lazy_fleet_device", "repro.cloud.campaigns:LazyFleet",
          "device"),
    Patch("cloud.event_loop", "repro.cloud.events:EventLoop", "run"),
)


def _resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def installed_wrappers() -> list[str]:
    """Entry points currently replaced by a tracer wrapper.

    Looks only at modules already imported, so checking an untraced
    sample loads nothing the workload itself did not.
    """
    found = []
    for patch in PATCHES:
        if patch.owner.partition(":")[0] not in sys.modules:
            continue
        owner = _resolve_owner(patch.owner)
        target = (owner.__dict__.get(patch.name) if isinstance(owner, type)
                  else getattr(owner, patch.name))
        if getattr(target, "__perfbench_wrapped__", False):
            found.append(f"{patch.owner}.{patch.name}")
    return found


class _LayerStat:
    __slots__ = ("calls", "self_s", "total_s", "active")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0  # outermost calls only, so recursion counts once
        self.active = 0


class Tracer:
    """Self-time accounting over the patched entry points.

    Hooks:

    * ``materialise`` -- the call's time and the growth of the device's
      ``materialised_segments`` (outermost materialising frame only);
    * ``cycle_group`` / ``cycle`` -- a cycle is the interval between two
      consecutive measurement-pass starts inside one protocol or TM1 run;
    * ``probe`` -- readable and total routes of each fleet probe.
    """

    def __init__(self) -> None:
        self.stats: dict[str, _LayerStat] = {
            p.layer: _LayerStat() for p in PATCHES
        }
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []
        self.materialise_s = 0.0
        self.materialised = 0
        self._materialising = 0
        self.cycle_s: list[float] = []
        self._cycle_start: Optional[float] = None
        self.routes_probed = 0
        self.routes_readable = 0
        self.root_s = 0.0
        self.root_self_s = 0.0

    # -- installation --------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for patch in PATCHES:
            owner = _resolve_owner(patch.owner)
            if isinstance(owner, type):
                original = owner.__dict__.get(patch.name)
                if not callable(original):
                    raise RuntimeError(
                        f"{patch.owner}.{patch.name} is not a plain method"
                    )
            else:
                original = getattr(owner, patch.name)
            self._saved.append((owner, patch.name, original))
            setattr(owner, patch.name, self._wrap(patch, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- the wrapper ---------------------------------------------------

    def _wrap(self, patch: Patch, fn: Callable) -> Callable:
        stack = self._stack
        stat = self.stats[patch.layer]
        hook = patch.hook
        clock = perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook:
                token = self._before(hook, args)
            frame = [0.0]
            stack.append(frame)
            stat.active += 1
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.active -= 1
                stat.calls += 1
                stat.self_s += elapsed - frame[0]
                if not stat.active:
                    stat.total_s += elapsed
                if stack:
                    stack[-1][0] += elapsed
                if hook:
                    self._after(hook, token, args, result, elapsed)

        wrapper.__perfbench_wrapped__ = True
        return wrapper

    def _before(self, hook: str, args: tuple):
        if hook == "materialise":
            self._materialising += 1
            return args[0].materialised_segments
        if hook == "cycle_group":
            self._cycle_start = None
        elif hook == "cycle":
            now = perf_counter()
            if self._cycle_start is not None:
                self.cycle_s.append(now - self._cycle_start)
            self._cycle_start = now
        return None

    def _after(self, hook, token, args, result, elapsed: float) -> None:
        if hook == "materialise":
            self._materialising -= 1
            grown = args[0].materialised_segments - token
            if grown > 0 and self._materialising == 0:
                self.materialise_s += elapsed
                self.materialised += grown
        elif hook == "cycle_group":
            self._cycle_start = None
        elif hook == "probe" and result is not None:
            readable = result["readable"]
            self.routes_probed += len(readable)
            self.routes_readable += sum(1 for r in readable if r)

    # -- the root frame ------------------------------------------------

    def run_root(self, fn: Callable, *args, **kwargs):
        """Call the workload as the root frame; its self time is 'other'."""
        frame = [0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.root_s = perf_counter() - start
            self._stack.pop()
            self.root_self_s = self.root_s - frame[0]


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer,
    counters: dict[str, float],
    facts: dict[str, float],
) -> dict[str, tuple[float, str]]:
    """Derive the named per-layer metrics of one traced run.

    ``counters`` holds the run's deltas of the program's own registry
    counters; ``facts`` the workload's own counts (``tm2_boards_probed``,
    ``churn_events``, ``segments_materialised``).  Returns
    ``name -> (value, unit)``.
    """
    st = tracer.stats

    def self_s(layer: str) -> float:
        return st[layer].self_s

    def total_s(layer: str) -> float:
        return st[layer].total_s

    def calls(layer: str) -> float:
        return float(st[layer].calls)

    sensor_busy = sum(s.self_s for n, s in st.items() if n.startswith("sensor."))
    words = counters.get("capture_words_total", 0.0)
    updates = counters.get("aging_segment_updates_total", 0.0)
    churn_events = facts["churn_events"]
    drops = counters.get("fleet_events_dropped_total", 0.0)
    rents = counters.get("fleet_events_rent_total", 0.0)
    attributed = tracer.root_s - tracer.root_self_s
    cycles_ms = [c * 1000.0 for c in tracer.cycle_s]
    metrics = {
        "sensor.measure_draws.self_s": (self_s("sensor.measure_draws"), "s"),
        "sensor.measure_draws.calls": (calls("sensor.measure_draws"), "count"),
        "sensor.capture_draws.self_s": (self_s("sensor.capture_draws"), "s"),
        "sensor.jitter_draws.s": (total_s("sensor.jitter_draws"), "s"),
        "sensor.uniform_draws.s": (total_s("sensor.uniform_draws"), "s"),
        "sensor.route_delay.s": (total_s("sensor.route_delay"), "s"),
        "sensor.route_delay.cache_hit_ratio": (
            1.0 - _ratio(calls("fabric.transition_delays"),
                         calls("sensor.route_delay"))
            if calls("sensor.route_delay") else 0.0,
            "ratio",
        ),
        "sensor.resolve_bank.self_s": (self_s("sensor.resolve_bank"), "s"),
        "sensor.probe_bank.self_s": (self_s("sensor.probe_bank"), "s"),
        "sensor.wavefront.s": (total_s("sensor.wavefront"), "s"),
        "sensor.compare.s": (total_s("sensor.compare"), "s"),
        "sensor.hamming.s": (total_s("sensor.hamming"), "s"),
        "sensor.calibrate.s": (total_s("sensor.calibrate"), "s"),
        "sensor.calibrate.probe_rounds": (calls("sensor.probe_bank"), "count"),
        "sensor.attach.s": (total_s("sensor.attach"), "s"),
        "sensor.capture_words": (words, "count"),
        "sensor.words_per_s": (_ratio(words, sensor_busy), "1/s"),
        "designs.measure_bank.s": (total_s("designs.measure_bank"), "s"),
        "designs.measure_bank.self_s": (self_s("designs.measure_bank"), "s"),
        "designs.measure_bank.calls": (calls("designs.measure_bank"), "count"),
        "designs.build.s": (total_s("designs.build"), "s"),
        "fabric.device_init.s": (total_s("fabric.device_init"), "s"),
        "fabric.load.s": (total_s("fabric.load"), "s"),
        "fabric.load.calls": (calls("fabric.load"), "count"),
        "fabric.advance_hours.self_s": (self_s("fabric.advance_hours"), "s"),
        "fabric.advance_hours.calls": (calls("fabric.advance_hours"), "count"),
        "fabric.sync.self_s": (self_s("fabric.sync"), "s"),
        "fabric.route_delta.s": (total_s("fabric.route_delta"), "s"),
        "fabric.route_delta.calls": (calls("fabric.route_delta"), "count"),
        "fabric.segments_materialised": (facts["segments_materialised"], "count"),
        "fabric.materialise_us_per_segment": (
            1e6 * _ratio(tracer.materialise_s, tracer.materialised), "us",
        ),
        "physics.aging_kernel.s": (total_s("physics.aging_kernel"), "s"),
        "physics.segment_updates": (updates, "count"),
        "physics.segment_updates_per_s": (
            _ratio(updates, total_s("physics.aging_kernel")), "1/s",
        ),
        "physics.preload_imprint.s": (total_s("physics.preload_imprint"), "s"),
        "physics.preload_imprint.calls": (
            calls("physics.preload_imprint"), "count",
        ),
        "physics.catch_up.s": (total_s("physics.catch_up"), "s"),
        "core.protocol.self_s": (self_s("core.protocol"), "s"),
        "core.measurement_phase.self_s": (
            self_s("core.measurement_phase"), "s",
        ),
        "core.condition_phase.self_s": (self_s("core.condition_phase"), "s"),
        "core.cycle_ms.p50": (_quantile(cycles_ms, 0.5), "ms"),
        "core.cycle_ms.p97_5": (_quantile(cycles_ms, 0.975), "ms"),
        "core.cycle_ms.n": (float(len(cycles_ms)), "count"),
        "core.classify.s": (total_s("core.classify"), "s"),
        "core.tm1.self_s": (self_s("core.tm1"), "s"),
        "core.tm2.self_s": (self_s("core.tm2"), "s"),
        "core.tm2.boards_probed": (facts["tm2_boards_probed"], "count"),
        "analysis.smooth.s": (total_s("analysis.smooth"), "s"),
        "cloud.provider_advance.s": (total_s("cloud.provider_advance"), "s"),
        "cloud.provider_advance.calls": (
            calls("cloud.provider_advance"), "count",
        ),
        "cloud.rent_release.s": (total_s("cloud.rent_release"), "s"),
        "cloud.sync_devices.s": (total_s("cloud.sync_devices"), "s"),
        "cloud.load_image.self_s": (self_s("cloud.load_image"), "s"),
        "cloud.drc.s": (total_s("cloud.drc"), "s"),
        "cloud.churn.s": (total_s("cloud.churn"), "s"),
        "cloud.churn.events": (churn_events, "count"),
        "cloud.churn.events_per_s": (
            _ratio(churn_events, total_s("cloud.churn")), "1/s",
        ),
        "cloud.churn.drop_ratio": (_ratio(drops, rents + drops), "ratio"),
        "cloud.sync_board.s": (total_s("cloud.sync_board"), "s"),
        "cloud.probe.self_s": (self_s("cloud.probe"), "s"),
        "cloud.probe.calls": (calls("cloud.probe"), "count"),
        "cloud.probe.readable_ratio": (
            _ratio(tracer.routes_readable, tracer.routes_probed), "ratio",
        ),
        "cloud.lazy_fleet_device.s": (total_s("cloud.lazy_fleet_device"), "s"),
        "cloud.event_loop.self_s": (self_s("cloud.event_loop"), "s"),
    }
    # Self time of every layer not named above, so no attributed time
    # is invisible in the table.
    for layer, stat in st.items():
        if f"{layer}.s" not in metrics:
            metrics.setdefault(f"{layer}.self_s", (stat.self_s, "s"))
    metrics["other.self_s"] = (tracer.root_self_s, "s")
    metrics["coverage"] = (_ratio(attributed, tracer.root_s), "ratio")
    return metrics

