"""Performance benchmark: batched capture, array aging, parallel sweeps.

Eight phases, written to ``BENCH_perf.json`` at the repo root:

* **measurement microbench** -- full TDC measurements through the scalar
  reference kernel vs the vectorised batched kernel (the PR 2 tentpole
  targets >= 10x here);
* **bank microbench** -- one 64-route board's ``resolve_bank`` (the
  sparse per-word distance count) vs the dense every-tap resolve and
  Hamming pass it replaced, on identical pre-drawn inputs, with the
  resulting ``Measurement``s compared for equality;
* **aging microbench** -- whole-device ``advance_hours`` on a >= 4k
  materialised-segment device under the scalar per-object kernel vs the
  structure-of-arrays kernel (the PR 3 tentpole targets >= 10x here);
* **end-to-end exp1** -- ``exp1 --quick`` wall time under each capture
  kernel with recovery accuracy compared;
* **end-to-end exp2 (aging axis)** -- ``exp2 --quick`` wall time under
  each *aging* kernel with recovery accuracy compared;
* **end-to-end exp2/exp3 (all axes)** -- ``exp2 --quick`` and
  ``exp3 --quick`` with *every* knob scalar (capture, calibration scan,
  aging) vs every knob fast (the PR 7 tentpole targets >= 5x here);
* **calibration-axis equivalence** -- the lockstep calibration scan
  must reproduce the sequential scan's recovery accuracy *exactly*
  (that axis is bit-identical even with jitter, unlike the capture
  kernel's matrix-first jitter draws);
* **sweep sharding** -- ``experiment_sweep(jobs=N)`` vs sequential, each
  worker returning its seed's outcome through the pool's result
  channel, with the bit-identical-result invariant checked.  On single-CPU runners ``resolve_jobs`` clamps the request
  down to the sequential path; the bench then *skips* the speedup
  ratio (a 1-core self-comparison is noise, not a benchmark) and
  records why.

Every scalar side runs the reference engines of ``tests.oracles``
(called directly in the microbenches, patched in by
``reference_engines`` for whole experiments); ``src`` itself has only
the vectorised engines.

The hard gates (CI fails on them) are deliberately loose -- the
vectorised kernels must not be *slower* than their scalar references --
so noisy shared runners cannot flake the build; the headline ratios are
recorded for trend tracking rather than asserted.  The one tight gate
is accuracy equality along the bit-identical axes.
"""

from __future__ import annotations

import json
import os
import platform
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.designs import (
    build_measure_design,
    build_route_bank,
    build_target_design,
)
from repro.experiments import (
    Experiment1Config,
    Experiment2Config,
    Experiment3Config,
    run_experiment1,
    run_experiment2,
    run_experiment3,
)
from repro.fabric.device import FpgaDevice
from repro.fabric.drc import clear_drc_cache
from repro.fabric.geometry import Coordinate
from repro.fabric.parts import VIRTEX_ULTRASCALE_PLUS, ZYNQ_ULTRASCALE_PLUS
from repro.fabric.routing import SegmentId
from repro.fabric.segments import SegmentKind
from repro.montecarlo import experiment_sweep, resolve_jobs
from repro.sensor import find_theta_init
from repro.sensor.bank import resolve_bank
from repro.sensor.noise import CLOUD_NOISE, LAB_NOISE
from repro.sensor.tdc import TunableDualPolarityTdc
from repro.units import celsius_to_kelvin
from tests.oracles import (
    ScalarAgingDevice,
    measure_raw_scalar,
    reference_engines,
    resolve_bank_dense,
)

_TARGET = Path(__file__).resolve().parents[1] / "BENCH_perf.json"

#: Full measurements timed per kernel in the capture microbench.
_MICRO_REPS = 60

#: Whole-board resolves timed per implementation in the bank microbench.
_BANK_REPS = 20

#: Routes on the bank-microbench board (the paper's bank size).
_BANK_ROUTES = 64

#: Whole-device advances timed per kernel in the aging microbench.
_AGING_REPS = 20

#: Materialised segments on the aging-microbench device.
_AGING_SEGMENTS = 4096

_AMBIENT_K = celsius_to_kelvin(35.0)


def _time_measurements(measure_raw, tdc, theta, reps):
    for _ in range(5):  # warm caches, allocator, rng dispatch
        measure_raw(tdc, theta)
    start = perf_counter()
    for _ in range(reps):
        measure_raw(tdc, theta)
    return (perf_counter() - start) / reps


def _bank_inputs():
    """One calibrated 64-route board and one ``measure_bank``'s draws.

    Returns ``resolve_bank``'s arguments: the TDCs, their theta_init and
    the ``(routes, 2, traces, samples[, chain])`` times and uniforms.
    """
    device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=21)
    routes = build_route_bank(
        device.grid, [1000.0, 2000.0, 5000.0, 3000.0] * (_BANK_ROUTES // 4)
    )
    design = build_measure_design(device.part, routes)
    device.load(design.bitstream)
    session = design.attach(device, noise=CLOUD_NOISE, seed=1)
    session.calibrate()
    tdcs = [session._tdcs[name] for name in session.route_names]
    thetas = [session.theta_init[name] for name in session.route_names]
    draws = [tdc.measure_draws(theta) for tdc, theta in zip(tdcs, thetas)]
    times = np.stack([d[1] for d in draws])
    uniforms = np.stack([d[2] for d in draws])
    return tdcs, thetas, times, uniforms


def _time_resolves(resolve, inputs, reps):
    resolve(*inputs)  # warm caches and the allocator
    start = perf_counter()
    for _ in range(reps):
        result = resolve(*inputs)
    return (perf_counter() - start) / reps, result


def _build_aging_device(device_cls):
    """A loaded device with >= _AGING_SEGMENTS materialised segments.

    A hundred mixed-length routed nets give the advance realistic
    activity classes (static-1/static-0/toggling heater); the rest of
    the quota is materialised directly as idle SINGLE segments (routing
    banks top out far below 4k on this grid).
    """
    device = device_cls(VIRTEX_ULTRASCALE_PLUS, seed=33)
    lengths = [1000.0, 2000.0, 5000.0, 10000.0] * 25
    routes = build_route_bank(device.grid, lengths)
    design = build_target_design(
        device.part, routes, [i % 2 for i in range(len(routes))],
        heater_dsps=8,
    )
    device.load(design.bitstream)
    for x in range(device.grid.columns):
        for y in range(device.grid.rows):
            for track in range(4):
                if device.materialised_segments >= _AGING_SEGMENTS:
                    return device
                device.segment_state(
                    SegmentId(SegmentKind.SINGLE, Coordinate(x, y), track)
                )
    return device


def _time_advances(device, reps):
    device.advance_hours(1.0, _AMBIENT_K)  # warm group cache + factors
    start = perf_counter()
    for _ in range(reps):
        device.advance_hours(1.0, _AMBIENT_K)
    return (perf_counter() - start) / reps


def _time_exp1(scalar):
    config = Experiment1Config.quick()
    with reference_engines("capture") if scalar else nullcontext():
        best, accuracy = float("inf"), None
        for _ in range(2):
            start = perf_counter()
            result = run_experiment1(config)
            best = min(best, perf_counter() - start)
            accuracy = result.recovery_score.accuracy
    return best, accuracy


def _time_exp2(scalar):
    config = Experiment2Config.quick()
    with reference_engines("aging") if scalar else nullcontext():
        best, accuracy = float("inf"), None
        for _ in range(2):
            start = perf_counter()
            result = run_experiment2(config)
            best = min(best, perf_counter() - start)
            accuracy = result.recovery_score.accuracy
    return best, accuracy


def _time_quick_all_knobs(run, config_cls, scalar, reps=2):
    """Best-of-``reps`` wall time of one --quick experiment.

    ``scalar=True`` runs *every* reference engine -- capture words,
    calibration scan, aging and the eager provider -- the fully
    unbatched path the PR 7 tentpole is measured against.  The DRC cache is
    cleared before every rep so each rep pays its own full vetting
    cost (reports are keyed per compile, so reps never share entries;
    clearing just keeps the comparison cold-start honest).
    """
    with reference_engines() if scalar else nullcontext():
        best, accuracy = float("inf"), None
        for _ in range(reps):
            clear_drc_cache()
            config = config_cls.quick()
            start = perf_counter()
            result = run(config)
            best = min(best, perf_counter() - start)
            accuracy = result.recovery_score.accuracy
    return best, accuracy


def _calibration_axis_accuracy(run, config_cls):
    """Recovery accuracy under each calibration *scan*.

    Capture stays batched on both sides: the scan orchestration is the
    one axis pinned bit-identical even with jitter on (each route owns
    its own generator stream), so the two accuracies must be equal to
    the last bit.
    """
    accuracies = {}
    for scan in ("scalar", "batched"):
        clear_drc_cache()
        with (reference_engines("calibration") if scan == "scalar"
              else nullcontext()):
            accuracies[scan] = run(config_cls.quick()).recovery_score.accuracy
    return accuracies["scalar"], accuracies["batched"]


def test_bench_perf(emit):
    device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=21)
    route = build_route_bank(device.grid, [1000.0])[0]
    tdc = TunableDualPolarityTdc(device, route, noise=LAB_NOISE, seed=1)
    theta = find_theta_init(tdc)

    scalar_s = _time_measurements(measure_raw_scalar, tdc, theta, _MICRO_REPS)
    batched_s = _time_measurements(
        TunableDualPolarityTdc.measure_raw, tdc, theta, _MICRO_REPS
    )
    micro_speedup = scalar_s / batched_s
    words_per_measurement = 2 * 10 * 16  # both polarities
    emit(f"micro: scalar {scalar_s * 1e3:.2f} ms/measurement, "
         f"batched {batched_s * 1e3:.2f} ms/measurement "
         f"({micro_speedup:.1f}x, "
         f"{words_per_measurement / batched_s:,.0f} words/s)")

    bank_inputs = _bank_inputs()
    bank_dense_s, dense_measurements = _time_resolves(
        resolve_bank_dense, bank_inputs, _BANK_REPS
    )
    bank_sparse_s, sparse_measurements = _time_resolves(
        resolve_bank, bank_inputs, _BANK_REPS
    )
    bank_speedup = bank_dense_s / bank_sparse_s
    bank_words = bank_inputs[2].size  # one time per capture word
    emit(f"bank ({len(bank_inputs[0])} routes): "
         f"dense {bank_dense_s * 1e3:.2f} ms/resolve, "
         f"sparse {bank_sparse_s * 1e3:.2f} ms/resolve "
         f"({bank_speedup:.1f}x, {bank_words / bank_sparse_s:,.0f} words/s)")

    scalar_device = _build_aging_device(ScalarAgingDevice)
    array_device = _build_aging_device(FpgaDevice)
    aging_segments = array_device.materialised_segments
    assert scalar_device.materialised_segments == aging_segments
    aging_scalar_s = _time_advances(scalar_device, _AGING_REPS)
    aging_array_s = _time_advances(array_device, _AGING_REPS)
    aging_speedup = aging_scalar_s / aging_array_s
    emit(f"aging ({aging_segments} segments): "
         f"scalar {aging_scalar_s * 1e3:.2f} ms/advance, "
         f"array {aging_array_s * 1e3:.2f} ms/advance "
         f"({aging_speedup:.1f}x, "
         f"{aging_segments / aging_array_s:,.0f} segments/s)")

    e2e_scalar_s, scalar_accuracy = _time_exp1(scalar=True)
    e2e_batched_s, batched_accuracy = _time_exp1(scalar=False)
    e2e_speedup = e2e_scalar_s / e2e_batched_s
    emit(f"exp1 --quick: scalar {e2e_scalar_s:.2f} s, "
         f"batched {e2e_batched_s:.2f} s ({e2e_speedup:.1f}x), "
         f"accuracy {scalar_accuracy:.3f} -> {batched_accuracy:.3f}")

    exp2_scalar_s, exp2_scalar_accuracy = _time_exp2(scalar=True)
    exp2_array_s, exp2_array_accuracy = _time_exp2(scalar=False)
    exp2_speedup = exp2_scalar_s / exp2_array_s
    emit(f"exp2 --quick: scalar-aging {exp2_scalar_s:.2f} s, "
         f"array-aging {exp2_array_s:.2f} s ({exp2_speedup:.1f}x), "
         f"accuracy {exp2_scalar_accuracy:.3f} -> {exp2_array_accuracy:.3f}")

    exp2_all_scalar_s, exp2_all_scalar_acc = _time_quick_all_knobs(
        run_experiment2, Experiment2Config, scalar=True
    )
    exp2_all_fast_s, exp2_all_fast_acc = _time_quick_all_knobs(
        run_experiment2, Experiment2Config, scalar=False
    )
    exp2_e2e_speedup = exp2_all_scalar_s / exp2_all_fast_s
    emit(f"exp2 --quick (all knobs): scalar {exp2_all_scalar_s:.2f} s, "
         f"fast {exp2_all_fast_s:.2f} s ({exp2_e2e_speedup:.1f}x), "
         f"accuracy {exp2_all_scalar_acc:.3f} -> {exp2_all_fast_acc:.3f}")

    exp3_scalar_s, exp3_scalar_acc = _time_quick_all_knobs(
        run_experiment3, Experiment3Config, scalar=True
    )
    exp3_fast_s, exp3_fast_acc = _time_quick_all_knobs(
        run_experiment3, Experiment3Config, scalar=False
    )
    exp3_speedup = exp3_scalar_s / exp3_fast_s
    emit(f"exp3 --quick (all knobs): scalar {exp3_scalar_s:.2f} s, "
         f"fast {exp3_fast_s:.2f} s ({exp3_speedup:.1f}x), "
         f"accuracy {exp3_scalar_acc:.3f} -> {exp3_fast_acc:.3f}")

    exp2_seq_scan_acc, exp2_lockstep_acc = _calibration_axis_accuracy(
        run_experiment2, Experiment2Config
    )
    exp3_seq_scan_acc, exp3_lockstep_acc = _calibration_axis_accuracy(
        run_experiment3, Experiment3Config
    )
    emit(f"calibration axis: exp2 {exp2_seq_scan_acc:.3f} == "
         f"{exp2_lockstep_acc:.3f}, exp3 {exp3_seq_scan_acc:.3f} == "
         f"{exp3_lockstep_acc:.3f}")

    seeds = [1, 2, 3, 4]
    # Ask for at least two workers; on single-CPU runners resolve_jobs
    # clamps the request back to the sequential path (oversubscription
    # was measured at 0.89x), and the speedup ratio below is skipped
    # rather than recorded as a meaningless ~1x self-comparison.
    jobs_requested = max(2, min(4, os.cpu_count() or 1))
    jobs_effective = resolve_jobs(jobs_requested, len(seeds))
    start = perf_counter()
    sequential = experiment_sweep("exp1", seeds=seeds, jobs=1)
    sweep_sequential_s = perf_counter() - start
    start = perf_counter()
    sharded = experiment_sweep("exp1", seeds=seeds, jobs=jobs_requested)
    sweep_sharded_s = perf_counter() - start
    if jobs_effective >= 2:
        emit(f"sweep (4 seeds): jobs=1 {sweep_sequential_s:.2f} s, "
             f"jobs={jobs_requested} (effective {jobs_effective}) "
             f"{sweep_sharded_s:.2f} s "
             f"({sweep_sequential_s / sweep_sharded_s:.1f}x)")
    else:
        emit(f"sweep (4 seeds): jobs=1 {sweep_sequential_s:.2f} s; "
             f"jobs={jobs_requested} clamped to 1 on this "
             f"{os.cpu_count()}-cpu host -- speedup gate skipped")

    payload = {
        "suite": "perf",
        "python_version": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "microbench": {
            "scalar_seconds_per_measurement": round(scalar_s, 6),
            "batched_seconds_per_measurement": round(batched_s, 6),
            "speedup": round(micro_speedup, 2),
            "batched_words_per_second": round(
                words_per_measurement / batched_s
            ),
        },
        "bank_microbench": {
            "routes": len(bank_inputs[0]),
            "dense_seconds_per_resolve": round(bank_dense_s, 6),
            "sparse_seconds_per_resolve": round(bank_sparse_s, 6),
            "speedup": round(bank_speedup, 2),
            "sparse_words_per_second": round(bank_words / bank_sparse_s),
            "measurements_equal": sparse_measurements == dense_measurements,
        },
        "aging_microbench": {
            "segments": aging_segments,
            "scalar_seconds_per_advance": round(aging_scalar_s, 6),
            "array_seconds_per_advance": round(aging_array_s, 6),
            "speedup": round(aging_speedup, 2),
            "array_segments_per_second": round(
                aging_segments / aging_array_s
            ),
        },
        "exp1_quick": {
            "scalar_seconds": round(e2e_scalar_s, 3),
            "batched_seconds": round(e2e_batched_s, 3),
            "speedup": round(e2e_speedup, 2),
            "scalar_accuracy": scalar_accuracy,
            "batched_accuracy": batched_accuracy,
        },
        "exp2_quick": {
            "scalar_aging_seconds": round(exp2_scalar_s, 3),
            "array_aging_seconds": round(exp2_array_s, 3),
            "speedup": round(exp2_speedup, 2),
            "scalar_accuracy": exp2_scalar_accuracy,
            "array_accuracy": exp2_array_accuracy,
        },
        "exp2_quick_e2e": {
            "all_scalar_seconds": round(exp2_all_scalar_s, 3),
            "all_fast_seconds": round(exp2_all_fast_s, 3),
            "speedup": round(exp2_e2e_speedup, 2),
            "all_scalar_accuracy": exp2_all_scalar_acc,
            "all_fast_accuracy": exp2_all_fast_acc,
        },
        "exp3_quick": {
            "all_scalar_seconds": round(exp3_scalar_s, 3),
            "all_fast_seconds": round(exp3_fast_s, 3),
            "speedup": round(exp3_speedup, 2),
            "all_scalar_accuracy": exp3_scalar_acc,
            "all_fast_accuracy": exp3_fast_acc,
        },
        "calibration_axis": {
            "exp2_sequential_accuracy": exp2_seq_scan_acc,
            "exp2_lockstep_accuracy": exp2_lockstep_acc,
            "exp3_sequential_accuracy": exp3_seq_scan_acc,
            "exp3_lockstep_accuracy": exp3_lockstep_acc,
        },
        "sweep": {
            "seeds": len(seeds),
            "jobs_requested": jobs_requested,
            "jobs_effective": jobs_effective,
            "sequential_seconds": round(sweep_sequential_s, 3),
            "sharded_seconds": round(sweep_sharded_s, 3),
            "bit_identical": sharded == sequential,
        },
    }
    if jobs_effective >= 2:
        payload["sweep"]["speedup"] = round(
            sweep_sequential_s / sweep_sharded_s, 2
        )
        payload["sweep"]["speedup_gate"] = "enforced"
    else:
        # resolve_jobs clamped the request to the sequential path: the
        # two timings above ran the same code, so a ratio would be
        # measurement noise dressed up as a result.  Record the skip
        # instead of the number.
        payload["sweep"]["speedup_gate"] = "skipped_single_cpu"
    _TARGET.write_text(json.dumps(payload, indent=1))
    emit(f"wrote {_TARGET.name}")

    # Hard gates: the vectorised kernels must never lose to their
    # reference paths, sharding must not change the statistics, and the
    # kernels must agree on recovery for the fixed default seeds.
    assert micro_speedup >= 1.0
    assert sparse_measurements == dense_measurements
    assert bank_speedup >= 1.0
    assert aging_speedup > 1.0
    assert aging_segments >= 1000
    assert e2e_speedup >= 1.0
    assert exp2_e2e_speedup >= 1.0
    assert exp3_speedup >= 1.0
    assert sharded == sequential
    assert batched_accuracy == scalar_accuracy
    assert exp2_array_accuracy == exp2_scalar_accuracy
    # The calibration-scan axis is bit-identical by construction (each
    # route owns an independent generator stream), so exact equality
    # holds even though both experiments run with jitter on.  The
    # all-scalar vs all-fast accuracies may legitimately differ: the
    # scalar *capture* kernel interleaves its jitter draws, which is
    # distributional, not bit-identical, equivalence (PR 2).
    assert exp2_lockstep_acc == exp2_seq_scan_acc
    assert exp3_lockstep_acc == exp3_seq_scan_acc
    # Sharding must beat sequential where there is real parallelism to
    # win; on one core the clamp makes the comparison meaningless and
    # the gate is skipped (recorded in the payload above).
    if jobs_effective >= 2:
        assert sweep_sequential_s / sweep_sharded_s > 1.5
