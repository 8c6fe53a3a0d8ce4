"""Paper-scale benchmark: exp1/exp2/exp3 at paper scale plus a fleet scan.

Usage (from the repository root)::

    python3 perfbench/run.py --workload exp2-tm1 --seed 2 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20 --trace 0

Every sample runs in a fresh, single-threaded interpreter
(``perfbench/worker.py``) with the run store off, so import and cold
caches count as a user pays for them.  ``--trace 0`` repeats untraced
samples for ``--seconds`` and reports the end-to-end metrics;
``--trace 1`` alternates an untraced and a traced sample and reports
the per-layer metrics.  Either way the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Outputs are checked: each sample's structural checks must pass and every
sample of one seed must produce the same result digest -- within this
run and across earlier runs of the same source tree (remembered under
``.perfbench/`` in the checkout).  A sample that raises or disagrees
counts all its operations as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGEST_STORE = ROOT / ".perfbench" / "digests.json"
CONFIG = json.loads((HERE / "seeds.json").read_text())

sys.path.insert(0, str(HERE))
from layers import MIN_COVERAGE, PATCHES  # noqa: E402

#: Kernel knobs that would silently swap in a reference implementation.
KERNEL_KNOBS = (
    "REPRO_CAPTURE_KERNEL",
    "REPRO_AGING_KERNEL",
    "REPRO_CALIBRATION_KERNEL",
)
#: Fresh-interpreter set-up probes per untraced run (besides the samples).
SETUP_PROBES = 6
#: Whole-run wall budget; the contract allows 180 s.
RUN_BUDGET_S = 170.0
WORKLOAD_NAMES = tuple(CONFIG["workloads"])
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("accuracy", "fraction"),
)


class HarnessError(Exception):
    """The benchmark cannot run here (missing program, stray knob)."""


def child_env() -> dict:
    """Environment of every sample: single-threaded, run store off.

    Every other ``REPRO_*`` switch (logging, tracing, progress, fault
    plans) is dropped so samples always run the plain production path.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(SRC),
        REPRO_RUNSTORE="off",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
    )
    return env


def preflight() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise HarnessError(
            f"no program to benchmark: {SRC / 'repro'} is missing "
            "(run from a full checkout)"
        )
    stray = [k for k in KERNEL_KNOBS if k in os.environ]
    if stray:
        raise HarnessError(
            f"refusing to benchmark with {', '.join(stray)} set: the "
            "benchmark measures the production kernels only"
        )


def source_hash() -> str:
    """Identity of the program under test (every file under src/)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def spawn(workload: str, seed: int, scale: str, mode: str,
          deadline: float) -> dict:
    """Run one sample in a fresh interpreter; returns its record."""
    timeout = max(deadline - time.monotonic(), 1.0)
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--scale", scale,
        "--mode", mode, "--spawned-at", repr(spawned_at),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": f"sample timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        record = {}
    if proc.returncode != 0 or not record:
        record.setdefault("error", proc.stderr.strip()[-2000:]
                          or f"worker exited with {proc.returncode}")
    record.setdefault("mode", mode)
    return record


def quartiles(values: list) -> tuple:
    """(q1, median, q3) by ``statistics.quantiles``; a single value repeats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_digests() -> dict:
    try:
        return json.loads(DIGEST_STORE.read_text())
    except (OSError, json.JSONDecodeError):
        return {}


def save_digests(store: dict) -> None:
    DIGEST_STORE.parent.mkdir(exist_ok=True)
    tmp = DIGEST_STORE.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    tmp.replace(DIGEST_STORE)


def check_samples(workload: str, seed: int, scale: str, records: list,
                  remember: bool) -> tuple:
    """Correctness over every sample of one run.

    Returns ``(problems, attempted, failed, digest)``.  The reference
    digest is the one an earlier run of this source tree recorded for
    the seed, else the most common digest of this run.
    """
    problems = []
    key = f"{workload}/{scale}/{seed}"
    tree = source_hash()
    store = load_digests()
    reference = store.get(tree, {}).get(key)
    digests = [r["digest"] for r in records if "digest" in r]
    if reference is None and digests:
        reference = max(set(digests), key=digests.count)
    attempted = failed = 0
    for r in records:
        ops = int(r.get("attempted") or CONFIG["workloads"][workload]["ops"])
        attempted += ops
        if "error" in r:
            problems.append(f"{r['mode']} sample raised: "
                            f"{r['error'].strip().splitlines()[-1]}")
            failed += ops
            continue
        if r["digest"] != reference:
            problems.append(f"{r['mode']} sample digest {r['digest']} != "
                            f"{reference}")
            failed += ops
            continue
        failed += int(r["failed"])
        problems.extend(f"{r['mode']} sample: {c}" for c in r["checks"])
        expected = len(PATCHES) if r["mode"] == "traced" else 0
        if r["wrappers_active"] != expected or r["leftover_wrappers"]:
            problems.append(
                f"{r['mode']} sample ran with {r['wrappers_active']} timing "
                f"wrappers (expected {expected}); left installed: "
                f"{r['leftover_wrappers']}"
            )
    if remember and reference is not None and not problems:
        store.setdefault(tree, {})[key] = reference
        save_digests(store)
    return problems, attempted, failed, reference


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: str) -> dict:
    """Run samples for ``seconds`` and summarise them."""
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    untraced, traced = [], []
    while True:
        untraced.append(spawn(workload, seed, scale, "run", deadline))
        if trace:
            traced.append(spawn(workload, seed, scale, "traced", deadline))
        elapsed = time.monotonic() - start
        per_round = elapsed / len(untraced)
        if elapsed + per_round > seconds or time.monotonic() > deadline:
            break
    probes = [] if trace else [
        spawn(workload, seed, scale, "setup", deadline)
        for _ in range(SETUP_PROBES)
    ]
    problems, attempted, failed, digest = check_samples(
        workload, seed, scale, untraced + traced, remember=scale == "paper"
    )
    problems += [f"setup probe raised: {p['error'].strip().splitlines()[-1]}"
                 for p in probes if "error" in p]
    good = [r for r in untraced if "wall_s" in r]
    summary = {
        "workload": workload,
        "seed": seed,
        "digest": digest,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "kernels": good[0]["kernels"] if good else {},
        "samples": {},
    }
    if good:
        summary["samples"] = {
            "wall_s": [r["wall_s"] for r in good],
            "setup_s": [r["setup_s"] for r in good + probes if "setup_s" in r],
            "peak_rss_mb": [r["peak_rss_mb"] for r in good],
            "accuracy": [r["accuracy"] for r in good],
        }
    if trace:
        layered = [r for r in traced if "layers" in r]
        if layered and good:
            layers = {
                name: (statistics.median(r["layers"][name][0] for r in layered),
                       unit)
                for name, (_, unit) in layered[0]["layers"].items()
            }
            traced_wall = statistics.median(r["wall_s"] for r in layered)
            untraced_wall = statistics.median(r["wall_s"] for r in good)
            layers["trace_overhead"] = (traced_wall / untraced_wall - 1.0,
                                        "ratio")
            summary["layers"] = layers
            summary["layer_samples"] = len(layered)
            summary["coverage_short"] = layers["coverage"][0] < MIN_COVERAGE
            if summary["coverage_short"]:
                problems.append(
                    f"layer coverage {layers['coverage'][0]:.3f} below "
                    f"{MIN_COVERAGE}: named layers miss "
                    f"{layers['other.self_s'][0]:.3f} s of traced wall"
                )
        else:
            problems.append("no traced sample completed")
    return summary


def print_summary(summary: dict, trace: bool) -> None:
    out = sys.stdout
    attempted = summary["attempted"]
    frac = summary["failed"] / attempted if attempted else 1.0
    out.write(f"\n== {summary['workload']}  seed {summary['seed']}  "
              f"digest {summary['digest']}  kernels {summary['kernels']}\n")
    out.write(f"{'metric':<36}{'unit':>9}{'median':>14}{'q1':>14}"
              f"{'q3':>14}{'n':>5}\n")
    for name, unit in END_TO_END:
        values = summary["samples"].get(name)
        if values:
            q1, med, q3 = quartiles(values)
            out.write(f"{name:<36}{unit:>9}{med:>14.6g}{q1:>14.6g}"
                      f"{q3:>14.6g}{len(values):>5}\n")
    out.write(f"{'failed_ops_frac':<36}{'fraction':>9}{frac:>14.6g}"
              f"{'':>14}{'':>14}{attempted:>5}\n")
    if trace and "layers" in summary:
        out.write(f"-- per-layer (median of {summary['layer_samples']} "
                  f"traced samples)\n")
        for name, (value, unit) in summary["layers"].items():
            out.write(f"{name:<36}{unit:>9}{value:>14.6g}\n")
    for problem in summary["problems"]:
        out.write(f"PROBLEM: {problem}\n")


def result_line(summaries: list, trace: bool, prefixed: bool) -> dict:
    metrics = {}
    for summary in summaries:
        prefix = f"{summary['workload']}." if prefixed else ""
        if trace:
            for name, (value, unit) in summary.get("layers", {}).items():
                metrics[prefix + name] = {"value": value, "unit": unit}
        else:
            for name, unit in END_TO_END:
                values = summary["samples"].get(name)
                if values:
                    metrics[prefix + name] = {
                        "value": statistics.median(values), "unit": unit,
                    }
    return {
        "correct": all(not s["problems"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's default)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("paper", "quick"), default="paper",
                        help="quick shrinks every workload (harness self-test)")
    args = parser.parse_args(argv)
    try:
        preflight()
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    summaries = []
    for name in names:
        seed = (args.seed if args.seed is not None
                else CONFIG["workloads"][name]["default_seed"])
        summary = measure(name, seed, args.seconds, bool(args.trace),
                          args.scale)
        print_summary(summary, bool(args.trace))
        summaries.append(summary)
    line = result_line(summaries, bool(args.trace),
                       prefixed=args.workload == "all")
    for summary in summaries:
        for problem in summary["problems"]:
            print(f"perfbench: {summary['workload']}: {problem}",
                  file=sys.stderr)
    print(json.dumps(line))
    return 3 if any(s.get("coverage_short") for s in summaries) else 0


if __name__ == "__main__":
    sys.exit(main())
