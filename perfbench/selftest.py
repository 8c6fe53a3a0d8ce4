"""Quick-scale self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload shrunk (``--scale quick``) and checks that

* timing wrappers are installed only in the traced run and restored
  afterwards (in process, and as reported by every worker sample);
* every metric named in ``BENCHMARK.json`` is emitted with its unit,
  untraced and traced, and nothing unnamed is;
* the result digest is stable: repeated samples of one seed agree, and
  the traced sample agrees with the untraced one;
* the harness refuses a stray kernel knob and a checkout without the
  program, exiting non-zero without printing a result.

Exits 0 when every check passes.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from layers import PATCHES, Tracer, _resolve_owner, installed_wrappers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
failures: list[str] = []


def check(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def current(patch):
    owner = _resolve_owner(patch.owner)
    return (owner.__dict__.get(patch.name) if isinstance(owner, type)
            else getattr(owner, patch.name))


def test_install_restore() -> None:
    originals = [current(p) for p in PATCHES]
    check(installed_wrappers() == [], "no wrappers before the traced run")
    tracer = Tracer()
    tracer.install()
    try:
        check(len(installed_wrappers()) == len(PATCHES),
              f"traced run wraps all {len(PATCHES)} entry points")
    finally:
        tracer.uninstall()
    check(installed_wrappers() == [], "no wrappers after the traced run")
    check(all(current(p) is o for p, o in zip(PATCHES, originals)),
          "every entry point restored to its original object")


def run_bench(*args: str, cwd: Path = ROOT, env=None):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, env=env, timeout=600,
    )


def test_harness(trace: int) -> None:
    proc = run_bench("--workload", "all", "--scale", "quick",
                     "--seconds", "0", "--trace", str(trace))
    check(proc.returncode == 0, f"trace {trace}: harness exits 0")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"trace {trace}: result line has exactly the contract keys")
    check(result["correct"] is True and result["failed"] == 0,
          f"trace {trace}: outputs correct, no failed operations "
          f"({proc.stderr.strip()[-300:]})")
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in named}
    for workload in WORKLOADS:
        emitted = {
            name[len(workload) + 1:]: value["unit"]
            for name, value in result["metrics"].items()
            if name.startswith(workload + ".")
        }
        check(emitted == expected,
              f"trace {trace}: {workload} emits every named metric with its "
              f"unit (missing {sorted(set(expected) - set(emitted))}, "
              f"unnamed {sorted(set(emitted) - set(expected))})")


def worker(workload: str, mode: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", "5", "--scale", "quick", "--mode", mode,
         "--spawned-at", "0"],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=600,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_digests_and_wrappers() -> None:
    for workload in WORKLOADS:
        first, second = worker(workload, "run"), worker(workload, "run")
        traced = worker(workload, "traced")
        check(first["digest"] == second["digest"] == traced["digest"],
              f"{workload}: digest stable across samples and under tracing")
        check(first["wrappers_active"] == 0 and traced["wrappers_active"]
              == len(PATCHES) and not traced["leftover_wrappers"],
              f"{workload}: wrappers only during the traced sample")


def test_refusals() -> None:
    env = {**os.environ, "REPRO_CAPTURE_KERNEL": "scalar"}
    proc = run_bench("--workload", "exp1-lab", "--scale", "quick",
                     "--seconds", "0", "--trace", "0", env=env)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "refuses to run with REPRO_CAPTURE_KERNEL set")
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("--workload", "exp1-lab", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "fails without printing a result where the program is missing")


def main() -> int:
    test_install_restore()
    test_digests_and_wrappers()
    test_harness(0)
    test_harness(1)
    test_refusals()
    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
