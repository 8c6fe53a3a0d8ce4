"""The reference-engine oracles stay test-only and leave no trace.

``tests.oracles.reference_engines`` patches reference implementations
into production classes and modules; these tests pin that it restores
every attribute it touched, whether the body returns or raises, and that
``src/repro`` never imports the test package.
"""

import ast
import inspect
import sys
from pathlib import Path

import pytest

import repro
from repro.designs.measure import MeasureSession
from repro.sensor.tdc import TunableDualPolarityTdc
from tests.oracles import (
    ENGINES,
    EagerCloudProvider,
    ScalarAgingDevice,
    calibrate_sequential,
    measure_raw_scalar,
    _repro_modules,
    reference_engines,
)

SRC = Path(repro.__file__).resolve().parent


def _namespace_snapshot() -> dict:
    """Every binding of every loaded ``repro`` module and of every class
    those modules define, keyed by (owner name, attribute)."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in vars(module).items():
            snapshot[(name, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for cls_attr, cls_value in vars(value).items():
                    snapshot[(f"{name}:{attr}", cls_attr)] = cls_value
    return snapshot


def _assert_same(before: dict, after: dict) -> None:
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    # Independent of ``before``: no oracle is left bound anywhere, even
    # one an earlier test leaked into the baseline.
    leaked = [key for key, value in after.items()
              if str(getattr(value, "__module__", "")).startswith("tests.")]
    assert leaked == []


class TestReferenceEngines:
    def setup_method(self):
        # Entering imports every repro module; import them up front (not
        # through reference_engines, which is under test) so each
        # snapshot below sees the full, unpatched namespace.
        _repro_modules()

    def test_patches_every_engine(self):
        import repro.cloud.fleet
        import repro.experiments.experiment1
        import repro.experiments.experiment2

        with reference_engines() as patched:
            assert TunableDualPolarityTdc.measure_raw is measure_raw_scalar
            assert MeasureSession.calibrate is calibrate_sequential
            assert repro.cloud.fleet.FpgaDevice is ScalarAgingDevice
            assert repro.experiments.experiment1.FpgaDevice is (
                ScalarAgingDevice
            )
            assert repro.experiments.experiment2.CloudProvider is (
                EagerCloudProvider
            )
        assert len(patched) == len(set(patched))
        _assert_same(_namespace_snapshot(), _namespace_snapshot())

    def test_restores_every_attribute_on_exit(self):
        before = _namespace_snapshot()
        with reference_engines(*ENGINES) as patched:
            assert patched
            during = _namespace_snapshot()
        _assert_same(before, _namespace_snapshot())
        assert any(during[key] is not before[key] for key in before)

    def test_restores_every_attribute_when_body_raises(self):
        before = _namespace_snapshot()
        with pytest.raises(RuntimeError, match="boom"):
            with reference_engines():
                raise RuntimeError("boom")
        _assert_same(before, _namespace_snapshot())

    @pytest.mark.parametrize("engine", ENGINES)
    def test_each_engine_restores_alone(self, engine):
        before = _namespace_snapshot()
        with reference_engines(engine) as patched:
            assert patched
        _assert_same(before, _namespace_snapshot())

    def test_unknown_engine_rejected(self):
        before = _namespace_snapshot()
        with pytest.raises(ValueError, match="simd"):
            with reference_engines("simd"):
                pass
        _assert_same(before, _namespace_snapshot())


def _imported_modules(tree: ast.AST) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and (
            node.level == 0
        ):
            names.append(node.module)
    return names


def test_src_never_imports_tests():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name in _imported_modules(tree):
            if name == "tests" or name.startswith("tests."):
                offenders.append(f"{path.relative_to(SRC.parent)}: {name}")
    assert offenders == []
