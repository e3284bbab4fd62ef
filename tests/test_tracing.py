"""The names the benchmark's per-layer tracing wraps must exist in the package.

``benchmarks/tracing.py`` installs its wrappers through
``owner.__dict__[attr]``, so a refactor that renames or moves one of those
names breaks ``bench.py --trace 1`` without failing any other test.  The
module is loaded from its path without writing bytecode next to it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from tenclass import Tensor, classifiers, verify

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)
        sys.dont_write_bytecode = saved


def test_every_target_resolves(tracing):
    targets = tracing.Recorder().targets()
    for owner, attr, span, _hook in targets:
        assert callable(owner.__dict__.get(attr)), f"{owner.__name__}.{attr} ({span})"
    bound = {(owner, attr) for owner, attr, _span, _hook in targets}
    for name in ("decide_all_components_negative", "decide_form_nonneg",
                 "search_nonneg_solution", "classify", "is_semi_positive", "is_copositive",
                 "tensor_digest"):
        assert (classifiers, name) in bound
    for name in ("component_decision", "form_decision", "feasibility_decision", "subtensor"):
        assert (classifiers.TensorClassifier, name) in bound


def test_every_suite_is_a_triple():
    assert verify.SUITES
    for name, entry in verify.SUITES.items():
        fn, count, description = entry
        assert callable(fn) and type(count) is int and count >= 1, name
        assert isinstance(description, str) and description, name


def test_installed_wrappers_record_and_come_off(tracing):
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _span, _hook in tracing.Recorder().targets()]
    suites = dict(verify.SUITES)
    recorder = tracing.Recorder()
    with recorder.installed():
        assert classifiers.is_semi_positive(Tensor.identity(3, 2)).holds
    spans = recorder.snapshot()
    assert {"classifiers.predicate", "classifiers.decision",
            "subdivision.component"} <= set(spans.names)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
    assert verify.SUITES == suites
