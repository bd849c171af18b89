"""The benchmark under perfbench/ reaches into the package by name: its
tracer wraps module attributes at their import sites and its workloads call
private harness helpers.  These checks make a rename fail here rather than in
the benchmark."""

import importlib.util
import inspect
import sys
from pathlib import Path

from adagof import calibration, harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer = _load("tracing").Tracer()
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in tracer._patches]
    tracer.install()
    try:
        for owner, attr, replacement in tracer._patches:
            assert getattr(owner, attr) is replacement, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, (owner, attr)


def test_harness_names_the_workloads_read():
    _load("workloads")
    assert callable(harness._cached_calibrate.cache_clear)
    assert callable(harness._cached_baseline.cache_clear)
    assert harness._scaled_budgets(0.05) == (1000, 250, 1000)
    assert list(inspect.signature(harness._uniformity_columns).parameters) == [
        "n", "d_tr", "d_ct", "d_of_n", "alpha", "B", "seed", "workers",
    ]
    # the workloads count process pools by swapping these two names
    assert harness.ProcessPoolExecutor is calibration.ProcessPoolExecutor
