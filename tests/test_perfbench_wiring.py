"""The benchmark under perfbench/ reaches into the package by name: its
tracer wraps module attributes at their import sites and its workloads call
private harness helpers.  These checks make a rename fail here rather than in
the benchmark."""

import ast
import importlib
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


def test_every_package_attribute_the_workloads_reach_exists():
    # an attribute missing at run time would fail only inside the benchmark
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name: importlib.import_module(f"adagof.{alias.name}")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "adagof"
        for alias in node.names
    }
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    assert set(modules) == {"adaptive_test", "baselines", "calibration", "estimators", "harness"}
    assert {("harness", "scale_models"), ("calibration", "calibrate")} <= used
    missing = [f"{module}.{name}" for module, name in sorted(used) if not hasattr(modules[module], name)]
    assert missing == []


def test_harness_caches_are_the_two_the_workloads_clear():
    cached = {name for name, obj in vars(harness).items() if callable(getattr(obj, "cache_clear", None))}
    assert cached == {"_cached_calibrate", "_cached_baseline"}


def test_uniformity_columns_read_back_the_tables_a_preset_used(monkeypatch):
    harness._cached_calibrate.cache_clear()
    harness._cached_baseline.cache_clear()
    used = []
    run_block = harness._run_block

    def recording_run_block(null, rows, columns, *args):
        used.extend(columns)
        return run_block(null, rows, columns, *args)

    monkeypatch.setattr(harness, "_run_block", recording_run_block)
    harness.reproduce_table("T1", scale=0.05)
    simulations = []
    simulate = calibration.simulate_null_stats
    monkeypatch.setattr(
        calibration, "simulate_null_stats", lambda *a, **k: simulations.append(a) or simulate(*a, **k)
    )
    cols = harness._uniformity_columns(50, 6, 6, 10, 0.05, 1000, 0, 1)
    assert simulations == []
    assert [c.name for c in cols] == [c.name for c in used]
    for got, want in zip(cols, used):
        assert got.table is want.table and got.baseline is want.baseline, got.name
