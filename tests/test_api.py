"""The public surface: package exports and the names the benchmark calls.

The benchmark under perfbench/ drives the package through module
attributes (`cv.cli.run`, `cv.systems.build_system`, ...) and traces
functions by (module, name).  Its own smoke test is too slow for the
default test run, so these checks catch a rename or deletion that would
break it.
"""

import importlib
import importlib.util
import re
import sys
from pathlib import Path
from types import ModuleType

import pytest

import critvals
from critvals.arcs import ArcShape, substitute
from critvals.groebner import LimitExceeded
from critvals.poly import Poly, VarTable, parse_poly

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Module attributes perfbench/workloads.py calls.
WORKLOAD_NAMES = [
    ("cli", "run"),
    ("cli", "RunConfig"),
    ("systems", "build_system"),
    ("systems", "build_av_system"),
    ("certify", "malgrange_probe"),
    ("certify", "CertifyConfig"),
    ("groebner", "ResourceLimits"),
    ("poly", "parse_poly"),
    ("poly", "VarTable"),
    ("arcs", "ArcShape"),
]


def _resolve(module: str, name: str):
    return getattr(importlib.import_module(f"critvals.{module}"), name)


def test_every_export_resolves():
    assert [name for name in critvals.__all__ if not hasattr(critvals, name)] == []


def test_workload_names_exist():
    for module, name in WORKLOAD_NAMES:
        assert callable(_resolve(module, name)), f"{module}.{name}"


def test_workloads_use_only_listed_names():
    used = set(re.findall(r"\bcv\.(\w+)\.(\w+)", (PERFBENCH / "workloads.py").read_text()))
    assert used <= set(WORKLOAD_NAMES)


def test_substitute_result_exposes_coeffs():
    # the benchmark's arcs.series_terms counter sums num_terms() over the
    # values of substitute(...).coeffs
    s = substitute(parse_poly("x + x^2*y", VarTable(("x", "y"))), ArcShape(n=2, D1=1, D2=1))
    assert s.coeffs
    for k, p in s.coeffs.items():
        assert isinstance(k, int) and isinstance(p, Poly) and p.num_terms() > 0


def _perfbench_module(name: str):
    """perfbench/<name>.py, loaded read-only under a name of its own."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    # the tracer wraps each (module, function) of TRACED in the modules of
    # MODULES; a missing name would break only the benchmark's traced run
    spans = _perfbench_module("spans")
    traced = {(module, name): _resolve(module, name) for module, name in spans.TRACED}
    assert traced and all(map(callable, traced.values()))
    assert all(isinstance(getattr(critvals, module), ModuleType) for module in spans.MODULES)
    restore = spans.Tracer().install(critvals)
    try:
        wrapped = [pair for pair, fn in traced.items() if _resolve(*pair) is not fn]
    finally:
        restore()
    assert wrapped == list(traced)
    assert all(_resolve(*pair) is fn for pair, fn in traced.items())
    assert callable(critvals.report.CriticalValueReport.to_json)


def test_tracer_counts_buchberger():
    # the groebner.* counters read buchberger's Ideal argument and the Poly
    # terms of its GroebnerBasis result; the systems.* counters read
    # num_terms() on build_system's result; the univariate.* counters count
    # the isolation and refinement that solve makes.  The quintic's BV
    # branch has a non-constant c0, so it is eliminated (Broughton's
    # branches all have c0 = 0 and are answered without Buchberger)
    spans = _perfbench_module("spans")
    tracer = spans.Tracer()
    restore = tracer.install(critvals)
    try:
        config = critvals.cli.RunConfig(value_set="kinf", variables=("x", "y"), bounds=(1, 0))
        critvals.cli.run(config, "x*(x^2+1)^2")
    finally:
        restore()
    metrics = tracer.layer_metrics()
    for name in (
        "groebner.calls",
        "groebner.input_terms",
        "groebner.max_coeff_bits",
        "systems.build_calls",
        "systems.generator_terms",
        "univariate.refine_calls",
        "univariate.eliminant_degree",
    ):
        assert metrics[name] > 0, name


WORKLOADS = _perfbench_module("workloads")


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_every_benchmark_operation_passes_its_reference_check(workload):
    # each operation once at seed 0: a changed signature or a wrong output
    # fails here, not only in a benchmark run
    for op in WORKLOADS.build(workload, 0, critvals):
        try:
            result = op.call()
        except LimitExceeded as e:
            assert e.which == op.expect_limit, f"{op.name}: {e}"
            continue
        assert op.check(result) is None, op.name
