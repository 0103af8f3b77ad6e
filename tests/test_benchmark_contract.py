"""The benchmark's tracer and checks still work against the package.

``perfbench/bench_trace.py`` imports names from ``mbdp`` when it is loaded
and patches package functions from the outside.  Removing or renaming one
of those names would fail every benchmark run; this test fails first.
``perfbench/bench_checks.py`` re-evaluates each reported value from
``report.policy.trees``, which policies build from their tables on first
use.  Both files are read and left unchanged.
"""

import importlib.util
from pathlib import Path

import pytest

import mbdp
import mbdp.analysis
import mbdp.policy
import mbdp.solver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "bench_trace.py"
CHECKS = PERFBENCH / "bench_checks.py"
OWNERS = (
    mbdp,
    mbdp.analysis,
    mbdp.policy,
    mbdp.solver,
    mbdp.CompiledPolicy,
    mbdp.DecPomdp,
    mbdp.PolicyEvaluator,
    mbdp.ValueTable,
)


def load_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def attributes():
    return {(owner.__name__, name): value for owner in OWNERS for name, value in vars(owner).items()}


def test_tracer_install_and_uninstall_restore_every_patched_attribute():
    tracer = load_module("bench_trace", TRACER).Tracer()
    before = attributes()
    tracer.install()
    try:
        during = attributes()
    finally:
        tracer.uninstall()
    after = attributes()
    patched = {key for key, value in before.items() if during.get(key) is not value}
    assert {
        ("PolicyEvaluator", "value_vector"),
        ("ValueTable", "retain"),
        ("CompiledPolicy", "__init__"),
        ("mbdp.policy", "simulate"),
        ("mbdp.solver", "fill_missing"),
    } <= patched
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


@pytest.mark.parametrize(
    "model, solve",
    [
        (mbdp.build_mabc(horizon=100), lambda model: mbdp.mbdp(model, mbdp.SolverConfig(seed=0))),
        (mbdp.build_tiger(horizon=3), mbdp.exact_solve),
    ],
    ids=["mbdp-mabc-h100", "exact-tiger-h3"],
)
def test_bench_checks_reevaluate_reported_values_from_trees(model, solve):
    checks = load_module("bench_checks", CHECKS)
    report = solve(model)
    assert abs(checks.policy_value(model, report.policy.trees) - report.value) <= 1e-9
