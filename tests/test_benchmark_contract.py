"""The benchmark's tracer still loads against the package and undoes its patches.

``perfbench/bench_trace.py`` imports names from ``mbdp`` when it is loaded
and patches package functions from the outside.  Removing or renaming one
of those names would fail every benchmark run; this test fails first.
It reads the tracer and leaves it unchanged.
"""

import importlib.util
from pathlib import Path

import mbdp
import mbdp.analysis
import mbdp.policy
import mbdp.solver

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"
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


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("bench_trace", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def attributes():
    return {(owner.__name__, name): value for owner in OWNERS for name, value in vars(owner).items()}


def test_tracer_install_and_uninstall_restore_every_patched_attribute():
    tracer = load_tracer_module().Tracer()
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
