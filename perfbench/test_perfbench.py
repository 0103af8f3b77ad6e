"""Tests of the benchmark's own checks and tracer.

    PYTHONPATH=src python3 -m pytest perfbench -q

The independent evaluator is compared against the recursive oracle in
``tests/_reference.py``; every check is shown to reject a value moved
by 1e-3 past what it accepts.
"""

import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import mbdp
import mbdp.solver
from mbdp import DecPomdp, PolicyTree, SolverConfig

import bench_checks
import bench_clock
import bench_trace
import bench_workloads
from bench_setup import build_models

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
import _reference  # noqa: E402  (the repository's slow recursive oracles)

PERTURB = 1e-3


def random_model(seed, num_states, action_counts, obs_counts, horizon=3):
    rng = np.random.default_rng(seed)
    num_ja = int(np.prod(action_counts))
    num_jo = int(np.prod(obs_counts))
    return DecPomdp(
        states=tuple(f"s{i}" for i in range(num_states)),
        actions=tuple(tuple(f"a{i}{j}" for j in range(n)) for i, n in enumerate(action_counts)),
        observations=tuple(tuple(f"o{i}{j}" for j in range(n)) for i, n in enumerate(obs_counts)),
        transition=rng.dirichlet(np.ones(num_states), size=(num_ja, num_states)),
        observation=rng.dirichlet(np.ones(num_jo), size=(num_ja, num_states)),
        reward=rng.uniform(-1.0, 1.0, size=(num_ja, num_states, num_states)),
        initial_belief=rng.dirichlet(np.ones(num_states)),
        horizon=horizon,
        name=f"random-{seed}",
    )


def random_tree(rng, num_actions, num_obs, depth, width=3):
    """A random policy tree whose levels share subtrees."""
    level = [PolicyTree(int(rng.integers(num_actions))) for _ in range(width)]
    for _ in range(depth - 1):
        level = [
            PolicyTree(
                int(rng.integers(num_actions)),
                tuple(level[int(rng.integers(width))] for _ in range(num_obs)),
            )
            for _ in range(width)
        ]
    return level[0]


CASES = [
    (seed, states, actions, obs, depth)
    for seed, (states, actions, obs) in enumerate(
        [
            (2, (2, 2), (2, 2)),
            (3, (2, 3), (3, 2)),
            (4, (3, 2), (2, 2)),
            (2, (2, 2, 2), (2, 2, 2)),
            (3, (2, 1, 2), (2, 3, 2)),
        ]
    )
    for depth in (1, 2, 3)
]


@pytest.mark.parametrize("seed,states,actions,obs,depth", CASES)
def test_evaluator_matches_reference(seed, states, actions, obs, depth):
    model = random_model(seed, states, actions, obs, horizon=depth)
    rng = np.random.default_rng(100 + seed)
    for _ in range(3):
        trees = [random_tree(rng, a, o, depth) for a, o in zip(actions, obs)]
        want = _reference.belief_value(model, trees, model.initial_belief)
        assert bench_checks.policy_value(model, trees) == pytest.approx(want, abs=1e-12)


def test_mdp_value_matches_reference_value_iteration():
    model = random_model(3, 4, (2, 3), (2, 2), horizon=5)
    values = _reference.value_iteration(model.transition, model.reward, 5)
    want = float(model.initial_belief.probs @ values[5])
    assert bench_checks.mdp_value(model, 5) == pytest.approx(want, abs=1e-12)


def test_uniform_random_value_matches_package():
    model = random_model(4, 3, (2, 2, 2), (2, 2, 2), horizon=6)
    assert bench_checks.uniform_random_value(model, 6) == pytest.approx(
        mbdp.uniform_random_value(model), abs=1e-12
    )


def test_published_limits_hold_on_broadcast_channel():
    model = mbdp.build_mabc(horizon=100)
    assert bench_checks.uniform_random_value(model, 100) == pytest.approx(48.39, abs=0.01)
    assert bench_checks.mdp_value(model, 100) == pytest.approx(95.56, abs=0.01)


def test_check_value_rejects_perturbation():
    model = mbdp.build_mabc(horizon=4)
    report = mbdp.mbdp(model, SolverConfig(max_trees=2, seed=0))
    value = bench_checks.policy_value(model, report.policy.trees)
    assert bench_checks.check_value("v", report.value, value) == []
    assert bench_checks.check_value("v", report.value + PERTURB, value)
    assert bench_checks.check_value("v", report.value - PERTURB, value)


def test_check_sandwich_rejects_perturbation():
    assert bench_checks.check_sandwich("s", 1.0, 1.0, 2.0) == []
    assert bench_checks.check_sandwich("s", 1.0, 2.0, 2.0) == []
    assert bench_checks.check_sandwich("s", 1.0, 1.0 - PERTURB, 2.0)
    assert bench_checks.check_sandwich("s", 1.0, 2.0 + PERTURB, 2.0)


def test_check_not_above_rejects_perturbation():
    assert bench_checks.check_not_above("n", 5.0, 5.0) == []
    assert bench_checks.check_not_above("n", 5.0 + PERTURB, 5.0)


def test_check_simulation_rejects_perturbation():
    se = PERTURB / 8
    assert bench_checks.check_simulation("m", 3.0 + 3.9 * se, se, 3.0) == []
    assert bench_checks.check_simulation("m", 3.0 + PERTURB, se, 3.0)
    assert bench_checks.check_simulation("m", 3.0 - PERTURB, se, 3.0)


def test_check_published_rejects_perturbation():
    assert bench_checks.check_published("p", 90.39, 90.29, 0.10) == []
    assert bench_checks.check_published("p", 90.39 + PERTURB, 90.29, 0.10)
    assert bench_checks.check_published("p", 90.19 - PERTURB, 90.29, 0.10)


@pytest.mark.parametrize(
    "build,horizon,max_obs",
    [(mbdp.build_mabc, 4, 1), (mbdp.build_tiger, 3, 1), (mbdp.build_boxpush, 3, 2)],
)
def test_check_witness_rejects_perturbation(build, horizon, max_obs):
    model = build(horizon=horizon)
    report = mbdp.epsilon_global(model, max_obs=max_obs)
    bound = mbdp.error_bound(model, report.epsilon)

    def check(epsilon=report.epsilon, bound=bound):
        return bench_checks.check_witness(
            "w", model, horizon, max_obs, epsilon, report.witness, bound
        )

    assert check() == []
    assert check(epsilon=report.epsilon + PERTURB)
    assert check(epsilon=report.epsilon - PERTURB)
    assert check(bound=bound + PERTURB)
    assert check(bound=bound - PERTURB)


def test_tracer_self_times_add_up_and_uninstall_restores():
    model = mbdp.build_boxpush(horizon=3)
    originals = {attr: getattr(mbdp.solver, attr) for attr in bench_trace.SOLVER_IMPORTS}
    value_vector = mbdp.PolicyEvaluator.value_vector
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        with tracer.span("solver.solve"):
            report = mbdp.improved_mbdp(model, SolverConfig(max_trees=2, max_obs=2, seed=0))
        mbdp.simulate(model, report.policy, 1000, 0)
    finally:
        tracer.uninstall()
    for attr, fn in originals.items():
        assert getattr(mbdp.solver, attr) is fn
    assert mbdp.PolicyEvaluator.value_vector is value_vector
    metrics, split = bench_trace.layer_metrics(tracer)
    assert split["solve_parts_sum_s"] == pytest.approx(split["solve_span_s"], rel=1e-9)
    assert metrics["backup.fill_evaluations"] > 0
    assert metrics["solver.pairs_scored"] + metrics["backup.fill_evaluations"] == metrics[
        "policy.value_vector_calls"
    ]
    assert metrics["policy.simulate_s"] > 0
    assert set(metrics) | {
        "solver.tuples_streamed",
        "rss.after_setup_mb",
        "rss.after_solve_mb",
        "rss.after_simulate_mb",
        "rss.after_bound_mb",
        "trace.overhead_s",
    } == set(bench_trace.LAYER_UNITS)


def test_clock_scales_by_kernel_samples_and_leaves_the_timer_off():
    clock = bench_clock.Clock()
    handler = signal.getsignal(signal.SIGALRM)

    def busy():
        until = time.perf_counter() + 0.5
        while time.perf_counter() < until:
            pass
        return "done"

    result, wall, scaled = clock.time(busy, "interp")
    assert result == "done"
    # the timer sampled the kernel inside the call, and that time is not the call's
    samples = clock.samples["interp"]
    assert len(samples) >= 3
    assert 0.4 < wall < 0.5
    near = [seconds for _, seconds in clock.samples["interp"]]
    assert scaled == pytest.approx(wall * bench_clock.REFERENCE_S["interp"] / statistics.median(near))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler

    def fails():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        clock.time(fails, "gather")
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_exact_oracle_round_passes_its_checks():
    name = "exact-oracle"
    run = bench_workloads.Run(build_models(mbdp, name), seed=1, clock=bench_clock.Clock())
    metrics = bench_workloads.run_round(bench_workloads.WORKLOADS[name](), run)
    assert run.problems == [] and run.errors == []
    assert run.failed == 0
    sims, bounds = bench_workloads.EXACT_SIM_PASSES, bench_workloads.BOUND_REPEATS
    assert run.attempted == len(run.timings) == 3 + 3 * sims + 3 * bounds
    assert set(run.clock.medians()) == set(bench_clock.KERNELS)
    assert metrics["value"] == pytest.approx(5.1908125 + 2.99 + 63.671, abs=1e-6)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == set(bench_trace.LAYER_UNITS)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    assert end_to_end == set(bench_workloads.UNITS) | {"setup_s", "peak_rss_mb"}


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-oracle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
