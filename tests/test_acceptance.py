"""End-to-end acceptance checks.

Each test covers one shipping requirement and prints a single summary
line; run ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per check. These are intentionally heavier than the unit tests
(the file takes about half a minute).
"""

import io
import json
import time
from contextlib import redirect_stdout
from dataclasses import replace

import numpy as np
import pytest

from mbdp import (
    SolverConfig,
    build_boxpush,
    build_mabc,
    build_tiger,
    epsilon_at,
    epsilon_global,
    error_bound,
    evaluate_at_belief,
    exact_solve,
    exhaustive_backup,
    improved_mbdp,
    mbdp,
    parse_policy,
    random_policy_baseline,
    serialize_policy,
    simulate,
    uniform_random_value,
)
from mbdp.cli import main as cli_main

from conftest import random_model

MABC_TABLE = {
    1: 1.00, 2: 2.00, 3: 2.99, 4: 3.89, 5: 4.79,
    6: 5.69, 7: 6.59, 8: 7.49, 9: 8.39, 10: 9.29,
    20: 18.29, 50: 45.29, 100: 90.29,
}

# protocol for the published-table comparison: belief-sampling heuristic,
# three trees, best value over ten seeds
TABLE_CONFIG = SolverConfig(max_trees=3, heuristics=("random",))
TABLE_SEEDS = range(10)


def passed(label, detail):
    print(f"[acceptance] {label}: PASS ({detail})")


def test_01_exact_value_table():
    t0 = time.perf_counter()
    got = {}
    for h in (1, 2, 3):
        got[h] = exact_solve(build_mabc(horizon=h)).value
    short_time = time.perf_counter() - t0
    assert short_time < 30.0, f"horizons 1-3 took {short_time:.1f}s"
    got[4] = exact_solve(build_mabc(horizon=4)).value
    total = time.perf_counter() - t0
    assert total < 60.0, f"horizon 4 blew the time budget: {total:.1f}s"
    for h, want in [(1, 1.00), (2, 2.00), (3, 2.99), (4, 3.89)]:
        assert got[h] == pytest.approx(want, abs=0.01), f"h={h}: {got[h]:.4f}"
    passed(
        "01 exact broadcast-channel values",
        f"h=1..4 -> {[round(got[h], 4) for h in (1, 2, 3, 4)]} in {total:.0f}s",
    )


def test_02_memory_bounded_value_table():
    t0 = time.perf_counter()
    results = {}
    for h, want in MABC_TABLE.items():
        model = build_mabc(horizon=h)
        best = max(
            mbdp(model, replace(TABLE_CONFIG, seed=s)).value for s in TABLE_SEEDS
        )
        tol = 0.05 if h <= 10 else 0.10
        assert best == pytest.approx(want, abs=tol), f"h={h}: {best:.4f} vs {want}"
        results[h] = best
    total = time.perf_counter() - t0
    assert total < 600.0, f"table took {total:.1f}s"
    passed(
        "02 memory-bounded value table",
        f"13 horizons within tolerance, {total:.0f}s total",
    )


def test_03_full_observation_budget_equivalence():
    checked = 0
    for build in (build_mabc, build_tiger):
        sample = build()
        full_budget = max(len(o) for o in sample.observations)
        for h in range(1, 11):
            model = build(horizon=h)
            for seed in (0, 1):
                cfg = SolverConfig(max_trees=3, seed=seed)
                a = mbdp(model, cfg)
                b = improved_mbdp(model, replace(cfg, max_obs=full_budget))
                assert a.value == b.value, f"{model.name} h={h} seed={seed}"
                assert serialize_policy(model, a.policy) == serialize_policy(model, b.policy), (
                    f"{model.name} h={h} seed={seed}"
                )
                checked += 1
    passed(
        "03 full-budget partial backups equal full backups",
        f"{checked} solver runs, values and policies identical",
    )


def test_04_partial_backup_loss_bound():
    rng = np.random.default_rng(0)
    models = 0
    worst_slack = np.inf
    while models < 50:
        num_states = int(rng.integers(2, 5))
        obs = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        horizon = int(rng.integers(2, 5))
        model = random_model(1000 + models, num_states=num_states, obs_counts=obs, horizon=horizon)
        cfg = SolverConfig(max_trees=2, seed=models, heuristics=("random",))
        v_full = mbdp(model, cfg).value
        v_partial = improved_mbdp(model, replace(cfg, max_obs=1)).value
        eps = epsilon_global(model, max_obs=1).epsilon
        mu = error_bound(model, eps)
        gap = abs(v_full - v_partial)
        assert gap <= mu + 1e-9, (
            f"model {models} (S={num_states} O={obs} T={horizon}): "
            f"gap {gap:.6f} exceeds bound {mu:.6f}"
        )
        worst_slack = min(worst_slack, mu - gap)
        models += 1
    passed(
        "04 partial-backup loss bound",
        f"{models} random models, zero violations, min slack {worst_slack:.3f}",
    )


def test_05_box_pushing_benchmark():
    model = build_boxpush(horizon=10)
    assert model.num_states == 100
    assert model.action_counts == (4, 4)
    assert model.observation_counts == (5, 5)

    one_step = exact_solve(build_boxpush(horizon=1)).value
    assert one_step == pytest.approx(-0.20, abs=0.001)

    report = improved_mbdp(model, SolverConfig(max_trees=3, max_obs=3, seed=0))
    assert report.value > 0.0, f"planner value {report.value:.3f}"

    uniform = uniform_random_value(model)
    sampled = random_policy_baseline(model, samples=20, seed=0).value
    assert uniform < 0.0 and sampled < 0.0, f"baselines {uniform:.3f}/{sampled:.3f}"

    millis = [lvl.millis for lvl in report.levels]
    ratio = max(millis) / sorted(millis)[len(millis) // 2]
    assert ratio < 3.0, f"level times {millis}"
    passed(
        "05 box pushing",
        f"exact h1 {one_step:.3f}, planner {report.value:.1f} > 0 > "
        f"baselines ({uniform:.1f}), level-time max/median {ratio:.2f}",
    )


def test_06_simulation_and_serialization_agree():
    outputs = []
    mabc5 = build_mabc(horizon=5)
    outputs.append((mabc5, mbdp(mabc5, SolverConfig(max_trees=3, seed=0)).policy))
    outputs.append(
        (mabc5, improved_mbdp(mabc5, SolverConfig(max_trees=3, max_obs=1, seed=1)).policy)
    )
    tiger2 = build_tiger(horizon=2)
    outputs.append((tiger2, exact_solve(tiger2).policy))
    mabc3 = build_mabc(horizon=3)
    outputs.append((mabc3, exact_solve(mabc3).policy))
    box4 = build_boxpush(horizon=4)
    outputs.append(
        (box4, improved_mbdp(box4, SolverConfig(max_trees=2, max_obs=3, seed=2)).policy)
    )
    outputs.append((mabc3, random_policy_baseline(mabc3, samples=1, seed=3).policy))

    for idx, (model, policy) in enumerate(outputs):
        want = evaluate_at_belief(model, policy, model.initial_belief)
        sim = simulate(model, policy, episodes=200_000, seed=100 + idx)
        assert abs(sim.mean - want) <= 3.0 * sim.std_error + 1e-9, (
            f"output {idx} on {model.name}: sim {sim.mean:.4f} vs exact {want:.4f} "
            f"(se {sim.std_error:.5f})"
        )
        back = parse_policy(model, serialize_policy(model, policy))
        again = evaluate_at_belief(model, back, model.initial_belief)
        assert again == pytest.approx(want, abs=1e-6), f"output {idx} round trip"
    passed(
        "06 simulation and serialization",
        f"{len(outputs)} solver outputs within 3 standard errors and 1e-6 round trip",
    )


def test_07_wall_clock_scales_linearly():
    cfg = SolverConfig(max_trees=3, max_obs=2, seed=0)
    horizons = [10, 20, 50, 100]
    models = [build_mabc(horizon=h) for h in horizons]
    # solves take milliseconds, so a burst of load from elsewhere can cover
    # every repeat of one horizon; interleaving the horizons spreads it
    # over all of them, and the median per horizon discounts it
    rounds = []
    for _ in range(7):
        row = []
        for model in models:
            t0 = time.perf_counter()
            improved_mbdp(model, cfg)
            row.append(time.perf_counter() - t0)
        rounds.append(row)
    times = np.median(rounds, axis=0).tolist()
    slope, intercept = np.polyfit(horizons, times, 1)
    fit = np.polyval([slope, intercept], horizons)
    residuals = np.abs(np.asarray(times) - fit) / fit
    assert residuals.max() < 0.25, (
        f"times {[round(t, 3) for t in times]} residuals {np.round(residuals, 3)}"
    )
    passed(
        "07 linear wall-clock growth",
        f"h={horizons} -> {[round(t, 2) for t in times]}s, "
        f"max residual {residuals.max():.1%}",
    )


def test_08_count_laws_and_bound_shape():
    # closed-form backup sizes over randomized dimensions
    rng = np.random.default_rng(7)
    cases = [(2, 5, 5)] + [
        (int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        for _ in range(6)
    ]
    for actions, sources, obs in cases:
        model = random_model(
            50, num_states=2, action_counts=(actions, actions), obs_counts=(obs, obs)
        )
        out = exhaustive_backup(model, (sources, sources), cap=10_000)
        assert out.sizes == (actions * sources**obs,) * 2
    assert 2 * 5**5 == 6250
    assert (2 * 5**5) ** 2 == 39_062_500

    for seed in range(5):
        model = random_model(seed, obs_counts=(3, 2))
        b = model.initial_belief
        for ja in range(model.num_joint_actions):
            caps = [epsilon_at(model, b, ja, k) for k in (1, 2, 3)]
            assert caps[0] <= caps[1] + 1e-12 <= caps[2] + 2e-12
            assert caps[2] == pytest.approx(1.0, abs=1e-9)
        assert error_bound(model, 1.0) == 0.0
    passed(
        "08 count laws and bound shape",
        f"{len(cases)} backup size checks incl. 2*5^5 = 6250, "
        "capture mass monotone and bound zero at full capture",
    )


def test_09_reports_identical_across_runs():
    def run_once():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(
                [
                    "solve", "--problem", "mabc", "--horizon", "10",
                    "--format", "records", "--seed", "4",
                ]
            )
        assert code == 0
        return [
            line
            for line in buf.getvalue().splitlines()
            if json.loads(line)["type"] != "timing"
        ]

    reports = [run_once() for _ in range(2)]
    assert reports[0] == reports[1]
    passed(
        "09 run-to-run reproducibility",
        f"two runs gave byte-identical reports ({len(reports[0])} records)",
    )
