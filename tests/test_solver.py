from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mbdp import (
    CapacityError,
    PolicyReplayHeuristic,
    CompiledPolicy,
    ConfigError,
    ModelError,
    SolverConfig,
    build_boxpush,
    build_mabc,
    build_portfolio,
    build_tiger,
    evaluate_at_belief,
    evaluate_at_state,
    exact_solve,
    improved_mbdp,
    mbdp,
    random_policy_baseline,
    serialize_policy,
    uniform_random_value,
)

import _reference as ref
from conftest import random_model


def best_over_seeds(solve, model, cfg, seeds):
    return max(solve(model, replace(cfg, seed=s)).value for s in seeds)


class TestConfig:
    def test_rejects_nonpositive_trees(self):
        with pytest.raises(ConfigError):
            SolverConfig(max_trees=0)

    def test_rejects_bad_max_obs(self):
        with pytest.raises(ConfigError):
            SolverConfig(max_obs=0)

    def test_rejects_empty_portfolio(self):
        with pytest.raises(ConfigError):
            SolverConfig(heuristics=())


class TestExact:
    def test_tiger_two_steps(self, tiger):
        res = exact_solve(tiger)
        assert res.value == pytest.approx(-4.0, abs=1e-9)
        assert res.policy.depth == 2

    def test_policy_reevaluates_to_reported_value(self, tiger):
        res = exact_solve(tiger)
        again = evaluate_at_belief(tiger, res.policy, tiger.initial_belief)
        assert again == pytest.approx(res.value, abs=1e-9)

    def test_state_values_upper_bound_belief_value(self, tiger):
        res = exact_solve(tiger)
        ceiling = float(tiger.initial_belief.probs @ res.state_values)
        assert res.value <= ceiling + 1e-9

    @given(seed=st.integers(0, 3_000))
    @settings(max_examples=12)
    def test_matches_brute_force(self, seed):
        model = random_model(seed, num_states=2, horizon=2)
        assert exact_solve(model).value == pytest.approx(
            ref.brute_force_value(model, 2), abs=1e-9
        )

    def test_candidate_counts_track_pruning(self, tiger):
        res = exact_solve(tiger)
        assert len(res.candidate_counts) == 2
        assert all(len(level) == 2 for level in res.candidate_counts)

    def test_capacity_guards(self, mabc):
        model = replace(mabc, horizon=9)
        with pytest.raises(CapacityError):
            exact_solve(model, max_candidates=10)
        with pytest.raises(CapacityError):
            exact_solve(model, max_stream=10)


class TestPlanner:
    def test_mabc_short_horizons(self, mabc):
        cfg = SolverConfig(max_trees=3, heuristics=("random",))
        for h, want in [(1, 1.00), (2, 2.00), (3, 2.99)]:
            got = best_over_seeds(mbdp, replace(mabc, horizon=h), cfg, range(10))
            assert got == pytest.approx(want, abs=0.05)

    def test_tiger_reaches_oracle(self, tiger):
        want = exact_solve(tiger).value
        got = best_over_seeds(mbdp, tiger, SolverConfig(max_trees=3), range(5))
        assert got == pytest.approx(want, abs=1e-9)

    def test_exhaustive_memory_reaches_brute_force(self):
        model = random_model(3, num_states=2, horizon=2)
        want = ref.brute_force_value(model, 2)
        got = mbdp(model, SolverConfig(max_trees=8, seed=0)).value
        assert got == pytest.approx(want, abs=1e-9)

    def test_single_observation_alphabet_is_exact(self):
        # with one observation per agent, trees are action sequences and
        # eight slots cover the whole space
        model = random_model(11, num_states=3, obs_counts=(1, 1), horizon=3)
        want = exact_solve(model).value
        got = mbdp(model, SolverConfig(max_trees=8, seed=0)).value
        assert got == pytest.approx(want, abs=1e-9)

    @given(seed=st.integers(0, 2_000))
    @settings(max_examples=10)
    def test_never_beats_oracle(self, seed):
        model = random_model(seed, num_states=3, horizon=3)
        upper = exact_solve(model).value
        report = improved_mbdp(model, SolverConfig(max_trees=2, max_obs=1, seed=seed))
        assert report.value <= upper + 1e-9

    def test_memory_growth_helps_on_average(self, mabc):
        model = replace(mabc, horizon=4)
        small = best_over_seeds(mbdp, model, SolverConfig(max_trees=1), range(5))
        large = best_over_seeds(mbdp, model, SolverConfig(max_trees=5), range(5))
        assert large >= small - 1e-9

    def test_report_shape(self, mabc):
        model = replace(mabc, horizon=4)
        report = improved_mbdp(model, SolverConfig(max_trees=2, max_obs=1, seed=0))
        assert report.horizon == 4
        assert len(report.levels) == 3
        # level t selects depth-t trees and backs them up to depth t + 1
        assert [lvl.tree_depth for lvl in report.levels] == [1, 2, 3]
        assert all(lvl.partial for lvl in report.levels)
        assert report.value == pytest.approx(
            evaluate_at_belief(model, report.policy, model.initial_belief), abs=1e-9
        )

    def test_exhausted_candidates_keep_cloning(self, mabc):
        # two actions per agent: picks 3 to 5 of the first level all clone
        # the best pick so far
        report = mbdp(replace(mabc, horizon=3), SolverConfig(max_trees=5))
        first, second = report.levels
        assert first.duplicated == 3
        assert first.selection_values == pytest.approx((1.0,) * 5)
        # as scored pair by pair with PolicyEvaluator.value_vector
        assert second.selection_values == pytest.approx((1.99, 2.0, 1.9, 1.9, 1.9))

    @pytest.mark.parametrize("action_counts", [(3, 2), (4, 2), (2, 3)])
    @pytest.mark.parametrize("seed", range(4))
    def test_duplicates_never_add_unpicked_rows(self, action_counts, seed):
        model = random_model(seed, action_counts=action_counts, horizon=3)
        report = mbdp(model, SolverConfig(max_trees=5, seed=seed))
        first = report.levels[0]
        # the smaller action set runs out after min(action_counts) picks
        assert first.duplicated == 5 - min(action_counts)
        for level in report.levels:
            assert np.isfinite(level.selection_values).all()
        if (action_counts, seed) == ((4, 2), 2):
            # a pick from masked rows would add a fourth action for agent 0
            # and move the final value to 0.69624
            assert report.value == pytest.approx(0.6906211102749917, abs=1e-12)

    @pytest.mark.parametrize(
        "build,horizon,heuristics", [(build_mabc, 100, ("random",)), (build_tiger, 8, ("mdp", "random"))]
    )
    def test_policy_keeps_max_trees_nodes_per_depth(self, build, horizon, heuristics):
        # the returned policy shares subtrees: each depth of each agent's
        # tree holds at most max_trees distinct nodes (tiger's reaches 3)
        model = build(horizon=horizon)
        report = mbdp(model, SolverConfig(max_trees=3, heuristics=heuristics))
        compiled = CompiledPolicy(model, report.policy)
        for per_depth in compiled.actions:
            assert len(per_depth) == horizon
            assert max(len(rows) for rows in per_depth) <= 3

    def test_full_memory_levels_marked_full(self, mabc):
        report = mbdp(mabc, SolverConfig(max_trees=2, seed=0))
        assert not any(lvl.partial for lvl in report.levels)

    def test_invalid_model_refused_before_solving(self, mabc):
        transition = mabc.transition.copy()
        transition[0, 0, 0] = np.nan
        broken = replace(mabc, transition=transition)
        for solve in (mbdp, improved_mbdp, exact_solve):
            with pytest.raises(ModelError, match="non-finite"):
                solve(broken)

    def test_backup_cap_enforced(self, mabc):
        with pytest.raises(CapacityError):
            mbdp(mabc, SolverConfig(max_trees=9, backup_cap=50))


class TestEquivalence:
    @given(seed=st.integers(0, 1_000))
    @settings(max_examples=8)
    def test_full_observation_budget_collapses_to_full_backups(self, seed):
        model = random_model(seed, num_states=3, horizon=3)
        cfg = SolverConfig(max_trees=2, seed=seed)
        full = mbdp(model, cfg)
        budget = improved_mbdp(model, replace(cfg, max_obs=2))
        assert budget.value == full.value
        for a, b in zip(full.policy.trees, budget.policy.trees):
            assert a.same_structure(b)


class TestDeterminism:
    def test_same_seed_same_policy(self, mabc):
        model = replace(mabc, horizon=5)
        cfg = SolverConfig(max_trees=3, seed=7)
        a = improved_mbdp(model, cfg)
        b = improved_mbdp(model, cfg)
        assert a.value == b.value
        for x, y in zip(a.policy.trees, b.policy.trees):
            assert x.same_structure(y)

    def test_repeated_runs_give_identical_records(self, mabc):
        model = replace(mabc, horizon=6)
        cfg = SolverConfig(max_trees=3, seed=2)
        runs = [improved_mbdp(model, cfg) for _ in range(2)]
        levels = [[replace(lvl, millis=0.0) for lvl in r.levels] for r in runs]
        assert levels[0] == levels[1]
        assert runs[0].value == runs[1].value
        texts = [serialize_policy(model, r.policy) for r in runs]
        assert texts[0] == texts[1]


class TestBaselines:
    def test_uniform_value_mabc_one_step(self, mabc):
        assert uniform_random_value(mabc, 1) == pytest.approx(0.5, abs=1e-12)

    @given(seed=st.integers(0, 3_000))
    @settings(max_examples=15)
    def test_uniform_value_matches_direct_recursion(self, seed):
        model = random_model(seed, num_states=3, horizon=3)
        mean_t = model.transition.mean(axis=0)
        mean_r = (model.transition * model.reward).sum(axis=2).mean(axis=0)
        v = np.zeros(model.num_states)
        for _ in range(model.horizon):
            v = mean_r + mean_t @ v
        want = float(model.initial_belief.probs @ v)
        assert uniform_random_value(model) == pytest.approx(want, abs=1e-10)

    def test_single_sample_reports_its_policy_value(self, tiger):
        res = random_policy_baseline(tiger, samples=1, seed=3)
        want = evaluate_at_belief(tiger, res.policy, tiger.initial_belief)
        assert res.value == pytest.approx(want, abs=1e-12)
        assert res.std_error is None

    def test_multi_sample_mean_and_spread(self, tiger):
        res = random_policy_baseline(tiger, samples=12, seed=3)
        assert res.samples == 12
        assert res.std_error >= 0.0

    def test_sampler_handles_wide_horizon(self, mabc):
        # full enumeration would need 2^50-ish nodes; the width-capped
        # sampler must still return a playable policy
        model = replace(mabc, horizon=12)
        res = random_policy_baseline(model, samples=1, seed=0, node_cap=1000)
        assert res.policy.depth == 12


def reference_rounds(model, cfg, force_full):
    """(value, policy) per round of ``solve_round_reference``, replaying the best as the solver does."""
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.recursion_depth + 1)
    rounds, best = [], None
    for child in children:
        portfolio = build_portfolio(model, cfg.heuristics)
        if best is not None:
            portfolio.append(PolicyReplayHeuristic(model, best[1]))
        value, policy = ref.solve_round_reference(
            model, cfg, np.random.default_rng(child), portfolio, force_full
        )
        rounds.append((value, policy))
        if best is None or value > best[0]:
            best = (value, policy)
    return rounds


ROUND_CASES = [
    pytest.param("mabc", 100, mbdp, SolverConfig(max_trees=3, heuristics=("random",), seed=seed),
                 id=f"mabc-h100-mbdp-seed{seed}")
    for seed in range(3)
] + [
    pytest.param("boxpush", 10, improved_mbdp, SolverConfig(max_trees=3, max_obs=3, seed=0),
                 id="boxpush-h10-improved-seed0"),
    pytest.param("tiger", 8, improved_mbdp,
                 SolverConfig(max_trees=2, max_obs=1, seed=3, recursion_depth=2),
                 id="tiger-h8-improved-replay"),
    pytest.param("mabc", 12, mbdp,
                 SolverConfig(max_trees=3, heuristics=("random", "mdp"), seed=1, recursion_depth=1),
                 id="mabc-h12-mbdp-replay"),
]
BUILDERS = {"mabc": build_mabc, "boxpush": build_boxpush, "tiger": build_tiger}


@pytest.mark.parametrize("problem,horizon,solve,cfg", ROUND_CASES)
def test_rounds_match_reference_round(problem, horizon, solve, cfg):
    # pre-sampled beliefs, reused full tables and the planned gather give
    # the bits of a walk per level and pick, fresh tables and np.ix_ blocks
    model = BUILDERS[problem](horizon=horizon)
    report = solve(model, cfg)
    rounds = reference_rounds(model, cfg, force_full=solve is mbdp)
    assert report.round_values == tuple(value for value, _ in rounds)
    value, policy = max(rounds, key=lambda r: r[0])
    assert report.value == value
    assert serialize_policy(model, report.policy) == serialize_policy(model, policy)
