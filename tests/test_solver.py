import itertools
import math
import re
import tracemalloc
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
    rank_observations,
    serialize_policy,
    uniform_random_value,
)
import mbdp.solver as solver_module

import _reference as ref
from conftest import random_model, three_agent_model, traced_peak_mb


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

    def test_rejects_a_bare_heuristic_string(self):
        # a string is a sequence of one-letter names
        with pytest.raises(ConfigError, match="not the string 'mdp'"):
            SolverConfig(heuristics="mdp")

    @pytest.mark.parametrize("bad", [-1, 0.5, True, None, "3"])
    def test_rejects_bad_seeds(self, bad):
        with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
            SolverConfig(seed=bad)

    def test_numpy_seed_is_stored_as_int(self):
        assert type(SolverConfig(seed=np.int64(4)).seed) is int

    @pytest.mark.parametrize(
        "name, bad",
        [
            ("max_trees", 2.5),
            ("max_trees", True),
            ("max_trees", 0),
            ("max_obs", 1.5),
            ("max_obs", True),
            ("max_obs", 0),
            ("recursion_depth", 0.5),
            ("recursion_depth", -1),
            ("backup_cap", 10.0),
            ("backup_cap", 0),
        ],
    )
    def test_rejects_bad_counts(self, name, bad):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            SolverConfig(**{name: bad})

    def test_numpy_counts_are_stored_as_int(self):
        names = ("max_trees", "max_obs", "recursion_depth", "backup_cap")
        cfg = SolverConfig(**{name: np.int64(2) for name in names})
        assert all(type(getattr(cfg, name)) is int for name in names)
        assert SolverConfig(max_obs=None).max_obs is None
        assert SolverConfig(recursion_depth=0).recursion_depth == 0


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

    def test_capacity_guards(self, mabc, tiger):
        model = replace(mabc, horizon=9)
        with pytest.raises(CapacityError):
            exact_solve(model, max_candidates=10)
        with pytest.raises(CapacityError, match="level 1 needs a 4-tuple"):
            exact_solve(replace(mabc, horizon=1), max_pairs=3)
        # h=2 scores 4 tuples at level 1; the final level enumerates agent
        # 1's 8 rows once per action of agent 0, whose table is as large
        model = replace(mabc, horizon=2)
        assert exact_solve(model, max_pairs=16).candidate_counts == ((2, 2), (8, 8))
        with pytest.raises(CapacityError, match="level 2 enumerates 16 joint tuples"):
            exact_solve(model, max_pairs=15)
        # the default caps stop these where they always have
        with pytest.raises(CapacityError, match="level 4 needs a 1073741824-tuple"):
            exact_solve(replace(mabc, horizon=5))
        with pytest.raises(CapacityError, match="level 4 needs 2091675 trees for agent 0"):
            exact_solve(replace(tiger, horizon=4))


class TestPlanner:
    def test_mabc_short_horizons(self, mabc):
        cfg = SolverConfig(max_trees=3, heuristics=("random",))
        for h, want in [(1, 1.00), (2, 2.00), (3, 2.99)]:
            got = best_over_seeds(mbdp, replace(mabc, horizon=h), cfg, range(10))
            assert got == pytest.approx(want, abs=0.05)

    @pytest.mark.parametrize(
        "horizon,cfg,seeds",
        [(2, SolverConfig(max_trees=3), range(5))]
        # tiger's three actions run out at level 1; cloning a pick there
        # once gave "always listen", -6.0
        + [(3, SolverConfig(max_trees=k, heuristics=("mdp",)), [0]) for k in (4, 5, 6)],
    )
    def test_tiger_reaches_oracle(self, horizon, cfg, seeds):
        model = build_tiger(horizon=horizon)
        want = exact_solve(model).value
        got = best_over_seeds(mbdp, model, cfg, seeds)
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

    def test_exhausted_candidates_end_the_picks(self, mabc):
        # two actions per agent: the first level makes two picks, though
        # a belief is drawn for each of the five
        report = mbdp(replace(mabc, horizon=3), SolverConfig(max_trees=5))
        first, second = report.levels
        assert first.selection_values == pytest.approx((1.0,) * 2)
        assert first.heuristic_names == ("mdp", "random") * 2 + ("mdp",)
        assert first.backup_sizes == (8, 8)
        # as scored pair by pair from the whole value tensor
        assert second.selection_values == pytest.approx((1.99, 2.0, 1.88318, 1.9, 1.728))

    @pytest.mark.parametrize("action_counts", [(3, 2), (4, 2), (2, 3)])
    @pytest.mark.parametrize("seed", range(4))
    def test_exhausted_candidates_never_add_unpicked_rows(self, action_counts, seed):
        model = random_model(seed, action_counts=action_counts, horizon=3)
        report = mbdp(model, SolverConfig(max_trees=5, seed=seed))
        # the smaller action set runs out after min(action_counts) picks
        assert [len(level.selection_values) for level in report.levels] == [min(action_counts), 5]
        for level in report.levels:
            assert np.isfinite(level.selection_values).all()
        if (action_counts, seed) == ((4, 2), 2):
            # a pick from masked rows would add a fourth action for agent 0
            # and move the final value to 0.69624
            assert report.value == pytest.approx(0.6906211102749917, abs=1e-12)

    @pytest.mark.parametrize(
        "model",
        [random_model(s, action_counts=(3, 2), horizon=4) for s in range(3)] + [three_agent_model(4)],
        ids=["two-agent-0", "two-agent-1", "two-agent-2", "three-agent"],
    )
    @pytest.mark.parametrize("max_obs", [None, 1])
    def test_picked_rows_hold_distinct_trees(self, monkeypatch, model, max_obs):
        # max_trees 5 is above every action count: cloning a pick once
        # filled the next level with equal trees under different rows
        materialize = solver_module._materialize
        seen = []

        def spy(levels):
            seen.append(levels)
            return materialize(levels)

        monkeypatch.setattr(solver_module, "_materialize", spy)
        improved_mbdp(model, SolverConfig(max_trees=5, max_obs=max_obs))
        (levels,) = seen
        for i in range(model.num_agents):
            # each picked tree as nested (action, children) tuples
            below = []
            for cands, picked in levels:
                trees = [
                    (int(cands.actions[i][r]), tuple(below[c] for c in cands.children[i][r]))
                    for r in picked[i]
                ]
                assert len(set(trees)) == len(trees)
                below = trees

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

    def test_backup_check_counts_the_rows_each_level_keeps(self, monkeypatch):
        # tiger keeps its 3 actions at level 1 and backs up 27 trees at
        # level 2, however large max_trees is
        for horizon, want in [(1, -2.0), (2, -4.0)]:
            for solve in (mbdp, improved_mbdp):
                report = solve(build_tiger(horizon=horizon), SolverConfig(max_trees=1000))
                assert report.value == pytest.approx(want, abs=1e-9)

        def sample(*args):
            raise AssertionError("selection beliefs drawn before the backup check")

        monkeypatch.setattr(solver_module, "selection_beliefs", sample)
        # level 2 keeps all 27 and backs up 3 * 27^2 trees
        message = "full backups for agent 0 would build 2187 trees per level (cap 2186)"
        with pytest.raises(CapacityError, match=re.escape(message)):
            mbdp(build_tiger(horizon=3), SolverConfig(max_trees=1000, backup_cap=2186))
        # (h - 1) * max_trees beliefs of 100 states would take 7.2 GB
        with pytest.raises(CapacityError, match="would build 4611686018427387904 trees"):
            mbdp(build_boxpush(horizon=10), SolverConfig(max_trees=10**6))

    def test_selection_arrays_are_checked_before_they_are_allocated(self, monkeypatch):
        def sample(*args):
            raise AssertionError("selection beliefs drawn before the selection check")

        monkeypatch.setattr(solver_module, "selection_beliefs", sample)
        # b_sel and b_prev: 9 levels of 10^6 beliefs over 100 states each, 14.4 GB
        message = "selection beliefs would take 1800000000 floats for 1000000 picks per level"
        model = build_boxpush(horizon=10)

        def solve():
            with pytest.raises(CapacityError, match=re.escape(message)):
                improved_mbdp(model, SolverConfig(max_trees=10**6, max_obs=3))

        assert traced_peak_mb(solve) < 1
        # the largest max_trees whose arrays fit the cap still reaches the draw
        fits = solver_module.MAX_GRID_FLOATS // (2 * 9 * 100)
        with pytest.raises(AssertionError, match="drawn before"):
            improved_mbdp(model, SolverConfig(max_trees=fits, max_obs=3))
        with pytest.raises(CapacityError, match="selection beliefs would take"):
            improved_mbdp(model, SolverConfig(max_trees=fits + 1, max_obs=3))

    def test_selection_grid_cap_fires_before_scoring(self, monkeypatch):
        # 8 observations per agent: level 1 keeps both actions and level 2
        # three of 2 * 2^8 = 512 trees; 2 * 3^8 = 13,122 full-backup trees
        # per agent fit backup_cap, but level 3's three score columns
        # would take 4.1 GB
        model = random_model(0, num_states=2, obs_counts=(8, 8), horizon=4)
        scores = solver_module.belief_scores
        grids = []

        def spy(model, rows, prev, beliefs):
            grids.append(len(beliefs) * math.prod(len(x) for x in rows))
            return scores(model, rows, prev, beliefs)

        def solve():
            with pytest.raises(CapacityError, match="level 3 would score 516560652 floats"):
                mbdp(model, SolverConfig(max_trees=3))

        monkeypatch.setattr(solver_module, "belief_scores", spy)
        assert traced_peak_mb(solve) < 64
        # only levels 1 and 2 were scored: 2 beliefs times 2 x 2 tuples,
        # then 3 times 512 x 512
        assert grids == [8, 786432]


class TestEquivalence:
    @given(seed=st.integers(0, 1_000))
    @settings(max_examples=8)
    def test_full_observation_budget_collapses_to_full_backups(self, seed):
        model = random_model(seed, num_states=3, horizon=3)
        cfg = SolverConfig(max_trees=2, seed=seed)
        full = mbdp(model, cfg)
        budget = improved_mbdp(model, replace(cfg, max_obs=2))
        assert budget.value == full.value
        assert serialize_policy(model, budget.policy) == serialize_policy(model, full.policy)


    def test_mbdp_solves_without_an_observation_budget(self, mabc):
        model = replace(mabc, horizon=4)
        plain = mbdp(model, SolverConfig(max_trees=2))
        budgeted = mbdp(model, SolverConfig(max_trees=2, max_obs=1))
        assert budgeted.config == plain.config and budgeted.config.max_obs is None
        assert budgeted.value == plain.value
        assert not any(level.partial for level in budgeted.levels)


class TestDeterminism:
    def test_same_seed_same_policy(self, mabc):
        model = replace(mabc, horizon=5)
        cfg = SolverConfig(max_trees=3, seed=7)
        a = improved_mbdp(model, cfg)
        b = improved_mbdp(model, cfg)
        assert a.value == b.value
        assert serialize_policy(model, a.policy) == serialize_policy(model, b.policy)

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
        assert uniform_random_value(replace(mabc, horizon=1)) == pytest.approx(0.5, abs=1e-12)

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

    @pytest.mark.parametrize("bad", [-1, 2.0, False, None])
    def test_rejects_bad_seeds(self, tiger, bad):
        with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
            random_policy_baseline(tiger, seed=bad)

    def test_multi_sample_mean_and_spread(self, tiger):
        res = random_policy_baseline(tiger, samples=12, seed=3)
        assert res.samples == 12
        assert res.std_error >= 0.0

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"samples": 0}, "samples"),
            ({"samples": 2.5}, "samples"),
            ({"samples": True}, "samples"),
            # the width and node caps are the module constants RANDOM_LEVEL_WIDTH
            # and RANDOM_NODE_CAP, so the call refuses them whatever their value
            ({"level_width": 0, "node_cap": 3}, "level_width"),
            ({"level_width": 1.5}, "level_width"),
            ({"node_cap": -5}, "node_cap"),
            ({"node_cap": 1.5}, "node_cap"),
            ({"node_cap": True}, "node_cap"),
            ({"node_cap": "x"}, "node_cap"),
        ],
    )
    def test_baseline_rejects_bad_counts(self, mabc, kwargs, name):
        if name == "samples":
            error, message = ConfigError, f"{name} must be an integer >= 1"
        else:
            error, message = TypeError, f"unexpected keyword argument '{name}'"
        with pytest.raises(error, match=message):
            random_policy_baseline(mabc, **kwargs)

    def test_sampler_handles_wide_horizon(self, mabc):
        # full enumeration would need 2^50-ish nodes; the width-capped
        # sampler must still return a playable policy
        model = replace(mabc, horizon=12)
        res = random_policy_baseline(model, samples=1, seed=0)
        assert res.policy.depth == 12


def reference_rounds(model, cfg):
    """(value, policy) per round of ``solve_round_reference``, replaying the best as the solver does.

    ``mbdp`` solves its config with ``max_obs`` None; pass that config here.
    """
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.recursion_depth + 1)
    rounds, best = [], None
    for child in children:
        portfolio = build_portfolio(model, cfg.heuristics)
        if best is not None:
            portfolio.append(PolicyReplayHeuristic(model, best[1]))
        value, policy = ref.solve_round_reference(
            model, cfg, np.random.default_rng(child), portfolio
        )
        rounds.append((value, policy))
        if best is None or value > best[0]:
            best = (value, policy)
    return rounds


def near_tie_model(horizon):
    """Joint actions (0, 1) and (1, 0) are twins, the second 1e-13 better per step.

    Both beat every other joint action by far, so each level's best
    tuples come in twin pairs within ``TIE_TOL`` of each other, and the
    lower flat index, the one starting with (0, 1), must win.
    """
    model = random_model(17, num_states=3, horizon=horizon)
    transition, observation = model.transition.copy(), model.observation.copy()
    reward = model.reward.copy()
    reward[1] += 2.0
    transition[2], observation[2], reward[2] = transition[1], observation[1], reward[1] + 1e-13
    return replace(model, transition=transition, observation=observation, reward=reward)


ROUND_CASES = [
    pytest.param("mabc", 100, mbdp, SolverConfig(max_trees=3, heuristics=("random",), seed=seed),
                 id=f"mabc-h100-mbdp-seed{seed}")
    for seed in range(3)
] + [
    pytest.param("boxpush", 10, improved_mbdp, SolverConfig(max_trees=3, max_obs=3, seed=0),
                 id="boxpush-h10-improved-seed0"),
    pytest.param("boxpush", 10, improved_mbdp, SolverConfig(max_trees=5, max_obs=3, seed=0),
                 id="boxpush-h10-improved-5x3-seed0"),
    # even max_trees: the last pick runs the random heuristic, pick 0 the MDP one
    pytest.param("boxpush", 10, improved_mbdp, SolverConfig(max_trees=4, max_obs=2, seed=0),
                 id="boxpush-h10-improved-4x2-seed0"),
    pytest.param("boxpush", 10, improved_mbdp, SolverConfig(max_trees=8, max_obs=1, seed=0),
                 id="boxpush-h10-improved-8x1-seed0"),
    pytest.param("boxpush", 4, mbdp, SolverConfig(max_trees=2, seed=0),
                 id="boxpush-h4-mbdp"),
    pytest.param("tiger", 8, improved_mbdp,
                 SolverConfig(max_trees=2, max_obs=1, seed=3, recursion_depth=2),
                 id="tiger-h8-improved-replay"),
    pytest.param("mabc", 12, mbdp,
                 SolverConfig(max_trees=3, heuristics=("random", "mdp"), seed=1, recursion_depth=1),
                 id="mabc-h12-mbdp-replay"),
    pytest.param("three-agent", 6, improved_mbdp, SolverConfig(max_trees=3, max_obs=1, seed=2),
                 id="three-agent-h6-improved"),
    pytest.param("three-agent", 5, mbdp, SolverConfig(max_trees=2, seed=4, recursion_depth=1),
                 id="three-agent-h5-mbdp-replay"),
    pytest.param("near-tie", 5, mbdp, SolverConfig(max_trees=2, seed=0), id="near-tie-h5-mbdp"),
]
BUILDERS = {
    "mabc": build_mabc,
    "boxpush": build_boxpush,
    "tiger": build_tiger,
    "three-agent": three_agent_model,
    "near-tie": near_tie_model,
}


@pytest.mark.parametrize("problem,horizon,solve,cfg", ROUND_CASES)
def test_rounds_match_reference_round(problem, horizon, solve, cfg):
    # pre-sampled beliefs, reused full tables and the picks' own rows give
    # the bits of a walk per level and pick, fresh tables and np.ix_ blocks
    model = BUILDERS[problem](horizon=horizon)
    report = solve(model, cfg)
    rounds = reference_rounds(model, replace(cfg, max_obs=None) if solve is mbdp else cfg)
    assert report.round_values == tuple(value for value, _ in rounds)
    value, policy = max(rounds, key=lambda r: r[0])
    assert report.value == value
    assert serialize_policy(model, report.policy) == serialize_policy(model, policy)


@pytest.mark.parametrize(
    "max_trees,max_obs,expected",
    [(4, 2, 193.53814492403345), (8, 1, 217.73922525455637), (3, 3, 192.13428923544802)],
)
def test_budgeted_levels_rank_at_pick_zero(max_trees, max_obs, expected):
    # under the default ("mdp", "random") portfolio pick 0 walks the MDP
    # heuristic; ranking at the last pick's walk instead gave 27.44 at
    # (4, 2) and 87.43 at (8, 1), where the last pick walks at random.
    # Subsets collected greedily along the joint-observation ranking, not
    # the best family, gave 194.81 at (4, 2).  Cloning a pick once the four
    # actions ran out gave 217.58 at (8, 1)
    model = build_boxpush(horizon=10)
    report = improved_mbdp(model, SolverConfig(max_trees=max_trees, max_obs=max_obs, seed=0))
    assert report.value == pytest.approx(expected, abs=1e-9)


def test_near_tie_goes_to_the_lowest_flat_index():
    model = near_tie_model(5)
    belief = model.initial_belief.probs
    # the later twin is the better one by a margin inside the tolerance
    er = model.expected_reward
    assert 0.0 < float(er[2] @ belief) - float(er[1] @ belief) < 1e-12
    report = mbdp(model, SolverConfig(max_trees=2, seed=0))
    (_, policy), = reference_rounds(model, SolverConfig(max_trees=2, seed=0))
    for joint in (report.policy, policy):
        assert tuple(tree.action for tree in joint.trees) == (0, 1)


@pytest.mark.parametrize(
    "model,solve,cfg",
    [
        (build_mabc(horizon=6), mbdp, SolverConfig(max_trees=3)),
        (build_tiger(horizon=5), improved_mbdp, SolverConfig(max_trees=3, max_obs=1)),
        (three_agent_model(4), improved_mbdp, SolverConfig(max_trees=2, max_obs=1)),
    ],
    ids=["mabc-full", "tiger-partial", "three-agent"],
)
def test_levels_count_the_tuples_they_score(model, solve, cfg):
    # level t scores every tuple of the tables backed up at level t - 1
    levels = solve(model, cfg).levels
    sizes = [model.action_counts] + [level.backup_sizes for level in levels[:-1]]
    assert [level.tuples_scored for level in levels] == [int(np.prod(s)) for s in sizes]


def test_full_backups_never_build_the_joint_tensor():
    # level 2 of full-backup box pushing has 972 trees per agent: its
    # joint value tensor alone takes 972 * 972 * 100 doubles, 721 MiB
    tracemalloc.start()
    try:
        report = mbdp(build_boxpush(horizon=3), SolverConfig(max_trees=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.levels[-1].tuples_scored == 972 * 972
    assert peak < 721 * 2**20 / 3


def test_wide_budgeted_levels_score_without_a_gather_plan():
    # box pushing h=10 at (5, 3) backs up 500 trees per agent: a gather
    # plan of 25 child rows per joint tuple plus its K score columns
    # peaked at 75 MiB; the five score columns alone take 10 MiB
    tracemalloc.start()
    try:
        improved_mbdp(build_boxpush(horizon=10), SolverConfig(max_trees=5, max_obs=3, seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 55 * 2**20


def test_partial_levels_report_the_mass_their_selection_captures(monkeypatch):
    calls = []

    def spy(model, belief, action, max_obs):
        selection = rank_observations(model, belief, action, max_obs)
        calls.append((belief, action, selection))
        return selection

    monkeypatch.setattr(solver_module, "rank_observations", spy)
    model = build_boxpush(horizon=10)
    levels = improved_mbdp(model, SolverConfig(max_trees=3, max_obs=3, seed=0)).levels
    assert len(calls) == len(levels) == 9
    masses = []
    for level, (belief, action, selection) in zip(levels, calls):
        probs = model.observation_probabilities(belief, action)
        kept = itertools.product(*selection.per_agent)
        want = sum(float(probs[model.joint_observation_index(obs)]) for obs in kept)
        assert level.captured_mass == pytest.approx(want, abs=1e-12)
        masses.append(level.captured_mass)
    # three of five observations per agent lose mass at some level
    assert min(masses) < 1.0 - 1e-6
    full = mbdp(build_boxpush(horizon=3), SolverConfig(max_trees=2))
    assert [level.captured_mass for level in full.levels] == [None, None]
