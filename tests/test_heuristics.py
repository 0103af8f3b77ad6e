from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mbdp.heuristics
from mbdp import (
    BeliefTrajectory,
    ConfigError,
    ModelError,
    MdpHeuristic,
    PolicyReplayHeuristic,
    RandomHeuristic,
    build_mabc,
    build_portfolio,
    build_tiger,
    exact_solve,
    generate_belief,
    improved_mbdp,
    mbdp as mbdp_solve,
    solve_underlying_mdp,
    SolverConfig,
)
from mbdp.heuristics import selection_beliefs

import _reference as ref
from conftest import dusty_model, random_model, traced_peak_mb


class TestUnderlyingMdp:
    def test_self_loop_chain_accumulates_reward(self):
        model = random_model(0, num_states=2, action_counts=(1, 1), obs_counts=(1, 1), horizon=3)
        transition = np.zeros((1, 2, 2))
        transition[0, 0, 0] = 1.0
        transition[0, 1, 1] = 1.0
        reward = np.zeros((1, 2, 2))
        reward[0, 0, 0] = 1.0
        model = type(model)(
            states=model.states,
            actions=model.actions,
            observations=model.observations,
            transition=transition,
            observation=model.observation,
            reward=reward,
            initial_belief=np.array([1.0, 0.0]),
            horizon=3,
        )
        values, greedy = solve_underlying_mdp(model)
        assert values[3][0] == pytest.approx(3.0)
        assert values[3][1] == pytest.approx(0.0)
        assert greedy[1][0] == 0

    def test_two_branch_choice(self):
        # from s0: action (0,0) pays 2 then 1.5 per step, action (1,0)
        # pays 1 then 3 per step; two steps favor the second branch
        model = random_model(1, num_states=3, action_counts=(2, 1), obs_counts=(1, 1), horizon=2)
        transition = np.zeros((2, 3, 3))
        transition[:, 1, 1] = 1.0
        transition[:, 2, 2] = 1.0
        transition[0, 0, 1] = 1.0
        transition[1, 0, 2] = 1.0
        reward = np.zeros((2, 3, 3))
        reward[0, 0, 1] = 2.0
        reward[1, 0, 2] = 1.0
        reward[:, 1, 1] = 1.5
        reward[:, 2, 2] = 3.0
        model = type(model)(
            states=model.states,
            actions=model.actions,
            observations=model.observations,
            transition=transition,
            observation=model.observation,
            reward=reward,
            initial_belief=np.array([1.0, 0.0, 0.0]),
            horizon=2,
        )
        values, greedy = solve_underlying_mdp(model)
        assert values[1][0] == pytest.approx(2.0)
        assert values[2][0] == pytest.approx(4.0)
        assert greedy[2][0] == 1

    @given(seed=st.integers(0, 5_000), steps=st.integers(1, 4))
    @settings(max_examples=25)
    def test_matches_reference_value_iteration(self, seed, steps):
        model = random_model(seed, horizon=steps)
        values, _ = solve_underlying_mdp(model)
        want = ref.value_iteration(model.transition, model.reward, steps)
        for k in range(steps + 1):
            np.testing.assert_allclose(values[k], want[k], atol=1e-10)

    @given(seed=st.integers(0, 3_000))
    @settings(max_examples=10)
    def test_centralized_value_upper_bounds_exact(self, seed):
        model = random_model(seed, num_states=2, horizon=2)
        values, _ = solve_underlying_mdp(model)
        upper = float(model.initial_belief.probs @ values[model.horizon])
        assert upper >= exact_solve(model).value - 1e-9


class TestTrajectories:
    def test_lengths_and_simplex(self, mabc):
        rng = np.random.default_rng(0)
        heuristic = RandomHeuristic(mabc)
        traj = generate_belief(heuristic, mabc, depth=2, rng=rng)
        assert len(traj.actions) == 2
        assert traj.probs.shape == (3, mabc.num_states)
        np.testing.assert_allclose(traj.probs.sum(axis=1), 1.0, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("negative", [0.0, -1e-12], ids=["plain", "dust"])
    def test_marginal_rows_match_propagate_chain(self, negative):
        model = dusty_model(negative)
        for heuristic in build_portfolio(model, ("mdp", "random")):
            traj = generate_belief(heuristic, model, 5, np.random.default_rng(2))
            belief = model.initial_belief
            rows = [belief.probs]
            for action in traj.actions:
                belief = model.propagate(belief, action)
                rows.append(belief.probs)
            assert np.array_equal(traj.probs, np.array(rows))

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[0.5, 0.5], [0.7, 0.7]], "belief sums to 1.4, not 1"),
            ([[0.5, 0.5], [np.nan, 1.0]], "belief sums to nan, not 1"),
            ([[0.5, 0.5], [1.5, -0.5]], "belief has a negative entry: -0.5"),
        ],
    )
    def test_bad_rows_rejected(self, rows, message):
        # messages print plain floats, not numpy scalars
        with pytest.raises(ModelError) as info:
            BeliefTrajectory(np.array(rows), (0,))
        assert str(info.value) == message

    def test_mdp_heuristic_is_deterministic_in_actions(self, mabc):
        heuristic = MdpHeuristic(mabc)
        t1 = generate_belief(heuristic, mabc, 2, np.random.default_rng(0))
        t2 = generate_belief(heuristic, mabc, 2, np.random.default_rng(99))
        assert t1.actions == t2.actions

    def test_random_heuristic_covers_action_space(self, mabc):
        heuristic = RandomHeuristic(mabc)
        seen = set()
        for seed in range(40):
            traj = generate_belief(heuristic, mabc, 1, np.random.default_rng(seed))
            seen.add(traj.actions[0])
        assert len(seen) > 1

    def test_replay_follows_policy_root(self, tiger):
        report = improved_mbdp(tiger, SolverConfig(max_trees=2, seed=0))
        heuristic = PolicyReplayHeuristic(tiger, report.policy)
        traj = generate_belief(heuristic, tiger, 1, np.random.default_rng(0))
        want = tuple(t.action for t in report.policy.trees)
        assert traj.actions[0] == tiger.joint_action_index(want)

    def test_replay_survives_beyond_policy_depth(self, tiger):
        report = improved_mbdp(tiger, SolverConfig(max_trees=2, seed=0))
        heuristic = PolicyReplayHeuristic(tiger, report.policy)
        traj = generate_belief(heuristic, tiger, 5, np.random.default_rng(1))
        assert len(traj.actions) == 5


def assert_selection_matches_generate_belief(model, portfolio, max_trees, seed):
    """Every (level, pick) row of ``selection_beliefs`` against ``generate_belief``."""
    rng = np.random.default_rng(seed)
    b_sel, b_prev, a_prev = selection_beliefs(portfolio, model, max_trees, rng)
    want_rng = np.random.default_rng(seed)
    assert b_sel.shape == (model.horizon - 1, max_trees, model.num_states)
    for t in range(1, model.horizon):
        for k in range(max_trees):
            heuristic = portfolio[k % len(portfolio)]
            traj = generate_belief(heuristic, model, model.horizon - t, want_rng)
            assert np.array_equal(b_sel[t - 1, k], traj.probs[-1])
            assert np.array_equal(b_prev[t - 1, k], traj.probs[-2])
            assert a_prev[t - 1, k] == traj.actions[-1]
    # the same stream: both generators end in the same state
    assert rng.bit_generator.state == want_rng.bit_generator.state


def replay_portfolio(model):
    policy = improved_mbdp(replace(model, horizon=3), SolverConfig(max_trees=2, seed=1)).policy
    return [*build_portfolio(model, ("mdp", "random")), PolicyReplayHeuristic(model, policy)]


class TestSelectionBeliefs:
    @pytest.mark.parametrize("agents", [2, 3])
    @pytest.mark.parametrize("names", [("random",), ("mdp", "random")])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rows_match_generate_belief(self, names, agents, seed):
        shape = {2: ((2, 3), (3, 2)), 3: ((2, 2, 2), (2, 2, 1))}[agents]
        model = random_model(
            seed, num_states=7, action_counts=shape[0], obs_counts=shape[1], horizon=25
        )
        assert_selection_matches_generate_belief(model, build_portfolio(model, names), 3, seed)

    @pytest.mark.parametrize("action_counts", [(17, 16), (300, 1)])
    def test_wide_joint_actions_match_generate_belief(self, action_counts):
        # more than 255 joint actions: the drawn actions are held as uint16
        model = random_model(2, num_states=4, action_counts=action_counts, horizon=12)
        assert model.num_joint_actions > 255
        assert_selection_matches_generate_belief(model, build_portfolio(model, ("random", "mdp")), 3, 1)

    @pytest.mark.parametrize("model_name", ["tiger", "random"])
    def test_replay_portfolio_matches_generate_belief(self, model_name):
        # the replay heuristic samples observations from the same
        # generator, between the random heuristic's draws
        model = build_tiger(horizon=7) if model_name == "tiger" else random_model(3, horizon=7)
        assert_selection_matches_generate_belief(model, replay_portfolio(model), 5, 4)

    @pytest.mark.parametrize("negative", [0.0, -1e-12], ids=["plain", "dust"])
    def test_dust_rows_match_generate_belief(self, negative):
        model = dusty_model(negative, horizon=9)
        assert_selection_matches_generate_belief(
            model, build_portfolio(model, ("mdp", "random")), 4, 2
        )

    @pytest.mark.parametrize("joint_actions", [4, 9], ids=["mabc", "tiger"])
    @pytest.mark.parametrize("cells", [5, 64])
    @pytest.mark.parametrize("chunk", [1, 7, 40])
    def test_chunked_walks_match_generate_belief(self, monkeypatch, chunk, cells, joint_actions):
        # blocks of drawn actions smaller than one trajectory, than one
        # level, and than a round; generator calls of one trajectory and
        # of a few; products of at most 3 rows at a time.  Tiger's 9 joint
        # actions are drawn by rejection, which must not see the boundaries
        monkeypatch.setattr(mbdp.heuristics, "_ACTION_CHUNK", chunk)
        monkeypatch.setattr(mbdp.heuristics, "_DRAW_CELLS", cells)
        model = build_mabc(horizon=12) if joint_actions == 4 else build_tiger(horizon=12)
        assert model.num_joint_actions == joint_actions
        monkeypatch.setattr(mbdp.heuristics, "_STEP_FLOATS", 3 * model.num_states**2)
        assert_selection_matches_generate_belief(
            model, build_portfolio(model, ("random", "mdp")), 3, 5
        )
        # replay picks draw between the random picks' runs
        assert_selection_matches_generate_belief(model, replay_portfolio(model), 4, 6)

    def test_long_round_keeps_its_draws_bounded(self):
        # a round at h=2,000 draws 6 million random actions, 48 MB as one
        # int64 array; blocks and bounded generator calls keep the traced
        # peak near 15 MB
        model = build_mabc(horizon=2_000)
        portfolio = build_portfolio(model, ("random",))
        peak = traced_peak_mb(lambda: selection_beliefs(portfolio, model, 3, np.random.default_rng(0)))
        assert peak < 24

    def test_bad_rows_rejected_like_trajectories(self):
        model = random_model(9, num_states=3, horizon=4)
        transition = model.transition.copy()
        transition[:, :, 0] += 0.1
        model = replace(model, transition=transition)
        portfolio = build_portfolio(model, ("random",))
        with pytest.raises(ModelError):
            generate_belief(portfolio[0], model, 3, np.random.default_rng(0))
        with pytest.raises(ModelError):
            selection_beliefs(portfolio, model, 2, np.random.default_rng(0))

    @pytest.mark.parametrize("chunk", [None, 5_000])
    def test_round_steps_linearly_in_horizon(self, monkeypatch, chunk):
        # one planner round makes at most `horizon` batched steps per chunk
        # of drawn actions; a walk per level and pick would make
        # max_trees * horizon^2 / 2 of them
        if chunk is not None:
            monkeypatch.setattr(mbdp.heuristics, "_ACTION_CHUNK", chunk)
        counts = {"walks": 0, "steps": 0}
        walk_batch, step = mbdp.heuristics._walk_batch, mbdp.heuristics._step

        def counted_walk(*args):
            counts["walks"] += 1
            return walk_batch(*args)

        def counted_step(*args):
            counts["steps"] += 1
            return step(*args)

        monkeypatch.setattr(mbdp.heuristics, "_walk_batch", counted_walk)
        monkeypatch.setattr(mbdp.heuristics, "_step", counted_step)
        horizon = 200
        mbdp_solve(build_mabc(horizon=horizon), SolverConfig(max_trees=3, heuristics=("random",)))
        # 3 * (1 + ... + 199) = 59,700 drawn actions, one chunk by default
        if chunk is None:
            assert counts["walks"] == 1
        else:
            # a chunk closes early only when the next trajectory does not fit
            assert 59_700 / chunk <= counts["walks"] <= 59_700 / (chunk - horizon) + 1
        assert 0 < counts["steps"] <= horizon * counts["walks"]


class TestPortfolio:
    def test_known_names(self, tiger):
        portfolio = build_portfolio(tiger, ("mdp", "random"))
        assert [h.name for h in portfolio] == ["mdp", "random"]

    def test_unknown_name_rejected(self, tiger):
        with pytest.raises(ConfigError):
            build_portfolio(tiger, ("mdp", "annealing"))

    def test_recursion_keeps_best_round(self):
        model = random_model(21, num_states=3, horizon=4)
        report = improved_mbdp(model, SolverConfig(max_trees=2, seed=3, recursion_depth=2))
        assert len(report.round_values) == 3
        assert report.value == pytest.approx(max(report.round_values))

    def test_recursion_never_hurts_shared_seed(self):
        model = random_model(22, num_states=3, horizon=4)
        base = improved_mbdp(model, SolverConfig(max_trees=2, seed=5))
        deep = improved_mbdp(model, SolverConfig(max_trees=2, seed=5, recursion_depth=1))
        assert deep.value >= base.value - 1e-12
