import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mbdp import (
    CapacityError,
    ConfigError,
    DecPomdp,
    PROB_TOL,
    build_boxpush,
    build_mabc,
    build_tiger,
    epsilon_at,
    epsilon_global,
    error_bound,
)

import mbdp.analysis
from mbdp.cli import main, problem_to_text
from _reference import (
    belief_keys_array_reference,
    epsilon_global_array_reference,
    epsilon_global_reference,
)
from conftest import random_model, traced_peak_mb

REPO = Path(__file__).resolve().parents[1]


def obs_table_model(joint_probs, rewards=(0.0,)):
    probs = np.asarray(joint_probs, dtype=float).reshape(1, 1, 4)
    r = np.zeros((1, 1, 1))
    r[0, 0, 0] = rewards[0]
    return DecPomdp(
        states=("only",),
        actions=(("go",), ("go",)),
        observations=(("x0", "x1"), ("y0", "y1")),
        transition=np.ones((1, 1, 1)),
        observation=probs,
        reward=r,
        initial_belief=np.array([1.0]),
        horizon=3,
    )


def with_observation(model, observation, transition=None):
    return DecPomdp(
        states=model.states,
        actions=model.actions,
        observations=model.observations,
        transition=model.transition if transition is None else transition,
        observation=observation,
        reward=model.reward,
        initial_belief=model.initial_belief.probs,
        horizon=model.horizon,
    )


def sparse_observation_model(seed):
    """Joint observations that never occur, occur only from some states, or sit on PROB_TOL."""
    model = random_model(seed, num_states=4, action_counts=(2, 2), obs_counts=(2, 3), horizon=4)
    obs = np.array(model.observation)
    obs[:, :, 1] = 0.0
    obs[1, :2, 4] = 0.0
    obs[0, :, 5] = 0.0
    obs /= obs.sum(axis=2, keepdims=True)
    obs[0, :, 5] = PROB_TOL
    obs[0, :, 0] -= PROB_TOL
    return with_observation(model, obs)


def echo_model(seed):
    """Joint actions 0 and 1 act alike and agent 1 observes noise, so distinct histories meet."""
    model = random_model(seed, num_states=3, action_counts=(2, 2), obs_counts=(2, 2), horizon=4)
    trans = np.array(model.transition)
    trans[1] = trans[0]
    obs = np.array(model.observation).reshape(4, 3, 2, 2)
    obs[1] = obs[0]
    obs[:] = obs.sum(axis=3, keepdims=True) / 2
    return with_observation(model, obs.reshape(4, 3, 4), transition=trans)


def tie_model():
    """Point-mass beliefs whose lowest capture recurs across blocks and joint actions.

    Joint action ja moves state s to s + ja + 1 (mod 8) for sure, so every
    belief is a point mass and equal captures are equal bits.  Arriving
    at state s by ja flattens the observations (best cell 0.4, not 0.85)
    for the (s, ja) pairs listed below.  At depth 1 (rows s1, s2, s3, s4)
    the lowest capture, 0.4, occurs at (ja 1, row 3), (ja 2, row 1),
    (ja 3, row 0) and (ja 3, row 2): in two 2-row blocks and three joint
    actions, and first in the later block.
    """
    num_s, num_ja = 8, 4
    transition = np.zeros((num_ja, num_s, num_s))
    for ja in range(num_ja):
        transition[ja, np.arange(num_s), (np.arange(num_s) + ja + 1) % num_s] = 1.0
    observation = np.tile([0.85, 0.05, 0.05, 0.05], (num_ja, num_s, 1))
    for s, ja in [(5, 2), (6, 1), (7, 1), (7, 3), (5, 3)]:
        observation[ja, s] = [0.1, 0.2, 0.3, 0.4]
    return DecPomdp(
        states=tuple(f"s{i}" for i in range(num_s)),
        actions=(("a0", "a1"), ("b0", "b1")),
        observations=(("x0", "x1"), ("y0", "y1")),
        transition=transition,
        observation=observation,
        reward=np.zeros((num_ja, num_s, num_s)),
        initial_belief=np.eye(num_s)[0],
        horizon=3,
    )


def one_state_model(horizon):
    """One state, so every child is the initial belief again."""
    return replace(obs_table_model([0.25] * 4), horizon=horizon)


def seen_state_model(horizon):
    """Agent 0 sees a state that never changes, so depth 2 reaches no new belief."""
    return DecPomdp(
        states=("a", "b"),
        actions=(("go",), ("go",)),
        observations=(("x0", "x1"), ("y0",)),
        transition=np.eye(2)[None],
        observation=np.eye(2)[None],
        reward=np.zeros((1, 2, 2)),
        initial_belief=np.array([0.5, 0.5]),
        horizon=horizon,
    )


def half_model(seed, horizon=4):
    """Eight states in two halves, with stochastic observations; beliefs start in one half.

    Joint action 0 mixes each state within its half, 1 sends every
    state to state 0, 2 jumps to a state of the other half and 3 splits
    each state between two of its half.  So many blocks hold mass on
    exactly half the states, and under joint action 1 every block
    reaches one state.
    """
    rng = np.random.default_rng(seed)
    num_s = 8
    transition = np.zeros((4, num_s, num_s))
    for s in range(num_s):
        half = 4 * (s // 4)
        transition[0, s, half : half + 4] = rng.dirichlet(np.ones(4))
        transition[1, s, 0] = 1.0
        transition[2, s, (half + 4) % num_s + rng.integers(4)] = 1.0
        transition[3, s, half + rng.choice(4, 2, replace=False)] = rng.dirichlet(np.ones(2))
    start = np.zeros(num_s)
    start[:4] = rng.dirichlet(np.ones(4))
    return DecPomdp(
        states=tuple(f"s{i}" for i in range(num_s)),
        actions=(("a0", "a1"), ("b0", "b1")),
        observations=(("x0", "x1"), ("y0", "y1")),
        transition=transition,
        observation=rng.dirichlet(np.ones(4), size=(4, num_s)),
        reward=np.zeros((4, num_s, num_s)),
        initial_belief=start,
        horizon=horizon,
    )


def spy_block_products(monkeypatch):
    """(depth rows, support, transition, reach) of each ``_block_products`` call with a support."""
    products = mbdp.analysis._block_products
    calls = []

    def spy(block, transition, observation, support=None):
        post, q, reach = products(block, transition, observation, support)
        if support is not None:  # a block of one joint action, a view of its depth's rows
            calls.append((block.base, support, transition[0], reach))
        return post, q, reach

    monkeypatch.setattr(mbdp.analysis, "_block_products", spy)
    return calls


def spy_depth_units(monkeypatch):
    """(rows, joint-action ranges) of each depth's blocks."""
    depth_units = mbdp.analysis._depth_units
    calls = []

    def spy(rows, size, group, num_ja):
        units = depth_units(rows, size, group, num_ja)
        calls.append((len(rows), [ja_range for ja_range, *_ in units]))
        return units

    monkeypatch.setattr(mbdp.analysis, "_depth_units", spy)
    return calls


def force_block_rows(monkeypatch, model, rows):
    """Make every depth of ``model`` go in blocks of ``rows`` rows."""
    floats = rows * model.num_joint_observations * len(model.states)
    monkeypatch.setattr(mbdp.analysis, "_BLOCK_FLOATS", floats)


def branch_count(model, horizon):
    """Beliefs an enumeration without deduplication or filtering would visit."""
    fan = model.num_joint_actions * model.num_joint_observations
    return sum(fan**d for d in range(horizon))


def reachable_beliefs(model, horizon):
    """All conditioned beliefs after 0..horizon-1 steps, deduplicated."""
    frontier = [model.initial_belief]
    seen = {tuple(np.round(model.initial_belief.probs, 10))}
    out = [model.initial_belief]
    for _ in range(horizon - 1):
        nxt = []
        for b in frontier:
            for ja in range(model.num_joint_actions):
                probs = model.observation_probabilities(b, ja)
                for jo in range(model.num_joint_observations):
                    if probs[jo] <= PROB_TOL:
                        continue
                    post = model.bayes_update(b, ja, jo)
                    key = tuple(np.round(post.probs, 10))
                    if key not in seen:
                        seen.add(key)
                        nxt.append(post)
                        out.append(post)
        frontier = nxt
    return out


class TestEpsilonAt:
    def test_hand_example(self):
        model = obs_table_model([0.4, 0.1, 0.2, 0.3])
        assert epsilon_at(model, model.initial_belief, 0, 1) == pytest.approx(0.4)

    def test_pairing_is_joint_not_marginal(self):
        # marginally best components x0 (0.60) and y1 (0.65) only capture
        # 0.25 together; the best joint cell is (x1, y1) with 0.40
        model = obs_table_model([0.35, 0.25, 0.0, 0.4])
        assert epsilon_at(model, model.initial_belief, 0, 1) == pytest.approx(0.4)

    @pytest.mark.parametrize("bad", [1.5, True, 0])
    def test_rejects_bad_max_obs(self, bad):
        model = obs_table_model([0.4, 0.1, 0.2, 0.3])
        with pytest.raises(ConfigError, match="max_obs must be an integer >= 1"):
            epsilon_at(model, model.initial_belief, 0, bad)

    @given(seed=st.integers(0, 5_000), action=st.integers(0, 3))
    @settings(max_examples=30)
    def test_monotone_in_budget(self, seed, action):
        model = random_model(seed, obs_counts=(3, 2))
        b = model.initial_belief
        values = [epsilon_at(model, b, action, k) for k in (1, 2, 3)]
        assert values[0] <= values[1] + 1e-12
        assert values[1] <= values[2] + 1e-12

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=20)
    def test_full_budget_captures_everything(self, seed):
        model = random_model(seed, obs_counts=(3, 2))
        got = epsilon_at(model, model.initial_belief, 1, 3)
        assert got == pytest.approx(1.0, abs=1e-9)


class TestEpsilonGlobal:
    def test_single_step_reduces_to_initial_belief(self):
        model = random_model(5, horizon=1)
        rep = epsilon_global(model, max_obs=1)
        want = min(
            epsilon_at(model, model.initial_belief, ja, 1)
            for ja in range(model.num_joint_actions)
        )
        assert rep.epsilon == pytest.approx(want, abs=1e-12)
        assert rep.beliefs_checked == 1
        assert rep.mode == "exact"

    def test_matches_flat_enumeration_on_mabc(self):
        model = build_mabc(horizon=3)
        rep = epsilon_global(model, max_obs=1)
        want = min(
            epsilon_at(model, b, ja, 1)
            for b in reachable_beliefs(model, 3)
            for ja in range(model.num_joint_actions)
        )
        assert rep.epsilon == pytest.approx(want, abs=1e-10)

    def test_witness_reproduces_epsilon(self):
        from mbdp import BeliefState

        model = build_mabc(horizon=3)
        rep = epsilon_global(model, max_obs=1)
        b = BeliefState(np.asarray(rep.witness.belief))
        again = epsilon_at(model, b, rep.witness.action, 1)
        assert again == pytest.approx(rep.epsilon, abs=1e-12)

    def test_full_budget_is_one(self):
        model = build_mabc(horizon=3)
        assert epsilon_global(model, max_obs=2).epsilon == pytest.approx(1.0, abs=1e-12)

    def test_sampled_never_below_exact(self):
        model = build_mabc(horizon=4)
        exact = epsilon_global(model, max_obs=1).epsilon
        sampled = epsilon_global(model, max_obs=1, mode="sampled", budget=64, seed=1)
        assert sampled.mode == "sampled"
        assert sampled.epsilon >= exact - 1e-10

    def test_belief_cap(self):
        model = build_mabc(horizon=4)
        with pytest.raises(CapacityError):
            epsilon_global(model, max_obs=1, max_beliefs=2)

    def test_cap_raises_before_the_next_depth_is_built(self):
        # depths 0-6 hold 2,736 distinct beliefs and all eight 9,518, so
        # the cap trips 1,464 rows into depth 7; building all of the
        # depth before the check peaked at 65.8 MB, raising in it near 13 MB
        model = build_boxpush(horizon=8)

        def call():
            with pytest.raises(CapacityError, match="more than 4200 beliefs"):
                epsilon_global(model, 3, max_beliefs=4_200)

        assert traced_peak_mb(call) < 25

    @pytest.mark.parametrize(
        "model, max_obs",
        [(build_mabc(horizon=4), 1), (build_tiger(horizon=4), 1), (build_boxpush(horizon=3), 2)],
        ids=["mabc-h4", "tiger-h4", "boxpush-h3"],
    )
    def test_cap_counts_distinct_beliefs(self, model, max_obs):
        full = epsilon_global(model, max_obs)
        n = full.beliefs_checked
        assert epsilon_global(model, max_obs, max_beliefs=n) == full
        with pytest.raises(CapacityError):
            epsilon_global(model, max_obs, max_beliefs=n - 1)

    @pytest.mark.parametrize("horizon", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "build, epsilon, checked",
        [(one_state_model, 0.25, 1), (seen_state_model, 0.5, 3)],
        ids=["one-state", "seen-state"],
    )
    def test_stops_at_a_depth_with_no_new_belief(self, build, epsilon, checked, horizon):
        # these scored an empty depth after the one that kept nothing
        model = build(horizon)
        got = epsilon_global(model, 1)
        assert got == epsilon_global_reference(model, 1)
        assert got == epsilon_global_array_reference(model, 1)
        assert (got.epsilon, got.beliefs_checked) == (epsilon, 1 if horizon == 1 else checked)

    def test_bound_command_on_a_problem_that_stops_early(self, capsys, tmp_path):
        path = tmp_path / "seen.problem"
        path.write_text(problem_to_text(seen_state_model(4)))
        code = main(["bound", "--problem", str(path), "--max-obs", "1", "--format", "records"])
        out = capsys.readouterr().out
        assert code == 0
        rec = next(r for r in map(json.loads, out.splitlines()) if r["type"] == "bound")
        assert (rec["epsilon"], rec["beliefs_checked"]) == (0.5, 3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "sampled", "budget": 0},
            {"mode": "sampled", "budget": -4},
            {"mode": "sampled", "seed": -1},
            {"mode": "sampled", "seed": None},
            {"max_beliefs": 0},
            {"max_beliefs": -1},
            {"max_beliefs": 100.5},
            {"max_beliefs": True},
            {"mode": "sampled", "budget": True},
            {"mode": "sampled", "budget": 2.5},
            {"max_obs": 0},
            {"max_obs": 1.5},
            {"max_obs": True},
            {"mode": "grid"},
        ],
    )
    def test_rejects_bad_input(self, kwargs):
        kwargs = {"max_obs": 1, **kwargs}
        with pytest.raises(ConfigError):
            epsilon_global(build_mabc(horizon=3), **kwargs)


def parity_cases():
    cases = []
    for seed in range(4):
        three = random_model(seed, action_counts=(2, 2, 2), obs_counts=(2, 2, 2))
        wide = random_model(seed, num_states=4, action_counts=(2, 3), obs_counts=(3, 2))
        cases += [
            pytest.param(random_model(seed, horizon=4), 1, id=f"random-{seed}"),
            pytest.param(wide, 2, id=f"random-3x2-{seed}"),
            pytest.param(echo_model(seed), 1, id=f"echo-{seed}"),
        ]
        for k in (1, 2):
            cases.append(pytest.param(three, k, id=f"three-agent-{seed}-k{k}"))
            cases.append(pytest.param(sparse_observation_model(seed), k, id=f"sparse-{seed}-k{k}"))
    cases.append(pytest.param(build_tiger(horizon=4), 1, id="tiger-h4"))
    cases.append(pytest.param(one_state_model(3), 1, id="one-state-h3"))
    cases.append(pytest.param(seen_state_model(4), 1, id="seen-state-h4"))
    for k in (1, 2, 3):
        cases.append(pytest.param(build_mabc(horizon=5), k, id=f"mabc-h5-k{k}"))
        cases.append(pytest.param(build_boxpush(horizon=4), k, id=f"boxpush-h4-k{k}"))
    return cases


def belief_set_cases():
    cases = parity_cases()
    for k in (1, 2, 3):
        cases.append(pytest.param(build_boxpush(horizon=6), k, id=f"boxpush-h6-k{k}"))
    cases.append(pytest.param(build_tiger(horizon=5), 1, id="tiger-h5"))
    cases.append(pytest.param(build_mabc(horizon=6), 1, id="mabc-h6-k1"))
    return cases


class TestExactParity:
    """The array enumeration reproduces the one-belief-at-a-time reference bit for bit."""

    @pytest.mark.parametrize("model, max_obs", parity_cases())
    def test_matches_reference(self, model, max_obs):
        got = epsilon_global(model, max_obs)
        want = epsilon_global_reference(model, max_obs)
        assert got.epsilon == want.epsilon
        assert got == want

    @pytest.mark.parametrize("rows", [2, 3])
    @pytest.mark.parametrize("model, max_obs", parity_cases())
    def test_matches_reference_in_small_blocks(self, monkeypatch, model, max_obs, rows):
        force_block_rows(monkeypatch, model, rows)
        assert epsilon_global(model, max_obs) == epsilon_global_reference(model, max_obs)

    @pytest.mark.parametrize(
        "model, max_obs, epsilon, checked",
        [
            (build_boxpush(horizon=8), 3, 0.9810000000000001, 9_518),
            (build_mabc(horizon=6), 1, 0.41002889410228527, 67_313),
        ],
        ids=["boxpush-h8-k3", "mabc-h6-k1"],
    )
    def test_matches_array_reference(self, model, max_obs, epsilon, checked):
        got = epsilon_global(model, max_obs)
        assert got == epsilon_global_array_reference(model, max_obs)
        assert (got.epsilon, got.beliefs_checked) == (epsilon, checked)

    @pytest.mark.parametrize("rows", [2, 3, None])
    def test_first_minimum_wins_across_blocks(self, monkeypatch, rows):
        model = tie_model()
        if rows is not None:
            force_block_rows(monkeypatch, model, rows)
        got = epsilon_global(model, 1)
        assert got == epsilon_global_reference(model, 1)
        assert (got.epsilon, got.beliefs_checked) == (0.4, 8)
        assert got.witness.history == ((3, 0),)
        assert got.witness.action == 1
        assert got.witness.belief == tuple(np.eye(8)[4])

    @pytest.mark.parametrize("group", [1, 2, 3])
    def test_first_minimum_wins_across_joint_action_groups(self, monkeypatch, group):
        # depth 1's 4 rows go in groups of `group` joint actions; the 0.4
        # at (ja 1, row 3) comes first, (ja 2, row 1) ties it in a later
        # group or later in the same group
        model = tie_model()
        force_block_rows(monkeypatch, model, 4 * group + (group == 1))
        units = spy_depth_units(monkeypatch)
        got = epsilon_global(model, 1)
        assert got == epsilon_global_reference(model, 1)
        assert (got.epsilon, got.beliefs_checked) == (0.4, 8)
        assert got.witness.history == ((3, 0),)
        assert got.witness.action == 1
        assert units[1] == (4, [(a, min(a + group, 4)) for a in range(0, 4, group)])

    @pytest.mark.parametrize("group", [1, 2, 3])
    @pytest.mark.parametrize("model, max_obs", parity_cases())
    def test_joint_action_groups_match_reference(self, monkeypatch, model, max_obs, group):
        # blocks of group * n rows put depth 1's n rows in groups of
        # `group` joint actions (n + 1 rows for groups of one)
        n = epsilon_global(replace(model, horizon=2), max_obs).beliefs_checked - 1
        force_block_rows(monkeypatch, model, group * n + (group == 1))
        units = spy_depth_units(monkeypatch)
        assert epsilon_global(model, max_obs) == epsilon_global_reference(model, max_obs)
        if n > 1 and model.num_joint_actions > group:
            assert (n, [(a, min(a + group, model.num_joint_actions))
                        for a in range(0, model.num_joint_actions, group)]) in units

    @pytest.mark.parametrize("max_obs", [2, 3])
    @pytest.mark.parametrize(
        "action_counts, obs_counts", [((3, 3), (4, 4)), ((2, 3), (5, 3))], ids=["3x3-4x4", "2x3-5x3"]
    )
    def test_one_row_depth_keeps_lone_row_sums(self, action_counts, obs_counts, max_obs):
        # b0's joint actions are scored in one block, each as a lone row:
        # numpy sums 8 or more kept observations of a lone row pairwise,
        # of a row among others term by term; scored so, 29 of the 120
        # max_obs 3 reports here moved (none at max_obs 2, 4 kept)
        for seed in range(60):
            model = random_model(
                seed, horizon=1, num_states=5, action_counts=action_counts, obs_counts=obs_counts
            )
            assert epsilon_global(model, max_obs) == epsilon_global_reference(model, max_obs), seed

    def test_depths_with_many_pairs_go_one_joint_action_at_a_time(self, monkeypatch):
        # the broadcast channel's blocks hold 32,768 rows, but a group holds
        # at most 4,096 (row, joint observation) pairs: depth 3's 400 rows
        # go two joint actions at a time, depth 4's 4,960 one at a time
        units = spy_depth_units(monkeypatch)
        epsilon_global(build_mabc(horizon=5), 1)
        assert units == [
            (1, [(0, 4)]), (4, [(0, 4)]), (36, [(0, 4)]), (400, [(0, 2), (2, 4)]),
            (4960, [(0, 1), (1, 2), (2, 3), (3, 4)]),
        ]

    @pytest.mark.parametrize("rows", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_blocks_that_reach_one_state_keep_the_dense_products(self, monkeypatch, seed, rows):
        # a one-column product would go to gemv, which can round differently
        model = half_model(seed)
        force_block_rows(monkeypatch, model, rows)
        calls = spy_block_products(monkeypatch)
        assert epsilon_global(model, 1) == epsilon_global_array_reference(model, 1)
        one = [reach for _, support, transition, reach in calls
               if np.count_nonzero(transition[support].any(axis=0)) == 1]
        assert one and all(reach is None for reach in one)

    @pytest.mark.parametrize("rows", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_blocks_on_half_the_states_are_narrowed(self, monkeypatch, seed, rows):
        from mbdp.analysis import _block_support

        model = half_model(seed)
        force_block_rows(monkeypatch, model, rows)
        calls = spy_block_products(monkeypatch)
        assert epsilon_global(model, 1) == epsilon_global_array_reference(model, 1)
        assert any(len(support) == 4 and reach is not None for _, support, _, reach in calls)
        rows_on = np.eye(8)[[0, 1, 2, 3]]
        assert _block_support(rows_on).tolist() == [0, 1, 2, 3]
        assert _block_support(np.vstack([rows_on, np.eye(8)[4]])) is None

    @pytest.mark.parametrize("rows", [2, 3])
    def test_boxpush_blocks_of_one_depth_differ_in_support(self, monkeypatch, rows):
        model = build_boxpush(horizon=5)
        force_block_rows(monkeypatch, model, rows)
        calls = spy_block_products(monkeypatch)
        assert epsilon_global(model, 3) == epsilon_global_array_reference(model, 3)
        supports = {}  # per depth, the support sizes of its blocks
        for depth_rows, support, _, _ in calls:
            supports.setdefault(id(depth_rows), set()).add(len(support))
        assert any(len(sizes) > 1 for sizes in supports.values())
        assert any(reach is not None for *_, reach in calls)

    def test_working_set_is_bounded(self):
        # peaks at 19.1 MB, with or without an earlier call on box pushing
        # at max_obs 3, mostly the seen-set and the kept rows; dense
        # products in every block peaked at 19.2-19.3 MB, products over
        # the whole depth in one buffer reached 26 MB,
        # keeping the seen-set through the last depth 35 MB, a seen-set
        # per depth 30 MB, and whole-depth temporaries 66 MB
        model = build_boxpush(horizon=8)
        assert traced_peak_mb(lambda: epsilon_global(model, 3)) < 20

    @pytest.mark.parametrize("horizon", [1, 2])
    @pytest.mark.parametrize("build", [build_tiger, build_mabc, build_boxpush])
    def test_short_horizons_match_reference(self, build, horizon):
        # horizon 1 builds no children and horizon 2 frees the seen-set
        # after its first depth
        model = build(horizon=horizon)
        got = epsilon_global(model, 1)
        assert got == epsilon_global_reference(model, 1)
        assert got == epsilon_global_array_reference(model, 1)

    def test_each_belief_is_scored_at_its_shallowest_depth(self):
        # b0 comes back at depth 3 as a copy that differs in the last bits
        # and captures 0.24999999999999997; only b0 itself is scored
        model = build_tiger(horizon=4)
        got = epsilon_global(model, 1)
        assert got.epsilon == 0.25
        assert got.witness.history == ()
        assert got.witness.belief == tuple(model.initial_belief.probs.tolist())

    @pytest.mark.parametrize("model, max_obs", belief_set_cases())
    def test_one_seen_set_loses_no_belief(self, model, max_obs):
        once, keys = belief_keys_array_reference(model, max_obs, per_depth=False)
        again, per_depth_keys = belief_keys_array_reference(model, max_obs, per_depth=True)
        assert len(keys) == once.beliefs_checked <= again.beliefs_checked
        assert keys == per_depth_keys
        assert abs(once.epsilon - again.epsilon) <= 1e-15
        assert epsilon_global(model, max_obs) == once

    @pytest.mark.parametrize(
        "model, calls_made",
        [(build_tiger(horizon=3), 3), (build_mabc(horizon=3), 3), (build_boxpush(horizon=2), 3)],
        ids=["tiger-h3", "mabc-h3", "boxpush-h2"],
    )
    def test_short_depths_score_joint_actions_in_groups(self, monkeypatch, model, calls_made):
        # box pushing's groups hold at most 4,096 // 25 = 163 rows, so its
        # 15-row depth 1 goes 10 joint actions at a time, its 16 in two;
        # every other depth here in one group
        minimum = mbdp.analysis._block_minimum
        calls = []

        def counted(q, flat, best, hints=None, lone=False):
            calls.append((len(q), hints, lone))
            return minimum(q, flat, best, hints, lone)

        monkeypatch.setattr(mbdp.analysis, "_block_minimum", counted)
        report = epsilon_global(model, 1)
        assert len(calls) == calls_made
        assert sum(rows for rows, _, _ in calls) == report.beliefs_checked * model.num_joint_actions
        assert calls[0] == (model.num_joint_actions, None, True)  # b0's, as lone rows
        assert all(hints is None and not lone for _, hints, lone in calls[1:])

    @pytest.mark.parametrize("n, size", [(1, 2), (2, 2), (5, 2), (7, 3), (9, 4), (10, 3), (6, 3)])
    def test_row_blocks_cover_the_depth_without_one_row_blocks(self, n, size):
        from mbdp.analysis import _row_blocks

        spans = _row_blocks(n, size)
        assert spans[0][0] == 0 and spans[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        sizes = [hi - lo for lo, hi in spans]
        assert all(rows == size for rows in sizes[:-1])
        assert 1 < sizes[-1] <= size + 1 or sizes == [1]

    @pytest.mark.parametrize(
        "build, n",
        [(build_boxpush, 418), (build_boxpush, 650), (build_boxpush, 2_500), (build_boxpush, 6_782),
         (build_mabc, 200_000), (build_tiger, 140_000)],
        ids=["boxpush-418", "boxpush-650", "boxpush-2500", "boxpush-6782", "mabc-200000",
             "tiger-140000"],
    )
    def test_block_products_have_the_whole_depth_bits(self, build, n):
        # the enumeration matches the whole-depth references only if each
        # block's products have the bits of the same rows of the products
        # over the whole depth; boxpush-6782 ends in a 94-row block, which
        # OpenBLAS's small-matrix kernels on AVX-512 multiply with other bits
        from mbdp.analysis import _block_products, _depth_units

        model = build(horizon=2)
        num_states = len(model.states)
        size = mbdp.analysis._BLOCK_FLOATS // (model.num_joint_observations * num_states)
        rng = np.random.default_rng(n)
        rows = rng.random((n, num_states))
        rows[rng.random(rows.shape) > 4 / num_states] = 0.0  # sparse, like box pushing's beliefs
        rows[np.arange(n), rng.integers(num_states, size=n)] = 1.0 - rng.random(n)
        rows /= rows.sum(axis=1, keepdims=True)
        units = _depth_units(rows, size, size, model.num_joint_actions)
        assert len(units) > model.num_joint_actions
        post = [rows @ model.transition[ja] for ja in range(model.num_joint_actions)]
        q = [p @ model.observation[ja] for ja, p in enumerate(post)]
        for (ja, _), (lo, hi), block, _ in units:
            got = _block_products(block, model.transition[ja : ja + 1], model.observation[ja : ja + 1])
            cut = len(block) - (hi - lo)
            where = f"rows {lo}:{hi} of joint action {ja}"
            assert np.array_equal(got[0][0, cut:], post[ja][lo:hi]), f"BLAS gives {where} other bits in a block"
            assert np.array_equal(got[1][0, cut:], q[ja][lo:hi]), (
                f"BLAS gives {where} other observation products in a block"
            )

    @pytest.mark.parametrize("n", [418, 2_500, 6_782])
    def test_narrowed_block_products_have_the_whole_depth_bits(self, n):
        # each block's rows hold mass on their own 10 to 50 of box
        # pushing's 100 states, so its products are narrowed
        from mbdp.analysis import _block_products, _depth_units, _row_blocks

        model = build_boxpush(horizon=2)
        num_states = len(model.states)
        size = mbdp.analysis._BLOCK_FLOATS // (model.num_joint_observations * num_states)
        rng = np.random.default_rng(n)
        spans = _row_blocks(n, size)
        rows = np.zeros((n, num_states))
        for lo, hi in spans:
            states = rng.choice(num_states, rng.integers(10, 51), replace=False)
            block = rng.random((hi - lo, len(states)))
            block[rng.random(block.shape) > 4 / len(states)] = 0.0
            block[np.arange(hi - lo), rng.integers(len(states), size=hi - lo)] = 1.0 - rng.random(hi - lo)
            rows[lo:hi, states] = block / block.sum(axis=1, keepdims=True)
        narrowed = 0
        post = [rows @ model.transition[ja] for ja in range(model.num_joint_actions)]
        q = [p @ model.observation[ja] for ja, p in enumerate(post)]
        for (ja, _), (lo, hi), block, support in _depth_units(rows, size, size, model.num_joint_actions):
            got, got_q, reach = _block_products(
                block, model.transition[ja : ja + 1], model.observation[ja : ja + 1], support
            )
            cut = len(block) - (hi - lo)
            narrowed += reach is not None
            want = post[ja][lo:hi] if reach is None else post[ja][lo:hi, reach]
            where = f"rows {lo}:{hi} of joint action {ja}"
            assert np.array_equal(got[0, cut:], want), f"BLAS gives {where} other bits when narrowed"
            assert np.array_equal(got_q[0, cut:], q[ja][lo:hi]), (
                f"BLAS gives {where} other observation products when narrowed"
            )
        assert narrowed > len(spans)

    @pytest.mark.parametrize("rows", [0, 1, 2, 50, 3000])
    def test_state_sums_add_state_by_state(self, rows):
        from mbdp.analysis import _state_sums

        prods = np.random.default_rng(rows).random((rows, 100))
        want = np.zeros(rows)
        if rows:
            want = prods[:, 0].copy()
            for column in prods.T[1:]:
                want += column
        assert np.array_equal(_state_sums(prods), want)

    @pytest.mark.parametrize("rows", [1, 2, 50, 3000])
    def test_capture_sums_match_per_family_gathers(self, rows):
        from mbdp.backup import _capture_matrix, _subset_families

        model = build_boxpush(horizon=2)
        _, flat = _subset_families(model.observation_counts, 3)
        assert flat.shape[1] >= 8
        q = np.random.default_rng(rows).random((rows, model.num_joint_observations))
        want = np.stack([q[:, family].sum(axis=1) for family in flat])
        assert np.array_equal(_capture_matrix(q, flat), want)

    def test_filter_and_deduplication_are_exercised(self):
        sparse = sparse_observation_model(0)
        assert epsilon_global(sparse, 1).beliefs_checked < branch_count(sparse, 4)
        # joint action 1 repeats joint action 0 and agent 1's observation
        # tells nothing, so at most 6 of a belief's 16 children differ
        assert epsilon_global(echo_model(0), 1).beliefs_checked <= sum(6**d for d in range(4))


class TestErrorBound:
    def test_span_and_quadratic_growth(self):
        transition = np.ones((1, 2, 2)) * 0.5
        observation = np.full((1, 2, 4), 0.25)
        reward = np.array([[[10.0, -5.0], [0.0, 0.0]]])
        model = DecPomdp(
            states=("a", "b"),
            actions=(("go",), ("go",)),
            observations=(("x0", "x1"), ("y0", "y1")),
            transition=transition,
            observation=observation,
            reward=reward,
            initial_belief=np.array([1.0, 0.0]),
            horizon=3,
        )
        assert error_bound(model, 0.9) == pytest.approx(13.5)
        assert error_bound(replace(model, horizon=6), 0.9) == pytest.approx(54.0)

    def test_zero_at_full_capture(self):
        model = random_model(9)
        assert error_bound(model, 1.0) == 0.0

    def test_monotone_in_epsilon(self):
        model = random_model(10)
        assert error_bound(model, 0.5) >= error_bound(model, 0.8) - 1e-12


def test_bound_convergence_script_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, str(REPO / "scripts" / "bound_convergence.py"),
            "--problem", "mabc", "--horizon", "3", "--seeds", "1",
        ],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert any(row[:3] == ["2", "1.0000", "0.0000"] for row in rows), proc.stdout
    # each row ends with the beliefs the exact search checked and its seconds
    assert any(row[:2] == ["1", "0.4428"] and row[5:6] == ["41"] for row in rows), proc.stdout
    # full minus partial is labelled as a difference of heuristic values, not a loss
    assert ["max_obs", "epsilon", "bound", "partial", "full-part", "beliefs", "eps_s", "kept"] in rows, proc.stdout
    # kept: the least mass the best partial run's levels kept; "-" where
    # max_obs covers the alphabet and backups are full
    assert any(row[:2] == ["1", "0.4428"] and row[-1] == "0.8100" for row in rows), proc.stdout
    assert any(row[:2] == ["2", "1.0000"] and row[-1] == "-" for row in rows), proc.stdout
    assert any(line.startswith("# full-part:") and "not the loss the bound covers" in line
               for line in proc.stdout.splitlines()), proc.stdout
