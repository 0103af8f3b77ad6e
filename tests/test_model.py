from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mbdp import (
    BeliefState,
    DecPomdp,
    ImpossibleEvidenceError,
    ModelError,
    ObservationSelection,
    PROB_TOL,
    build_mabc,
    build_tiger,
    epsilon_at,
    epsilon_global,
    error_bound,
    evaluate_at_belief,
    evaluate_at_state,
    fill_missing,
    partial_backup,
    random_policy_baseline,
    rank_observations,
    simulate,
    uniform_random_value,
)

from conftest import random_model


def two_state_chain():
    """One effective agent (partner has a single action and observation)."""
    transition = np.array([[[0.8, 0.2], [0.3, 0.7]]])
    observation = np.array([[[0.9, 0.1], [0.2, 0.8]]])
    reward = np.ones((1, 2, 2))
    return DecPomdp(
        states=("left", "right"),
        actions=(("go",), ("idle",)),
        observations=(("hot", "cold"), ("none",)),
        transition=transition,
        observation=observation,
        reward=reward,
        initial_belief=np.array([0.5, 0.5]),
        horizon=3,
        name="chain",
    )


class TestConstruction:
    def test_initial_belief_array_is_wrapped(self):
        m = two_state_chain()
        assert isinstance(m.initial_belief, BeliefState)
        np.testing.assert_allclose(m.initial_belief.probs, [0.5, 0.5])

    def test_bad_transition_shape_rejected(self):
        with pytest.raises(ModelError):
            DecPomdp(
                states=("a", "b"),
                actions=(("x",), ("y",)),
                observations=(("u",), ("v",)),
                transition=np.ones((1, 2, 3)) / 3,
                observation=np.ones((1, 2, 1)),
                reward=np.zeros((1, 2, 2)),
                initial_belief=np.array([1.0, 0.0]),
                horizon=1,
            )

    @pytest.mark.parametrize("horizon", [0, -3, 2.5, True, "3"])
    def test_rejects_bad_horizons(self, horizon):
        # every function reads the horizon from the model, so this one
        # check covers the solvers, the bound and the baselines
        with pytest.raises(ModelError, match="horizon must be an integer >= 1"):
            replace(build_tiger(), horizon=horizon)

    def test_integer_horizon_is_stored_as_int(self):
        model = replace(build_tiger(), horizon=np.int64(4))
        assert type(model.horizon) is int and model.horizon == 4

    def test_validate_flags_broken_rows(self):
        m = two_state_chain()
        bad = m.transition.copy()
        bad[0, 0] = [0.5, 0.6]
        broken = DecPomdp(
            states=m.states,
            actions=m.actions,
            observations=m.observations,
            transition=bad,
            observation=m.observation,
            reward=m.reward,
            initial_belief=m.initial_belief,
            horizon=m.horizon,
        )
        problems = broken.validate()
        assert problems and any("transition" in p for p in problems)

    def test_validate_flags_non_finite_entries(self):
        m = two_state_chain()
        for field in ("transition", "observation"):
            table = getattr(m, field).copy()
            table.flat[0] = np.nan
            broken = replace(m, **{field: table})
            problems = broken.validate()
            assert any("non-finite" in p for p in problems), (field, problems)
        # a non-finite initial belief is refused when the model is built
        probs = m.initial_belief.probs.copy()
        probs[0] = np.nan
        with pytest.raises(ModelError, match="belief sums to .*nan"):
            replace(m, initial_belief=probs)

    def test_row_sum_problem_prints_a_plain_float(self):
        tiger = build_tiger()
        transition = tiger.transition.copy()
        transition[0, 0, 0] = 0.7
        assert replace(tiger, transition=transition).validate() == [
            "transition row ja=0 (listen/listen), s=0 (tiger-left) sums to 0.7"
        ]

    def test_builtins_validate_clean(self):
        assert build_mabc().validate() == []
        assert build_tiger().validate() == []


ENTRY_POINTS = {
    "simulate": lambda m, policy: simulate(m, policy, 10, 0),
    "evaluate_at_belief": lambda m, policy: evaluate_at_belief(m, policy, m.initial_belief),
    "evaluate_at_state": lambda m, policy: evaluate_at_state(m, policy, 0),
    "uniform_random_value": lambda m, policy: uniform_random_value(m),
    "random_policy_baseline": lambda m, policy: random_policy_baseline(m),
    "epsilon_at": lambda m, policy: epsilon_at(m, m.initial_belief, 0, 1),
    "epsilon_global": lambda m, policy: epsilon_global(m, max_obs=1),
    "error_bound": lambda m, policy: error_bound(m, 0.5),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_refuse_invalid_model(entry):
    tiger = build_tiger(horizon=3)
    policy = random_policy_baseline(tiger).policy
    transition = tiger.transition.copy()
    transition[0, 0, 0] = np.nan
    with pytest.raises(ModelError, match="non-finite"):
        ENTRY_POINTS[entry](replace(tiger, transition=transition), policy)


BELIEF_ENTRY_POINTS = {
    "propagate": lambda m, b: m.propagate(b, 0),
    "observation_probabilities": lambda m, b: m.observation_probabilities(b, 0),
    "bayes_update": lambda m, b: m.bayes_update(b, 0, 0),
    "epsilon_at": lambda m, b: epsilon_at(m, b, 0, 1),
    "rank_observations": lambda m, b: rank_observations(m, b, 0, 1),
    "evaluate_at_belief": lambda m, b: evaluate_at_belief(m, random_policy_baseline(m).policy, b),
    "fill_missing": lambda m, b: fill_missing(
        m,
        partial_backup(m, (1, 1), ObservationSelection(((0,), (0,)))),
        np.zeros((1, 1, m.num_states)),
        b,
    ),
}


@pytest.mark.parametrize("entry", sorted(BELIEF_ENTRY_POINTS))
def test_belief_entry_points_refuse_wrong_length_beliefs(entry):
    # tiger has two states; a three-entry belief once leaked numpy's
    # matmul shape error
    tiger = build_tiger(horizon=3)
    with pytest.raises(ModelError, match="belief has 3 entries, the model 2 states"):
        BELIEF_ENTRY_POINTS[entry](tiger, BeliefState(np.full(3, 1 / 3)))


class TestBeliefs:
    def test_point_mass_and_uniform(self):
        # BeliefState takes any distribution, so these need no helper of their own
        b = BeliefState(np.eye(3)[1])
        assert b.num_states == 3 and int(np.argmax(b.probs)) == 1
        u = BeliefState(np.full(4, 0.25))
        np.testing.assert_allclose(u.probs, 0.25)
        assert not u.probs.flags.writeable

    def test_propagate_matches_hand_computation(self):
        m = two_state_chain()
        post = m.propagate(m.initial_belief, 0)
        np.testing.assert_allclose(post.probs, [0.55, 0.45])

    def test_bayes_update_matches_hand_computation(self):
        m = two_state_chain()
        probs = m.observation_probabilities(m.initial_belief, 0)
        np.testing.assert_allclose(probs, [0.585, 0.415])
        post = m.bayes_update(m.initial_belief, 0, 0)
        np.testing.assert_allclose(post.probs, [0.495 / 0.585, 0.09 / 0.585])

    def test_impossible_evidence_raises(self):
        m = two_state_chain()
        zero_obs = m.observation.copy()
        zero_obs[0, :, 1] = 0.0
        zero_obs[0, :, 0] = 1.0
        m2 = DecPomdp(
            states=m.states,
            actions=m.actions,
            observations=m.observations,
            transition=m.transition,
            observation=zero_obs,
            reward=m.reward,
            initial_belief=m.initial_belief,
            horizon=m.horizon,
        )
        with pytest.raises(ImpossibleEvidenceError):
            m2.bayes_update(m2.initial_belief, 0, 1)

    @pytest.mark.parametrize(
        "probs", [[np.nan, 1.0], [1.0, np.nan], [0.5, 0.5, np.nan], [np.inf, 0.0], [np.nan, np.inf]]
    )
    def test_non_finite_entries_are_refused(self, probs):
        # NaN fails both the negative-entry and the sum comparison, so a
        # test written as "sum - 1 > tol" let [nan, 1] through, and
        # evaluate_at_belief and epsilon_at then returned nan
        with pytest.raises(ModelError, match="belief sums to"):
            BeliefState(np.array(probs))

    @pytest.mark.parametrize(
        "probs, message",
        [([0.5, 0.6], "belief sums to 1.1, not 1"), ([1.5, -0.5], "belief has a negative entry: -0.5")],
    )
    def test_belief_errors_print_plain_floats(self, probs, message):
        with pytest.raises(ModelError) as info:
            BeliefState(probs)
        assert str(info.value) == message

    @given(seed=st.integers(0, 10_000), action=st.integers(0, 3))
    def test_propagate_stays_on_simplex(self, seed, action):
        m = random_model(seed)
        post = m.propagate(m.initial_belief, action)
        assert abs(float(post.probs.sum()) - 1.0) < 1e-9
        assert (post.probs >= 0).all()

    @given(seed=st.integers(0, 10_000), action=st.integers(0, 3))
    def test_observation_probabilities_normalize(self, seed, action):
        m = random_model(seed)
        probs = m.observation_probabilities(m.initial_belief, action)
        assert abs(float(probs.sum()) - 1.0) < 1e-9

    @given(seed=st.integers(0, 10_000))
    def test_bayes_update_agrees_with_direct_formula(self, seed):
        m = random_model(seed)
        b = m.initial_belief
        post = b.probs @ m.transition[1]
        joint = post * m.observation[1][:, 2]
        if joint.sum() <= PROB_TOL:
            return
        np.testing.assert_allclose(
            m.bayes_update(b, 1, 2).probs, joint / joint.sum(), atol=1e-12
        )


class TestJointIndexing:
    def test_round_trip_all_actions(self, tiger):
        for ja in range(tiger.num_joint_actions):
            assert tiger.joint_action_index(tiger.joint_action(ja)) == ja

    def test_numpy_integers_are_indices(self, tiger):
        assert tiger.joint_action_index(np.int64(3)) == 3
        assert tiger.joint_action_index((np.int32(1), 0)) == 3
        assert tiger.joint_observation_index([np.int64(1), np.int64(1)]) == 3

    @pytest.mark.parametrize(
        "value, match",
        [
            ((0.9, 0), r"action component 0\.9 of \(0\.9, 0\) is not an integer"),
            (("1", 0), r"action component '1' of \('1', 0\) is not an integer"),
            ((True, False), r"action component True of \(True, False\) is not an integer"),
            (True, "joint action must be an integer or one integer per agent, got True"),
            (np.bool_(True), "joint action must be an integer .*got np.True_"),
            (np.float64(1.0), r"joint action must be an integer .*got np.float64\(1.0\)"),
            ("1", r"action component '1' of '1' is not an integer"),
        ],
        ids=["float-part", "str-part", "bool-parts", "bool", "numpy-bool", "numpy-float", "str"],
    )
    def test_non_integer_actions_are_refused(self, tiger, value, match):
        with pytest.raises(ModelError, match=match):
            tiger.joint_action_index(value)

    @pytest.mark.parametrize(
        "value, match",
        [
            ((1.0, 1), r"observation component 1\.0 of \(1\.0, 1\) is not an integer"),
            (("0", 1), r"observation component '0' of \('0', 1\) is not an integer"),
            ((False, True), r"observation component False of \(False, True\) is not an integer"),
            (True, "joint observation must be an integer or one integer per agent, got True"),
            (np.float64(2.0), r"joint observation must be an integer .*got np.float64\(2.0\)"),
        ],
        ids=["float-part", "str-part", "bool-parts", "bool", "numpy-float"],
    )
    def test_non_integer_observations_are_refused(self, tiger, value, match):
        with pytest.raises(ModelError, match=match):
            tiger.joint_observation_index(value)

    def test_bool_action_is_refused_where_beliefs_are_scored(self, tiger):
        with pytest.raises(ModelError, match="got True"):
            epsilon_at(tiger, tiger.initial_belief, True, 1)
        with pytest.raises(ModelError, match="observation component"):
            tiger.bayes_update(tiger.initial_belief, 0, (0.0, 1))

    def test_agent_zero_is_most_significant(self, tiger):
        # index 0 is (0, 0); incrementing the last agent moves by one slot
        assert tiger.joint_action(0) == (0, 0)
        assert tiger.joint_action(1) == (0, 1)
        assert tiger.joint_action(3) == (1, 0)

    def test_expected_reward_table(self, tiger):
        want = (tiger.transition * tiger.reward).sum(axis=2)
        np.testing.assert_allclose(tiger.expected_reward, want)

    def test_reward_extremes(self, tiger):
        assert tiger.reward_max == tiger.reward.max()
        assert tiger.reward_min == tiger.reward.min()
