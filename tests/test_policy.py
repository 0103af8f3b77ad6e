import numpy as np
import pytest
from hypothesis import given, strategies as st

import mbdp.policy
from mbdp import (
    JointPolicy,
    ParseError,
    PolicyEvaluator,
    PolicyTree,
    ValueTable,
    evaluate_at_belief,
    evaluate_at_state,
    parse_policy,
    serialize_policy,
    simulate,
)

import _reference as ref
from conftest import random_model


def random_tree(rng, model, agent, depth):
    action = int(rng.integers(model.action_counts[agent]))
    if depth == 1:
        return PolicyTree(action)
    kids = tuple(
        random_tree(rng, model, agent, depth - 1)
        for _ in range(model.observation_counts[agent])
    )
    return PolicyTree(action, kids)


def random_joint(seed, model, depth):
    rng = np.random.default_rng(seed)
    return tuple(random_tree(rng, model, i, depth) for i in range(model.num_agents))


class TestTree:
    def test_depth_and_completeness(self):
        leaf = PolicyTree(0)
        assert leaf.depth == 1 and leaf.complete
        node = PolicyTree(1, (leaf, leaf))
        assert node.depth == 2 and node.complete
        holey = PolicyTree(1, (leaf, None))
        assert not holey.complete

    def test_uids_are_unique(self):
        a, b = PolicyTree(0), PolicyTree(0)
        assert a.uid != b.uid

    def test_immutable(self):
        t = PolicyTree(0)
        with pytest.raises(AttributeError):
            t.action = 1

    def test_same_structure(self):
        l0, l1 = PolicyTree(0), PolicyTree(1)
        a = PolicyTree(0, (l0, l1))
        b = PolicyTree(0, (PolicyTree(0), PolicyTree(1)))
        c = PolicyTree(0, (PolicyTree(1), PolicyTree(1)))
        assert a.same_structure(b)
        assert not a.same_structure(c)

    def test_joint_policy_checks_depth(self):
        with pytest.raises(Exception):
            JointPolicy((PolicyTree(0), PolicyTree(0, (PolicyTree(0), PolicyTree(0)))))


class TestEvaluator:
    @given(seed=st.integers(0, 5_000), depth=st.integers(1, 3))
    def test_matches_recursive_reference(self, seed, depth):
        model = random_model(seed, horizon=depth)
        joint = random_joint(seed + 1, model, depth)
        for s in range(model.num_states):
            got = evaluate_at_state(model, joint, s)
            want = ref.tree_value(model, joint, s)
            assert got == pytest.approx(want, abs=1e-10)

    def test_belief_value_is_state_mixture(self, tiger):
        joint = random_joint(0, tiger, 2)
        by_state = [evaluate_at_state(tiger, joint, s) for s in range(tiger.num_states)]
        mix = float(np.dot(tiger.initial_belief.probs, by_state))
        assert evaluate_at_belief(tiger, joint, tiger.initial_belief) == pytest.approx(mix)

    def test_shared_table_reuses_results(self, tiger):
        joint = random_joint(1, tiger, 2)
        table = ValueTable()
        ev = PolicyEvaluator(tiger, table)
        first = ev.at_belief(joint, tiger.initial_belief)
        again = ev.at_belief(joint, tiger.initial_belief)
        assert first == again
        key = tuple(t.uid for t in joint)
        assert table.get(key) is not None

    def test_retain_drops_unlisted_entries(self):
        table = ValueTable()
        table.put((1, 2), np.zeros(2))
        table.put((3, 4), np.zeros(2))
        table.retain([(1, 2)])
        assert table.get((1, 2)) is not None
        assert table.get((3, 4)) is None


class TestSimulation:
    def test_simulation_agrees_with_exact_value(self, tiger):
        joint = random_joint(2, tiger, 2)
        exact = evaluate_at_belief(tiger, joint, tiger.initial_belief)
        res = simulate(tiger, joint, episodes=40_000, seed=9)
        assert res.episodes == 40_000
        assert abs(res.mean - exact) <= 3.5 * res.std_error + 1e-9

    def test_deterministic_given_seed(self, tiger):
        joint = random_joint(3, tiger, 2)
        a = simulate(tiger, joint, episodes=500, seed=4)
        b = simulate(tiger, joint, episodes=500, seed=4)
        assert a.mean == b.mean and a.std_error == b.std_error

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_blocked_sampling_matches_one_pass(self, monkeypatch, block):
        model = random_model(5, num_states=4, action_counts=(2, 3), obs_counts=(3, 2), horizon=3)
        joint = random_joint(11, model, 3)
        whole = simulate(model, joint, episodes=1_001, seed=6)
        # one row per block up to a few rows: the tables have 3 to 6 columns
        monkeypatch.setattr(mbdp.policy, "_SIM_BLOCK_ELEMENTS", block)
        blocked = simulate(model, joint, episodes=1_001, seed=6)
        assert (blocked.mean, blocked.std_error) == (whole.mean, whole.std_error)


class TestSerialization:
    @given(seed=st.integers(0, 5_000), depth=st.integers(1, 3))
    def test_round_trip_preserves_value(self, seed, depth):
        model = random_model(seed, horizon=depth)
        joint = random_joint(seed + 7, model, depth)
        text = serialize_policy(model, joint)
        back = parse_policy(model, text)
        before = evaluate_at_belief(model, joint, model.initial_belief)
        after = evaluate_at_belief(model, back, model.initial_belief)
        assert after == pytest.approx(before, abs=1e-6)

    def test_shared_format_round_trip(self, tiger):
        joint = random_joint(5, tiger, 2)
        nested = serialize_policy(tiger, joint)
        shared = serialize_policy(tiger, joint, inline_node_limit=0)
        assert nested != shared
        a = evaluate_at_belief(tiger, parse_policy(tiger, nested), tiger.initial_belief)
        b = evaluate_at_belief(tiger, parse_policy(tiger, shared), tiger.initial_belief)
        assert a == pytest.approx(b, abs=1e-12)

    def test_round_trip_preserves_structure(self, tiger):
        joint = random_joint(6, tiger, 2)
        back = parse_policy(tiger, serialize_policy(tiger, joint))
        for t, u in zip(joint, back.trees):
            assert t.same_structure(u)

    def test_garbage_rejected_with_position(self, tiger):
        with pytest.raises(ParseError) as exc:
            parse_policy(tiger, "agent 0:\n  (listen")
        assert "line" in str(exc.value)

    def test_unknown_action_rejected(self, tiger):
        text = serialize_policy(tiger, random_joint(8, tiger, 2))
        with pytest.raises(ParseError):
            parse_policy(tiger, text.replace("listen", "shout"))
