import json
import sys
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, strategies as st

import mbdp.policy
from mbdp import (
    EvaluationError,
    JointPolicy,
    ModelError,
    ParseError,
    PolicyTree,
    SolverConfig,
    ValueTable,
    build_mabc,
    evaluate_at_belief,
    evaluate_at_state,
    parse_policy,
    mbdp as plan,
    random_policy_baseline,
    serialize_policy,
    simulate,
)
from mbdp.policy import NESTED_MAX_DEPTH

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


def random_dag(rng, model, agent, depth, width):
    """A tree whose every level holds ``width`` nodes, shared by all parents above."""
    below = [PolicyTree(int(rng.integers(model.action_counts[agent]))) for _ in range(width)]
    for _ in range(depth - 1):
        below = [
            PolicyTree(
                int(rng.integers(model.action_counts[agent])),
                tuple(below[int(rng.integers(width))] for _ in range(model.observation_counts[agent])),
            )
            for _ in range(width)
        ]
    return below[0]


def random_joint(seed, model, depth, width=None):
    rng = np.random.default_rng(seed)
    if width is not None:
        return tuple(random_dag(rng, model, i, depth, width) for i in range(model.num_agents))
    return tuple(random_tree(rng, model, i, depth) for i in range(model.num_agents))


class TestTree:
    def test_depth_and_completeness(self):
        leaf = PolicyTree(0)
        assert leaf.depth == 1 and leaf.complete
        node = PolicyTree(1, (leaf, leaf))
        assert node.depth == 2 and node.complete
        holey = PolicyTree(1, (leaf, None))
        assert not holey.complete

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

    def test_same_structure_on_shared_dags(self):
        model = build_mabc(horizon=100)
        policy = plan(model, SolverConfig(max_trees=3, heuristics=("random",))).policy
        text = serialize_policy(model, policy)
        back = parse_policy(model, text)
        assert all(t.same_structure(u) for t, u in zip(policy.trees, back.trees))
        doc = json.loads(text)
        assert doc["representation"] == "shared"
        # the shared form lists nodes children first, so node 0 is a deepest leaf
        leaf = doc["agents"][0]["nodes"][0]
        assert "children" not in leaf
        leaf["action"] = "wait" if leaf["action"] == "send" else "send"
        changed = parse_policy(model, json.dumps(doc))
        assert not policy.trees[0].same_structure(changed.trees[0])

    def test_joint_policy_checks_depth(self):
        with pytest.raises(Exception):
            JointPolicy((PolicyTree(0), PolicyTree(0, (PolicyTree(0), PolicyTree(0)))))


# (action counts, observation counts) per agent
SHAPES = [((2, 2), (2, 2)), ((3, 2), (2, 3)), ((2, 3), (3, 2)), ((2, 2, 2), (2, 2, 2))]


class TestEvaluator:
    @given(
        seed=st.integers(0, 5_000),
        depth=st.integers(1, 3),
        shape=st.sampled_from(SHAPES),
        width=st.sampled_from([None, 1, 2]),
    )
    def test_matches_recursive_reference(self, seed, depth, shape, width):
        # width None: every node distinct; 1 or 2: levels shared as a DAG
        actions, observations = shape
        model = random_model(seed, action_counts=actions, obs_counts=observations, horizon=depth)
        joint = random_joint(seed + 1, model, depth, width)
        for s in range(model.num_states):
            got = evaluate_at_state(model, joint, s)
            want = ref.tree_value(model, joint, s)
            assert got == pytest.approx(want, abs=1e-10)

    def test_dense_renumbering_keeps_values(self, monkeypatch):
        # a limit of 1 renumbers the tuple codes before every agent's rows
        model = random_model(3, action_counts=(2, 2, 2), obs_counts=(2, 2, 2), horizon=3)
        joint = random_joint(4, model, 3, width=2)
        monkeypatch.setattr(mbdp.policy, "_CODE_LIMIT", 1)
        for s in range(model.num_states):
            assert evaluate_at_state(model, joint, s) == pytest.approx(ref.tree_value(model, joint, s), abs=1e-10)

    def test_belief_value_is_state_mixture(self, tiger):
        joint = random_joint(0, tiger, 2)
        by_state = [evaluate_at_state(tiger, joint, s) for s in range(tiger.num_states)]
        mix = float(np.dot(tiger.initial_belief.probs, by_state))
        assert evaluate_at_belief(tiger, joint, tiger.initial_belief) == pytest.approx(mix)

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


_LEAF = PolicyTree(0)
_NODE = PolicyTree(0, (PolicyTree(0), PolicyTree(1)))
BAD_JOINTS = {
    "one tree": ((_NODE,), EvaluationError, "expected 2 trees, got 1"),
    "three trees": ((_NODE, _NODE, _NODE), EvaluationError, "expected 2 trees, got 3"),
    "leaf first": ((_LEAF, _NODE), EvaluationError, "mixes tree depths"),
    "leaf last": ((_NODE, _LEAF), EvaluationError, "mixes tree depths"),
    "missing branch": ((_NODE, PolicyTree(2, (_LEAF, None))), EvaluationError, "missing the branch"),
    "too few branches": ((_NODE, PolicyTree(2, (_LEAF,))), EvaluationError, "missing the branch"),
    "unknown action": ((_NODE, PolicyTree(1, (_LEAF, PolicyTree(3)))), ModelError, "action 3 out of range"),
}
CONSUMERS = {
    "simulate": lambda model, joint: simulate(model, joint, 10, 0),
    "evaluate_at_belief": lambda model, joint: evaluate_at_belief(model, joint, model.initial_belief),
}


@pytest.mark.parametrize("consumer", CONSUMERS)
@pytest.mark.parametrize("case", BAD_JOINTS)
def test_consumers_reject_malformed_joint_policies(tiger, consumer, case):
    joint, error, message = BAD_JOINTS[case]
    with pytest.raises(error, match=message):
        CONSUMERS[consumer](tiger, joint)


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

    def test_shared_form_numbers_nodes_in_post_order(self, tiger):
        # post-order from the root reaches leaf l1 only after mid node m1
        # is finished, so the numbering is not deepest-level first
        l0, l1 = PolicyTree(0), PolicyTree(1)
        m1, m2 = PolicyTree(2, (l0, l0)), PolicyTree(0, (l1, l0))
        root = PolicyTree(1, (m1, m2))
        doc = json.loads(serialize_policy(tiger, (root, root), inline_node_limit=0))
        assert doc["representation"] == "shared"
        assert doc["agents"][0]["root"] == 4
        assert doc["agents"][0]["nodes"] == [
            {"action": "listen"},
            {"action": "open-right", "children": {"hear-left": 0, "hear-right": 0}},
            {"action": "open-left"},
            {"action": "listen", "children": {"hear-left": 2, "hear-right": 0}},
            {"action": "open-left", "children": {"hear-left": 1, "hear-right": 3}},
        ]
        assert doc["agents"][1]["nodes"] == doc["agents"][0]["nodes"]

    @pytest.mark.parametrize("depth, form", [(NESTED_MAX_DEPTH, "nested"), (NESTED_MAX_DEPTH + 1, "shared")])
    def test_nested_form_stops_at_its_depth_limit(self, depth, form):
        model = random_model(3, obs_counts=(1, 1), horizon=depth)
        joint = random_joint(4, model, depth, width=1)
        text = serialize_policy(model, joint)
        assert json.loads(text)["representation"] == form
        back = parse_policy(model, text)
        assert all(t.same_structure(u) for t, u in zip(joint, back.trees))
        assert evaluate_at_belief(model, back, model.initial_belief) == evaluate_at_belief(
            model, joint, model.initial_belief
        )


@contextmanager
def shallow_stack(room=100):
    """Lets the block nest at most ``room`` frames below the caller."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + room)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def test_deep_policies_need_no_recursion(tiger):
    node = PolicyTree(0)
    for d in range(1, 2000):
        node = PolicyTree(d % 3, (node, node))
    single = random_model(5, obs_counts=(1, 1), horizon=2000)
    with shallow_stack():
        text = serialize_policy(tiger, (node, node))
        back = parse_policy(tiger, text)
        value = evaluate_at_belief(tiger, back, tiger.initial_belief)
        sampled = simulate(tiger, back, 50, 0)
        baseline = random_policy_baseline(single, samples=1, seed=0)
    assert json.loads(text)["representation"] == "shared"
    assert value == evaluate_at_belief(tiger, (node, node), tiger.initial_belief)
    assert sampled == simulate(tiger, (node, node), 50, 0)
    assert baseline.policy.depth == 2000
    assert baseline.value == evaluate_at_belief(single, baseline.policy, single.initial_belief)
