import json
import sys
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mbdp import (
    PROB_TOL,
    EvaluationError,
    JointPolicy,
    ModelError,
    ParseError,
    PolicyEvaluator,
    PolicyTree,
    SolverConfig,
    build_boxpush,
    build_mabc,
    build_tiger,
    evaluate_at_belief,
    evaluate_at_state,
    exact_solve,
    improved_mbdp,
    parse_policy,
    mbdp as plan,
    random_policy_baseline,
    serialize_policy,
    simulate,
)
import mbdp.policy as policy_module
from mbdp.policy import NESTED_MAX_DEPTH, _RowSampler

import _reference as ref
from conftest import assert_same_tables, dusty_model, random_model, three_agent_model, traced_peak_mb


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

    def test_same_structure(self, tiger):
        # trees of one structure give equal tables and equal text, whatever their node identity
        l0, l1 = PolicyTree(0), PolicyTree(1)
        a = PolicyTree(0, (l0, l1))
        b = PolicyTree(0, (PolicyTree(0), PolicyTree(1)))
        c = PolicyTree(0, (PolicyTree(1), PolicyTree(1)))
        assert_same_tables(tiger, JointPolicy((b, b)), (a, a))
        text = serialize_policy(tiger, JointPolicy((a, a)))
        assert serialize_policy(tiger, JointPolicy((b, b))) == text
        assert serialize_policy(tiger, JointPolicy((c, c))) != text

    def test_same_structure_on_shared_dags(self):
        model = build_mabc(horizon=100)
        policy = plan(model, SolverConfig(max_trees=3, heuristics=("random",))).policy
        text = serialize_policy(model, policy)
        back = parse_policy(model, text)
        assert_same_tables(model, back, policy)
        doc = json.loads(text)
        assert doc["representation"] == "shared"
        # the shared form lists nodes children first, so node 0 is a deepest leaf
        leaf = doc["agents"][0]["nodes"][0]
        assert "children" not in leaf
        leaf["action"] = "wait" if leaf["action"] == "send" else "send"
        changed = parse_policy(model, json.dumps(doc))
        assert not np.array_equal(changed.actions[0][-1], policy.actions[0][-1])

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

    def test_shared_dag_matches_top_down_reference(self):
        # three agents whose levels are shared two nodes wide
        model = random_model(3, action_counts=(2, 2, 2), obs_counts=(2, 2, 2), horizon=3)
        joint = random_joint(4, model, 3, width=2)
        assert np.array_equal(PolicyEvaluator(model).value_vector(joint), ref.value_vector_reference(model, joint))

    def test_belief_value_is_state_mixture(self, tiger):
        joint = random_joint(0, tiger, 2)
        by_state = [evaluate_at_state(tiger, joint, s) for s in range(tiger.num_states)]
        mix = float(np.dot(tiger.initial_belief.probs, by_state))
        assert evaluate_at_belief(tiger, joint, tiger.initial_belief) == pytest.approx(mix)

    @pytest.mark.parametrize("state", [-1, 2, 1.0, True])
    def test_state_index_must_name_a_state(self, tiger, state):
        # -1 used to give the last state's value and 2 a raw IndexError
        joint = random_joint(0, tiger, 2)
        with pytest.raises(EvaluationError, match="state"):
            evaluate_at_state(tiger, joint, state)
        with pytest.raises(EvaluationError, match="state"):
            PolicyEvaluator(tiger).at_state(joint, state)
        assert evaluate_at_state(tiger, joint, np.int64(1)) == evaluate_at_state(tiger, joint, 1)


def assert_rows_reached(policy):
    """Depth 0 holds one row per agent, and every deeper row is a child of some row above."""
    for acts, kids in zip(policy.actions, policy.children):
        assert len(acts[0]) == 1
        for table, below in zip(kids, acts[1:]):
            np.testing.assert_array_equal(np.unique(table), np.arange(len(below)))


class TestReachability:
    """A joint policy holds only the rows its root reaches; the evaluator values each depth's whole row grid."""

    def test_from_tables_drops_unreached_rows(self):
        model = random_model(0, action_counts=(3, 2), horizon=3)
        # agent 0 has an unreached row at every depth, agent 1 below the root
        policy = JointPolicy._from_tables(
            [[[1, 0], [2, 0, 1], [0, 1, 0, 1]], [[0], [1, 1], [0, 0, 1]]],
            [[[[2, 1], [0, 0]], [[9, 9], [2, 0], [0, 2]]], [[[1, 1]], [[9, 9], [0, 1]]]],
        )
        assert_rows_reached(policy)
        assert [len(a) for a in policy.actions[0]] == [1, 2, 2]
        assert [len(a) for a in policy.actions[1]] == [1, 1, 2]
        assert np.array_equal(PolicyEvaluator(model).value_vector(policy), ref.value_vector_reference(model, policy))

    @pytest.mark.parametrize("depth", [3, 4])
    def test_shared_dag_compiles_to_reached_rows(self, depth):
        # random_dag leaves nodes that the root never reaches
        model = random_model(3, action_counts=(2, 2, 2), obs_counts=(2, 2, 2), horizon=depth)
        policy = JointPolicy(random_joint(4, model, depth, width=2))
        assert_rows_reached(policy)
        assert sum(len(a) for a in policy.actions[0]) < 2 * depth

    def test_shared_file_drops_nodes_the_root_never_references(self, tiger, shared_form):
        joint = JointPolicy(random_joint(5, tiger, 3))
        text = serialize_policy(tiger, joint)
        doc = json.loads(text)
        assert doc["representation"] == "shared"
        for entry in doc["agents"]:
            nodes, names = entry["nodes"], tiger.observations[entry["agent"]]
            action = nodes[0]["action"]
            # a stray leaf, a stray parent of it, and a stray parent of the root
            nodes.append({"action": action})
            nodes.append({"action": action, "children": {name: len(nodes) - 1 for name in names}})
            nodes.append({"action": action, "children": {name: entry["root"] for name in names}})
        padded = parse_policy(tiger, json.dumps(doc))
        assert_rows_reached(padded)
        assert serialize_policy(tiger, padded) == text
        evaluator = PolicyEvaluator(tiger)
        assert np.array_equal(evaluator.value_vector(padded), evaluator.value_vector(parse_policy(tiger, text)))


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

    @pytest.mark.parametrize("bad", [0, -3, 2.7, True, None, "5"])
    def test_rejects_bad_episode_counts(self, tiger, bad):
        with pytest.raises(EvaluationError, match="episodes must be an integer >= 1"):
            simulate(tiger, random_joint(3, tiger, 2), bad, 0)

    @pytest.mark.parametrize("bad", [-1, 1.0, False, None, "0"])
    def test_rejects_bad_seeds(self, tiger, bad):
        with pytest.raises(EvaluationError, match="seed must be an integer >= 0"):
            simulate(tiger, random_joint(3, tiger, 2), 10, bad)

    def test_numpy_integers_are_accepted(self, tiger):
        joint = random_joint(3, tiger, 2)
        assert simulate(tiger, joint, np.int64(10), np.uint32(4)) == simulate(tiger, joint, 10, 4)


def _random_case(seed, depth, **shape):
    model = random_model(seed, horizon=depth, **shape)
    return model, random_joint(seed + 1, model, depth)


def _dusty_case(negative):
    model = dusty_model(negative, horizon=4)
    return model, random_joint(17, model, 4)


def _exact_case(build, horizon):
    model = build(horizon=horizon)
    return model, exact_solve(model).policy


def _baseline_case(build, horizon):
    model = build(horizon=horizon)
    return model, random_policy_baseline(model).policy


def _boxpush_planner_case():
    # the shape of the box-pushing benchmark's policy: 10 steps, each
    # drawing from 1,600 transition rows
    model = build_boxpush(horizon=10)
    cfg = SolverConfig(max_trees=3, max_obs=3, heuristics=("mdp", "random"), seed=0)
    return model, improved_mbdp(model, cfg).policy


def shaped_joint(model, seed, shapes):
    """A joint policy whose children follow ``shapes``, one list per agent.

    ``shapes[i][d]`` is (kind, width): the rows of depth d + 1 are
    ``width`` rows, and row r of depth d continues with row (r + 1) % width
    after every observation when kind is "same", and with row (r + o) %
    width after observation o when kind is "branch".  Actions are drawn
    from ``seed``.
    """
    rng = np.random.default_rng(seed)
    trees = []
    for i, shape in enumerate(shapes):
        num_obs = model.observation_counts[i]
        widths = [1] + [width for _, width in shape]
        nodes = [PolicyTree(int(rng.integers(model.action_counts[i]))) for _ in range(widths[-1])]
        for (kind, width), rows in zip(reversed(shape), reversed(widths[:-1])):
            kids = [[(r + (o if kind == "branch" else 1)) % width for o in range(num_obs)] for r in range(rows)]
            nodes = [PolicyTree(int(rng.integers(model.action_counts[i])), [nodes[c] for c in row]) for row in kids]
        trees.append(nodes[0])
    return tuple(trees)


# depth 0 branches from one tuple; then children agree across observations
# on several tuples: 2-3 rows per agent, 2 rows, then every tuple to tuple 0
_SAME_SHAPE = [("branch", 3), ("same", 3), ("same", 2), ("same", 1), ("same", 1)]
# one-tuple depths that branch and that do not, several tuples whose
# children agree, and a depth where only agent 1 branches
_MIXED_SHAPES = [
    [("branch", 2), ("same", 1), ("branch", 2), ("same", 2), ("same", 1), ("same", 1), ("branch", 2)],
    [("branch", 2), ("same", 1), ("branch", 2), ("branch", 2), ("same", 1), ("same", 1), ("branch", 2)],
]


def _shaped_case(model, shapes):
    return model, shaped_joint(model, 31, shapes)


PARITY_CASES = {
    "random-2-agents": lambda: _random_case(5, 3, num_states=4, action_counts=(2, 3), obs_counts=(3, 2)),
    "random-3-agents": lambda: _random_case(
        8, 3, num_states=5, action_counts=(2, 3, 2), obs_counts=(2, 3, 2)
    ),
    "dusty-0": lambda: _dusty_case(0.0),
    "dusty-neg-1e-12": lambda: _dusty_case(-1e-12),
    "tiger-h3-exact": lambda: _exact_case(build_tiger, 3),
    "mabc-h3-exact": lambda: _exact_case(build_mabc, 3),
    "boxpush-h2-exact": lambda: _exact_case(build_boxpush, 2),
    "boxpush-h10-improved": _boxpush_planner_case,
    # shared rows, and grids of up to 1,024 joint row tuples per depth
    "mabc-h300-random": lambda: _baseline_case(build_mabc, 300),
    "same-children-2-agents": lambda: _shaped_case(
        random_model(12, num_states=4, action_counts=(2, 3), obs_counts=(3, 2), horizon=6), [_SAME_SHAPE] * 2
    ),
    "same-children-3-agents": lambda: _shaped_case(three_agent_model(6), [_SAME_SHAPE] * 3),
    "same-children-mixed": lambda: _shaped_case(
        random_model(13, num_states=3, action_counts=(3, 2), obs_counts=(2, 3), horizon=8), _MIXED_SHAPES
    ),
}


@pytest.mark.parametrize("case", PARITY_CASES)
def test_simulate_matches_reference(case, monkeypatch):
    # the binary-search sampler on flat indices against whole-row
    # comparisons on nested indices, run on the same seeds; 7, 8 and 9
    # episodes fall below, at and above one block of 8, and blocks of 3
    # leave a short last block
    model, joint = PARITY_CASES[case]()
    for episodes in (1, 2, 7, 8, 9, 1001):
        want = ref.simulate_reference(model, joint, episodes, 6)
        for block in (policy_module._SIM_BLOCK, 3, 8):
            monkeypatch.setattr(policy_module, "_SIM_BLOCK", block)
            got = simulate(model, joint, episodes, 6)
            assert (got.mean, got.std_error, got.episodes) == (want.mean, want.std_error, want.episodes)


@pytest.mark.parametrize("case", ["same-children-2-agents", "same-children-3-agents", "same-children-mixed"])
def test_simulate_looks_up_observations_only_where_children_differ(case, monkeypatch):
    # per block: the start state, each depth's next state, and a joint
    # observation only at depths where some row's children differ
    model, joint = PARITY_CASES[case]()
    policy = JointPolicy(joint)
    branching = sum(any((k != k[:, :1]).any() for k in kids) for kids in zip(*policy.children))
    calls = []
    draw = _RowSampler.draw
    monkeypatch.setattr(_RowSampler, "draw", lambda self, *args: calls.append(1) or draw(self, *args))
    monkeypatch.setattr(policy_module, "_SIM_BLOCK", 4)
    simulate(model, policy, 10, 0)
    assert branching < policy.depth - 1
    assert len(calls) == 3 * (1 + policy.depth + branching)


def test_simulate_working_set_is_bounded():
    # about 12 MB: five vectors of one entry per episode, one block's
    # buffers and the guide tables (0.5 MiB each on mabc's 16 rows); a row
    # vector per agent and whole-episode scratch took 17.8 MB
    model = build_mabc(horizon=20)
    joint = plan(model, SolverConfig(max_trees=3, heuristics=("random",))).policy
    assert traced_peak_mb(lambda: simulate(model, joint, 200_000, 0)) < 14
    # the widest tables: 1,600 rows of 32 buckets each for T and O; the
    # peak measured 12.1 MB, and 14 MB leaves 1.9 MB of margin
    model, joint = _boxpush_planner_case()
    assert traced_peak_mb(lambda: simulate(model, joint, 200_000, 0)) < 14


def _row_sampler_draws(cumulative, rows, draws):
    n = len(draws)
    return _RowSampler(cumulative).draw(rows, draws, np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64))


@st.composite
def cumulative_tables(draw):
    """Cumulative rows of width 1 to 100: dusty, short of 1 by < PROB_TOL, unordered, or sparse.

    Sparse rows have a few outcomes of nonzero probability, so their
    cumulative values repeat; mixed with the other kinds they give rows
    of different distinct counts, which the sampler pads.  Edge rows put
    their values on and inside the guide's buckets: up to 4 rows get
    4,096 buckets each.
    """
    k = draw(st.sampled_from([1, 2, 3, 4, 7, 8, 16, 33, 100]))
    num_rows = draw(st.integers(1, 4))
    rows = []
    for _ in range(num_rows):
        kind = draw(st.sampled_from(["any", "dusty", "sparse", "edges"]))
        if kind == "any":
            # any row at all: the outcome is a count, whatever the order
            rows.append(draw(st.lists(st.floats(-PROB_TOL, 1.0), min_size=k, max_size=k)))
            continue
        if kind == "edges":
            # the edges of bucket b, two values inside it, negative dust
            # (below every bucket) and values of 1 or more (in none)
            b = draw(st.integers(0, 4095))
            pool = [b / 4096, (b + 0.25) / 4096, (b + 0.75) / 4096, (b + 1) / 4096,
                    -PROB_TOL, 1.0, 1.0 + PROB_TOL / 2]
            rows.append(sorted(draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))))
            continue
        # a sparse row has at most 4 outcomes of nonzero probability
        support = list(range(k)) if kind == "dusty" else sorted(
            draw(st.sets(st.integers(0, k - 1), min_size=1, max_size=min(k, 4)))
        )
        weights = np.zeros(k)
        weights[support] = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=len(support),
                                                  max_size=len(support)))) + 1e-3
        probs = weights / weights.sum()
        if kind == "dusty":
            dust = draw(st.lists(st.sampled_from([0.0, -PROB_TOL / 2, -PROB_TOL]), min_size=k, max_size=k))
            probs = probs + np.array(dust)
        probs[-1] -= draw(st.sampled_from([0.0, PROB_TOL / 3, 0.99 * PROB_TOL]))
        rows.append(np.cumsum(probs))
    return np.array(rows, dtype=float).reshape(num_rows, k)


@given(table=cumulative_tables(), data=st.data())
def test_row_sampler_matches_whole_row_comparison(table, data):
    n = data.draw(st.integers(1, 40))
    rows = np.array(data.draw(st.lists(st.integers(0, len(table) - 1), min_size=n, max_size=n)))
    # exactly 0, exactly an entry of the row, exactly an entry that its
    # row repeats, just above the row's largest entry, exactly on a guide
    # bucket's edge or just below it, or anywhere in [0, 1)
    entries = [float(x) for x in table.ravel() if 0.0 <= x < 1.0]
    repeated = [float(x) for row in table for x in row if 0.0 <= x < 1.0 and (row == x).sum() > 1]
    above = [float(np.nextafter(x, 1.0)) for x in table.max(axis=1) if 0.0 <= x < 1.0]
    buckets = _RowSampler(table).buckets
    assert buckets == 4096
    edge = st.integers(0, buckets - 1).map(lambda b: b / buckets)
    draw = st.one_of(
        st.just(0.0),
        st.floats(0.0, 1.0, exclude_max=True),
        edge,
        edge.map(lambda x: float(np.nextafter(x, 0.0))),
        *([st.sampled_from(entries)] if entries else []),
        *([st.sampled_from(repeated)] if repeated else []),
        *([st.sampled_from(above)] if above else []),
    )
    draws = np.array(data.draw(st.lists(draw, min_size=n, max_size=n)))
    got = _row_sampler_draws(table, rows, draws)
    np.testing.assert_array_equal(got, ref._sample_rows(table, (rows,), draws))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 8, 16, 33, 100])
def test_row_sampler_edge_draws(k):
    # a row short of 1 by less than PROB_TOL, with a dip (negative dust)
    probs = np.full(k, 1.0 / k)
    probs[-1] -= 0.5 * PROB_TOL
    if k > 2:
        probs[1], probs[2] = probs[1] + probs[2] + PROB_TOL, -PROB_TOL
    row = np.cumsum(probs)[None, :]
    # every bucket edge of the guide and the double below it
    buckets = _RowSampler(row).buckets
    edges = np.arange(buckets) / buckets
    draws = np.array([0.0, *row[0], *edges, *np.nextafter(edges, 0.0),
                      float(np.nextafter(row.max(), 1.0)), 1.0 - 2**-53])
    rows = np.zeros(len(draws), dtype=np.int64)
    got = _row_sampler_draws(row, rows, draws)
    np.testing.assert_array_equal(got, ref._sample_rows(row, (rows,), draws))
    assert got[0] == 0 and got[-2] == got[-1] == k - 1


@pytest.mark.parametrize("build,widths,guides", [
    (build_boxpush, (8, 4), ((32, 3734), (32, 1440))),
    (build_mabc, (4, 4), ((4096, 38), (4096, 48))),
    (build_tiger, (2, 4), ((2048, 17), (2048, 54))),
])
def test_row_sampler_searches_only_distinct_values(build, widths, guides):
    # a box-pushing T row moves to at most 4 of 100 states (5 distinct
    # cumulative values) and an O row is deterministic (2), so the search
    # is 3 and 2 steps wide; narrow models keep a width above K - 1.
    # Per table, the guide's buckets per row and its -1 entries: 7.3% and
    # 2.8% of box pushing's 1,600 x 32, 0.06% and 0.07% of mabc's 16 x 4,096
    model = build(horizon=2)
    transition = _RowSampler(np.cumsum(model.transition, axis=-1).reshape(-1, model.num_states))
    observation = _RowSampler(
        np.cumsum(model.observation, axis=-1).reshape(-1, model.num_joint_observations)
    )
    assert (transition.width, observation.width) == widths
    assert tuple((s.buckets, int((s.guide == -1).sum())) for s in (transition, observation)) == guides


@pytest.mark.parametrize("table", [
    # cut points on bucket edges; two distinct ones inside one bucket;
    # negative dust (below every bucket) and a cut point at 0; values of 1
    # or more (in no bucket), out of order
    [[0.25, 0.5, 0.5, 0.75, 1.0],
     [0.3, 0.3 + 1e-9, 0.6, 1.0, 1.0],
     [-PROB_TOL, -PROB_TOL / 2, 0.0, 0.4, 1.0],
     [0.5, 1.0, 1.0 + PROB_TOL / 2, 1.0 - PROB_TOL / 3, 1.0]],
    # K = 1: no kept values, every bucket gives outcome 0
    [[1.0], [1.0 - PROB_TOL / 2]],
])
def test_row_sampler_searches_exactly_the_draws_in_marked_buckets(table, monkeypatch):
    table = np.array(table)
    sampler = _RowSampler(table)
    buckets = sampler.buckets
    # bucket b of row r is marked -1 exactly when a distinct kept value
    # lies in [b / B, (b + 1) / B); the others, and the entry for a draw
    # of exactly 1, hold the outcome
    kept = np.sort(table, axis=1)[:, :-1]
    marked = np.zeros((len(table), buckets + 1), dtype=bool)
    inside = (kept >= 0) & (kept < 1)
    marked[np.nonzero(inside)[0], np.floor(kept[inside] * buckets).astype(int)] = True
    np.testing.assert_array_equal(sampler.guide.reshape(len(table), buckets + 1) == -1, marked)

    searched = []
    search = _RowSampler._search

    def spy(self, rows, draws):
        searched.append((rows, draws))
        return search(self, rows, draws)

    monkeypatch.setattr(_RowSampler, "_search", spy)
    edges = np.arange(buckets) / buckets
    u = np.concatenate([edges, np.nextafter(edges, 0.0), edges + 0.5 / buckets])
    rows = np.repeat(np.arange(len(table)), len(u))
    draws = np.tile(u, len(table))
    got = _row_sampler_draws(table, rows, draws)
    np.testing.assert_array_equal(got, ref._sample_rows(table, (rows,), draws))
    in_marked = marked[rows, np.floor(draws * buckets).astype(int)]
    assert in_marked.any() == bool(searched)
    if searched:
        (search_rows, search_draws), = searched
        np.testing.assert_array_equal(search_rows, rows[in_marked])
        np.testing.assert_array_equal(search_draws, draws[in_marked])


_LEAF = PolicyTree(0)
_NODE = PolicyTree(0, (PolicyTree(0), PolicyTree(1)))
BAD_JOINTS = {
    "one tree": ((_NODE,), EvaluationError, "expected 2 trees, got 1"),
    "three trees": ((_NODE, _NODE, _NODE), EvaluationError, "expected 2 trees, got 3"),
    "leaf first": ((_LEAF, _NODE), EvaluationError, "mixes tree depths"),
    "leaf last": ((_NODE, _LEAF), EvaluationError, "mixes tree depths"),
    "missing branch": ((_NODE, PolicyTree(2, (_LEAF, None))), EvaluationError, "missing the branch"),
    "too few branches": ((_NODE, PolicyTree(2, (_LEAF,))), EvaluationError, "missing the branch"),
    "too many branches": (
        (_NODE, PolicyTree(0, (_LEAF, _LEAF, PolicyTree(2)))), EvaluationError, "agent 1 policy needs 2 branches"
    ),
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

    def test_shared_format_round_trip(self, tiger, monkeypatch):
        joint = random_joint(5, tiger, 2)
        nested = serialize_policy(tiger, joint)
        monkeypatch.setattr(policy_module, "INLINE_NODE_LIMIT", 0)
        shared = serialize_policy(tiger, joint)
        assert nested != shared
        a = evaluate_at_belief(tiger, parse_policy(tiger, nested), tiger.initial_belief)
        b = evaluate_at_belief(tiger, parse_policy(tiger, shared), tiger.initial_belief)
        assert a == pytest.approx(b, abs=1e-12)

    def test_round_trip_preserves_structure(self, tiger):
        joint = random_joint(6, tiger, 2)
        back = parse_policy(tiger, serialize_policy(tiger, joint))
        assert_same_tables(tiger, back, joint)

    def test_garbage_rejected_with_position(self, tiger):
        with pytest.raises(ParseError) as exc:
            parse_policy(tiger, "agent 0:\n  (listen")
        assert "line" in str(exc.value)

    def test_unknown_action_rejected(self, tiger):
        text = serialize_policy(tiger, random_joint(8, tiger, 2))
        with pytest.raises(ParseError):
            parse_policy(tiger, text.replace("listen", "shout"))

    @pytest.mark.parametrize("field, value", [
        ("reference", True), ("reference", 1.0), ("agent", False), ("agent", 0.0), ("root", 2.0),
        ("root", True), ("version", True), ("version", 1.0), ("horizon", 2.0), ("horizon", "2"),
    ])
    def test_integer_fields_reject_bools_and_floats(self, tiger, shared_form, field, value):
        # node 2 is the root, with leaves 0 and 1 as its children
        doc = json.loads(serialize_policy(tiger, random_joint(9, tiger, 2)))
        entry = doc["agents"][0]
        assert entry["root"] == 2 and entry["nodes"][2]["children"] == {"hear-left": 0, "hear-right": 1}
        if field == "reference":
            entry["nodes"][2]["children"]["hear-right"] = value
        elif field in ("agent", "root"):
            entry[field] = value
        else:
            doc[field] = value
        with pytest.raises(ParseError):
            parse_policy(tiger, json.dumps(doc))

    @pytest.mark.parametrize("form", ["nested", "shared"])
    def test_uneven_child_depths_are_a_parse_error(self, tiger, form):
        leaf = {"action": "listen"}
        inner = {"action": "open-left", "children": {"hear-left": leaf, "hear-right": leaf}}
        root = {"action": "listen", "children": {"hear-left": leaf, "hear-right": inner}}
        entries = [{"agent": i, "tree": root} for i in range(2)]
        if form == "shared":
            nodes = [leaf, {**inner, "children": {"hear-left": 0, "hear-right": 0}},
                     {**root, "children": {"hear-left": 0, "hear-right": 1}}]
            entries = [{"agent": i, "root": 2, "nodes": nodes} for i in range(2)]
        text = json.dumps({"format": "mbdp-joint-policy", "version": 1, "representation": form, "agents": entries})
        with pytest.raises(ParseError, match="agent 0: child depths (of node 2 )?differ"):
            parse_policy(tiger, text)

    @pytest.mark.parametrize("stray, message", [
        ({"action": "shout"}, "unknown action 'shout' at node 3"),
        ("listen", "node 3 is not an object with an action"),
        ({"action": "listen", "children": [0, 1]}, "children of node 3 are not an object"),
        ({"action": "listen", "children": {"hear-left": 0}}, "node 3 is missing the branch for observation 'hear-right'"),
        ({"action": "listen", "children": {"hear-left": 0, "hear-right": 0, "hum": 0}}, "unknown observation 'hum'"),
        ({"action": "listen", "children": {"hear-left": 0, "hear-right": 7}}, "node 3 references 7"),
        ({"action": "listen", "children": {"hear-left": 0, "hear-right": False}}, "node 3 references False"),
        ({"action": "listen", "children": {"hear-left": 0, "hear-right": 2}}, "child depths of node 3 differ"),
    ])
    def test_shared_file_rejects_a_malformed_node_the_root_never_reaches(self, tiger, shared_form, stray, message):
        doc = json.loads(serialize_policy(tiger, random_joint(9, tiger, 2)))
        doc["agents"][1]["nodes"].append(stray)
        with pytest.raises(ParseError, match=f"^agent 1: {message}"):
            parse_policy(tiger, json.dumps(doc))

    def test_shared_form_numbers_nodes_in_post_order(self, tiger, shared_form):
        # post-order from the root reaches leaf l1 only after mid node m1
        # is finished, so the numbering is not deepest-level first
        l0, l1 = PolicyTree(0), PolicyTree(1)
        m1, m2 = PolicyTree(2, (l0, l0)), PolicyTree(0, (l1, l0))
        root = PolicyTree(1, (m1, m2))
        doc = json.loads(serialize_policy(tiger, (root, root)))
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
        assert_same_tables(model, back, joint)
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
