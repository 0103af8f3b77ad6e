"""Solvers and baselines return their policies as integer tables.

The oracles are the node-building versions in ``_reference``: each
solver's and baseline's tables must equal ``CompiledPolicy`` of the
reference trees, and no ``PolicyTree`` may be built on the way.
"""

import json

import numpy as np
import pytest

import mbdp.policy as policy_module
import mbdp.solver as solver_module
from mbdp import (
    CompiledPolicy,
    EvaluationError,
    JointPolicy,
    ModelError,
    PolicyEvaluator,
    PolicyTree,
    SolverConfig,
    build_boxpush,
    build_mabc,
    build_tiger,
    evaluate_at_belief,
    exact_solve,
    improved_mbdp,
    mbdp,
    parse_policy,
    random_policy_baseline,
    serialize_policy,
    simulate,
)

import _reference as ref
from conftest import assert_same_tables, three_agent_model


def assert_evaluates_like_reference(model, policy):
    """The evaluator's value vector has the bits of the top-down reference's."""
    got = PolicyEvaluator(model).value_vector(policy)
    assert np.array_equal(got, ref.value_vector_reference(model, policy))


SOLVES = {
    "mbdp-mabc": (lambda: mbdp(build_mabc(horizon=30), SolverConfig(seed=1)), build_mabc, 30),
    "improved-tiger-replay": (
        lambda: improved_mbdp(build_tiger(horizon=6), SolverConfig(max_trees=4, max_obs=1, recursion_depth=1)),
        build_tiger,
        6,
    ),
    "improved-boxpush": (
        lambda: improved_mbdp(build_boxpush(horizon=6), SolverConfig(max_trees=3, max_obs=2, seed=1)),
        build_boxpush,
        6,
    ),
    "mbdp-three-agent-replay": (
        lambda: mbdp(three_agent_model(5), SolverConfig(max_trees=2, seed=4, recursion_depth=1)),
        three_agent_model,
        5,
    ),
    "exact-tiger": (lambda: exact_solve(build_tiger(horizon=3)), build_tiger, 3),
    "exact-mabc": (lambda: exact_solve(build_mabc(horizon=3)), build_mabc, 3),
    "exact-three-agent": (lambda: exact_solve(three_agent_model(2)), three_agent_model, 2),
}


@pytest.mark.parametrize("case", SOLVES)
def test_solver_tables_equal_the_reference_trees(monkeypatch, case):
    # every call of _materialize, one per round for the planners, is
    # checked against the node-building reference on the same levels
    solve, build, horizon = SOLVES[case]
    model = build(horizon=horizon)
    calls = []
    materialize = solver_module._materialize

    def recorded(levels):
        policy = materialize(levels)
        calls.append((policy, ref.materialize_reference(levels)))
        return policy

    monkeypatch.setattr(solver_module, "_materialize", recorded)
    result = solve()
    if "replay" in case:
        assert len(calls) == 2
    for policy, reference in calls:
        assert policy.depth == horizon
        assert_same_tables(model, policy, reference)
        assert_evaluates_like_reference(model, policy)
    reference = next(reference for policy, reference in calls if policy is result.policy)
    assert evaluate_at_belief(model, reference, model.initial_belief) == pytest.approx(result.value, abs=1e-9)


BASELINES = [
    # (model, horizon, RANDOM_NODE_CAP, RANDOM_LEVEL_WIDTH): the first four draw whole trees, the rest wide levels
    (build_tiger, 4, 50_000, 32),
    (three_agent_model, 3, 50_000, 32),
    (build_mabc, 6, 50_000, 32),
    (build_boxpush, 4, 50_000, 32),
    (build_mabc, 6, 10, 3),
    (build_mabc, 9, 50_000, 32),
    (build_boxpush, 10, 50_000, 32),
    (build_mabc, 30, 50_000, 32),
    (three_agent_model, 5, 0, 2),
]


def capped_baseline(monkeypatch, model, node_cap, level_width, **kwargs):
    """``random_policy_baseline`` with ``RANDOM_NODE_CAP`` and ``RANDOM_LEVEL_WIDTH`` set to the given values."""
    monkeypatch.setattr(solver_module, "RANDOM_NODE_CAP", node_cap)
    monkeypatch.setattr(solver_module, "RANDOM_LEVEL_WIDTH", level_width)
    return random_policy_baseline(model, **kwargs)


@pytest.mark.parametrize("build,horizon,node_cap,level_width", BASELINES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_baseline_tables_equal_the_reference_trees(build, horizon, node_cap, level_width, seed, monkeypatch):
    model = build(horizon=horizon)
    got = capped_baseline(monkeypatch, model, node_cap, level_width, samples=1, seed=seed)
    rng = np.random.default_rng(seed)
    trees = tuple(
        ref.random_tree_reference(model, i, horizon, rng, node_cap, level_width)
        for i in range(model.num_agents)
    )
    assert_same_tables(model, got.policy, trees)
    assert_evaluates_like_reference(model, got.policy)
    assert got.value == evaluate_at_belief(model, trees, model.initial_belief)


@pytest.mark.parametrize("build,horizon,node_cap,level_width", BASELINES)
def test_baseline_mean_equals_the_reference_draws(build, horizon, node_cap, level_width, monkeypatch):
    model = build(horizon=horizon)
    got = capped_baseline(monkeypatch, model, node_cap, level_width, samples=5, seed=0)
    rng = np.random.default_rng(0)
    values = [
        evaluate_at_belief(
            model,
            tuple(ref.random_tree_reference(model, i, horizon, rng, node_cap, level_width)
                  for i in range(model.num_agents)),
            model.initial_belief,
        )
        for _ in range(5)
    ]
    assert got.policy is None
    assert got.value == float(np.mean(values))
    assert got.std_error == float(np.std(values, ddof=1) / np.sqrt(5))


@pytest.mark.parametrize(
    "build,whole", [(build_tiger, 8), (build_mabc, 8), (build_boxpush, 4), (three_agent_model, 5)]
)
def test_baseline_draws_whole_trees_while_the_deepest_grid_fits_node_cap(build, whole):
    # the default RANDOM_NODE_CAP of 50,000 against prod_i |O_i|^(h - 1): two
    # agents of 2 observations reach 4^7 = 16,384 at h=8 and 65,536 at h=9,
    # box pushing 25^3 = 15,625 at h=4 and 390,625 at h=5, and the three
    # agents of (2, 2, 3) observations 12^4 = 20,736 at h=5 and 248,832 at h=6
    for horizon in (whole, whole + 1):
        model = build(horizon=horizon)
        policy = random_policy_baseline(model, samples=1, seed=0).policy
        deepest = [len(acts[-1]) for acts in policy.actions]
        if horizon == whole:
            assert deepest == [n ** (horizon - 1) for n in model.observation_counts]
        else:
            assert max(deepest) <= 32


def test_solvers_and_baselines_build_no_policy_tree(monkeypatch):
    built = []
    init = PolicyTree.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PolicyTree, "__init__", counted)
    reports = [
        mbdp(build_mabc(horizon=20), SolverConfig(recursion_depth=1)),
        improved_mbdp(build_tiger(horizon=5), SolverConfig(max_trees=3, max_obs=1, recursion_depth=1)),
        improved_mbdp(build_boxpush(horizon=4), SolverConfig(max_trees=2, max_obs=2)),
        exact_solve(build_tiger(horizon=3)),
        random_policy_baseline(build_tiger(horizon=4), samples=1, seed=0),
        random_policy_baseline(build_mabc(horizon=30), samples=1, seed=0),
        capped_baseline(monkeypatch, build_mabc(horizon=8), 10, 32, samples=3, seed=0),
    ]
    files = [
        (build_tiger(horizon=3), exact_solve(build_tiger(horizon=3)).policy, "nested"),
        (build_mabc(horizon=20), reports[0].policy, "shared"),
    ]
    for model, policy, form in files:
        text = serialize_policy(model, policy)
        assert json.loads(text)["representation"] == form
        assert_holds(parse_policy(model, text), *written_tables(policy, form))
    assert built == []
    # the counter sees nodes once they are asked for
    assert reports[0].policy.trees[0].depth == 20
    assert built


def written_tables(policy, form):
    """The (actions, children) tables that reading ``policy``'s file of the given form gives.

    A shared file keeps the policy's rows.  A nested file writes a shared
    row out at every reference, and the reader keeps each record as a row:
    numbered parent row first, then observation, row r of one depth has
    children r * k to r * k + k - 1.
    """
    if form == "shared":
        return policy.actions, policy.children
    actions, children = [], []
    for acts, kids in zip(policy.actions, policy.children):
        rows = np.zeros(1, dtype=np.int64)
        actions.append([acts[0][rows]])
        children.append([])
        for level, table in zip(acts[1:], kids):
            below = table[rows]
            children[-1].append(np.arange(below.size, dtype=np.int64).reshape(below.shape))
            rows = below.ravel()
            actions[-1].append(level[rows])
    return actions, children


def assert_holds(policy, actions, children):
    """``policy`` holds exactly these int64 tables, per agent and depth."""
    for got, want in ((policy.actions, actions), (policy.children, children)):
        assert len(got) == len(want)
        for mine, theirs in zip(got, want):
            assert len(mine) == len(theirs)
            assert all(a.dtype == np.int64 and np.array_equal(a, b) for a, b in zip(mine, theirs))


def _dag_policy():
    leaf0, leaf1 = PolicyTree(0), PolicyTree(1)
    mid0, mid1 = PolicyTree(2, (leaf0, leaf0)), PolicyTree(0, (leaf1, leaf0))
    return JointPolicy((PolicyTree(1, (mid0, mid1)), PolicyTree(0, (mid1, mid1))))


ROUND_TRIPS = {
    # name: (model, policy of the model, forms that can hold it)
    "boxpush-improved-5x3": (
        lambda: build_boxpush(horizon=4),
        lambda model: improved_mbdp(model, SolverConfig(max_trees=5, max_obs=3, seed=0)).policy,
        ("shared", "nested"),
    ),
    "tiger-hand-built-dag": (lambda: build_tiger(horizon=3), lambda model: _dag_policy(), ("shared", "nested")),
    "three-agent": (
        lambda: three_agent_model(4),
        lambda model: mbdp(model, SolverConfig(max_trees=2, seed=4)).policy,
        ("shared", "nested"),
    ),
    "tiger-depth-1": (lambda: build_tiger(horizon=1), lambda model: exact_solve(model).policy, ("shared", "nested")),
    # deeper than NESTED_MAX_DEPTH, so only the shared form holds it
    "mabc-baseline-h300": (
        lambda: build_mabc(horizon=300),
        lambda model: random_policy_baseline(model, samples=1, seed=0).policy,
        ("shared",),
    ),
}


@pytest.mark.parametrize("case, form", [(case, form) for case, spec in ROUND_TRIPS.items() for form in spec[2]])
def test_parsed_tables_equal_the_written_ones(monkeypatch, case, form):
    build, solve, _ = ROUND_TRIPS[case]
    model = build()
    policy = solve(model)
    monkeypatch.setattr(policy_module, "INLINE_NODE_LIMIT", 0 if form == "shared" else 10**9)
    text = serialize_policy(model, policy)
    assert json.loads(text)["representation"] == form
    back = parse_policy(model, text)
    assert_holds(back, *written_tables(policy, form))
    assert serialize_policy(model, back) == text


def test_compiling_a_table_policy_walks_no_nodes(monkeypatch):
    model = build_mabc(horizon=40)
    policy = mbdp(model, SolverConfig()).policy

    def walk(*args):
        raise AssertionError("a table-held policy was walked node by node")

    monkeypatch.setattr(policy_module, "_compile", walk)
    compiled = CompiledPolicy(model, policy)
    assert compiled.actions is policy.actions and compiled.children is policy.children
    simulate(model, policy, 100, 0)
    serialize_policy(model, policy)


def test_trees_share_one_node_per_row_and_round_trip():
    model = build_mabc(horizon=100)
    policy = mbdp(model, SolverConfig(max_trees=3, heuristics=("random",))).policy
    for root, acts in zip(policy.trees, policy.actions):
        nodes, stack = {}, [root]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node.children)
        assert len(nodes) == sum(len(a) for a in acts)
    assert policy.trees is policy.trees
    # trees compile back to the same tables, and so does a parsed file
    for joint in (JointPolicy(policy.trees), parse_policy(model, serialize_policy(model, policy))):
        assert_same_tables(model, joint, policy.trees)


def test_table_policy_is_immutable():
    policy = mbdp(build_tiger(horizon=3), SolverConfig(max_trees=2)).policy
    with pytest.raises(ValueError):
        policy.actions[0][0][0] = 1
    with pytest.raises(ValueError):
        policy.children[1][0][0, 0] = 0
    with pytest.raises(AttributeError):
        policy.actions = ()


def test_compiled_policy_checks_held_tables_against_the_model(tiger):
    leaf = PolicyTree(0)
    node = PolicyTree(0, (leaf, leaf))
    wide = PolicyTree(0, (leaf, leaf, leaf))
    cases = [
        (JointPolicy((node,)), EvaluationError, "expected 2 trees, got 1"),
        (JointPolicy((node, wide)), EvaluationError, "agent 1 policy needs 2 branches per node"),
        (JointPolicy((node, PolicyTree(1, (leaf, PolicyTree(3))))), ModelError, "action 3 out of range"),
    ]
    for joint, error, message in cases:
        with pytest.raises(error, match=message):
            CompiledPolicy(tiger, joint)


def test_joint_policy_from_trees_rejects_incomplete_and_mixed_trees():
    leaf = PolicyTree(0)
    with pytest.raises(EvaluationError, match="missing the branch"):
        JointPolicy((PolicyTree(0, (leaf, None)),))
    wide = PolicyTree(0, (leaf, leaf, leaf))
    with pytest.raises(EvaluationError, match="agent 0 policy needs 2 branches per node"):
        JointPolicy((PolicyTree(0, (wide, wide)),))
    with pytest.raises(ModelError, match="trees of one depth"):
        JointPolicy((leaf, PolicyTree(0, (leaf, leaf))))
    with pytest.raises(ModelError, match="trees of one depth"):
        JointPolicy(())


def test_from_tables_keeps_reached_rows_in_first_reference_order():
    # depth 1 holds an unreached row 0; rows are renumbered by first reference
    policy = JointPolicy._from_tables(
        [[[1], [2, 0, 1], [0, 1, 0]]],
        [[[[2, 1]], [[9, 9], [2, 0], [0, 2]]]],
    )
    assert [a.tolist() for a in policy.actions[0]] == [[1], [1, 0], [0, 0]]
    assert [c.tolist() for c in policy.children[0]] == [[[0, 1]], [[0, 1], [1, 0]]]
