"""The planner's joint value-tensor kernel against the recursive oracles."""

import itertools
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mbdp import (
    BeliefState,
    CandidateSet,
    ConfigError,
    DecPomdp,
    ObservationSelection,
    SolverConfig,
    build_boxpush,
    exact_solve,
    exhaustive_backup,
    fill_missing,
    improved_mbdp,
    mbdp,
    partial_backup,
    serialize_policy,
)
from mbdp.backup import (
    backup_values,
    belief_scores,
    picked_values,
    prune_value_tensor,
    table_rows,
)
import mbdp.solver as solver_module
from mbdp.solver import TIE_TOL, _best_response, _best_tuple

import _reference as ref
from conftest import random_model

AGENT_SHAPES = {
    2: dict(action_counts=(2, 3), obs_counts=(3, 2)),
    3: dict(action_counts=(2, 2, 2), obs_counts=(2, 2, 1)),
}


def two_agent_or_three(seed, agents, horizon=3):
    return random_model(seed, num_states=3, horizon=horizon, **AGENT_SHAPES[agents])


def leaf_values(model):
    leaves = exhaustive_backup(model, None)
    return ref.table_trees(leaves), backup_values(model, leaves, None)


def pick(trees, values, rng, keep):
    """A random selection of ``keep`` rows per agent, their trees and sub-tensor."""
    rows = [sorted(rng.choice(len(ts), size=min(keep, len(ts)), replace=False)) for ts in trees]
    chosen = tuple(tuple(ts[r] for r in rs) for ts, rs in zip(trees, rows))
    return chosen, values[np.ix_(*rows)]


def assert_matches_recursion(model, trees, values):
    for idx in itertools.product(*(range(len(ts)) for ts in trees)):
        joint = tuple(ts[i] for ts, i in zip(trees, idx))
        want = [ref.tree_value(model, joint, s) for s in range(model.num_states)]
        np.testing.assert_allclose(values[idx], want, rtol=0, atol=1e-9)


@given(seed=st.integers(0, 5_000), agents=st.sampled_from([2, 3]))
@settings(max_examples=8)
def test_tensor_entries_match_recursive_values(seed, agents):
    model = two_agent_or_three(seed, agents)
    rng = np.random.default_rng(seed)
    trees, values = leaf_values(model)
    assert_matches_recursion(model, trees, values)
    for _ in range(2):
        chosen, prev = pick(trees, values, rng, keep=2)
        sets = exhaustive_backup(model, prev.shape[:-1])
        values = backup_values(model, sets, prev)
        trees = ref.table_trees(sets, chosen)
        assert_matches_recursion(model, trees, values)


def brute_force_pick(values, belief, exclude):
    sizes = values.shape[:-1]
    allowed = [
        [r for r in range(size) if r not in exclude[i]] for i, size in enumerate(sizes)
    ]
    scored = [
        (float(values[idx] @ belief), idx) for idx in itertools.product(*allowed)
    ]
    best = max(score for score, _ in scored)
    return next(
        (idx, score) for score, idx in scored if score >= best - 1e-12 * max(1.0, abs(best))
    )


@given(seed=st.integers(0, 5_000), agents=st.sampled_from([2, 3]))
@settings(max_examples=25)
def test_masked_pick_matches_brute_force_scan(seed, agents):
    rng = np.random.default_rng(seed)
    sizes = tuple(int(k) for k in rng.integers(2, 5, size=agents))
    values = rng.normal(size=sizes + (3,))
    belief = rng.dirichlet(np.ones(3))
    exclude = [sorted(rng.choice(size, size=int(rng.integers(0, size)), replace=False)) for size in sizes]
    idx, score = _best_tuple(values @ belief, exclude=[list(map(int, e)) for e in exclude])
    want_idx, want_score = brute_force_pick(values, belief, exclude)
    assert idx == want_idx
    assert score == pytest.approx(want_score, abs=1e-12)


def test_one_ulp_tie_goes_to_lowest_index():
    values = np.zeros((2, 2, 1))
    values[0, 1, 0] = 183.42
    values[1, 0, 0] = np.nextafter(183.42, np.inf)
    belief = np.ones(1)
    assert _best_tuple(values @ belief)[0] == (0, 1)
    # with the tie's first tuple masked, the later one wins
    assert _best_tuple(values @ belief, exclude=[[0], []])[0] == (1, 0)
    # a gap well above the tolerance is not a tie
    values[1, 0, 0] = 183.42 + 1e-6
    assert _best_tuple(values @ belief)[0] == (1, 0)


def planted_scores(rng, shape, scale, shift):
    """Random score columns with exact ties and ties at, inside and outside each column's tie floor."""
    scores = rng.normal(size=shape) * scale + shift
    for column in scores.reshape(shape[0], -1):
        best = float(column.max())
        floor = best - TIE_TOL * max(1.0, abs(best))
        spots = rng.permutation(column.size)
        column[spots[:2]] = best
        column[spots[2:3]] = floor
        column[spots[3:4]] = np.nextafter(floor, np.inf)
        column[spots[4:5]] = np.nextafter(floor, -np.inf)
    return scores


# (scale, shift): the best score above 1 or below 1 in magnitude, of either sign
SCORE_RANGES = [(0.1, 0.0), (0.1, -0.5), (100.0, 0.0), (100.0, -1000.0)]


@pytest.mark.parametrize("agents", [2, 3])
@pytest.mark.parametrize("scale,shift", SCORE_RANGES)
def test_best_tuple_and_pick_match_the_frozen_rule(agents, scale, shift):
    rng = np.random.default_rng([agents, int(scale), int(-shift)])
    for _ in range(60):
        sizes = tuple(int(k) for k in rng.integers(1, 9 - agents, size=agents))
        # the planner scores at most as many columns as the smallest table has rows
        k = int(rng.integers(1, min(sizes) + 1))
        scores = planted_scores(rng, (k,) + sizes, scale, shift)
        # some agents' rows all excluded: every score is -inf
        exclude = [sorted(rng.choice(size, size=int(rng.integers(0, size + 1)), replace=False).tolist())
                   for size in sizes]
        got, want = scores[0].copy(), scores[0].copy()
        assert _best_tuple(got, exclude) == ref.best_tuple_frozen(want, exclude)
        assert np.array_equal(got, want)
        assert _best_tuple(scores[0].copy()) == ref.best_tuple_frozen(scores[0].copy())
        got, want = scores.copy(), scores.copy()
        assert solver_module._pick(got) == ref.pick_frozen(want)
        assert np.array_equal(got, want)


def reference_fill(model, partial, donors, belief):
    """The fill's hill climb, valuing each configuration by recursion."""
    n = model.num_agents
    rows = [np.maximum(kids, 0) for kids in partial.children]
    sizes = partial.sizes

    def value(idx):
        trees = ref.table_trees(CandidateSet(partial.actions, rows), donors)
        return ref.belief_value(model, tuple(trees[i][idx[i]] for i in range(n)), belief)

    for c in range(max(sizes)):
        idx = tuple(c % size for size in sizes)
        owned = [
            (i, o)
            for i in range(n)
            if c < sizes[i]
            for o in np.flatnonzero(partial.children[i][idx[i]] < 0)
        ]
        improved = bool(owned)
        while improved:
            improved = False
            for i, o in owned:
                current = value(idx)
                incumbent = rows[i][idx[i], o]
                best, best_row = current, incumbent
                for r in range(len(donors[i])):
                    rows[i][idx[i], o] = r
                    v = value(idx)
                    if v > best + 1e-9:
                        best, best_row = v, r
                rows[i][idx[i], o] = best_row
                improved |= best_row != incumbent
    return rows


@given(seed=st.integers(0, 5_000), agents=st.sampled_from([2, 3]))
@settings(max_examples=15)
def test_fill_matches_reference_hill_climb(seed, agents):
    model = two_agent_or_three(seed, agents)
    rng = np.random.default_rng(seed)
    trees, values = leaf_values(model)
    donors, prev = pick(trees, values, rng, keep=2)
    selection = ObservationSelection(tuple((0,) for _ in range(agents)))
    partial = partial_backup(model, prev.shape[:-1], selection)
    filled = fill_missing(model, partial, prev, model.initial_belief)
    want = reference_fill(model, partial, donors, model.initial_belief)
    for got, expected in zip(filled.children, want):
        np.testing.assert_array_equal(got, expected)


def backed_up_tables(model, rng, keep):
    """(prev, full table, filled partial table) one level above random leaf picks.

    Each agent picks ``keep`` leaf rows with one repeated, so the donor
    lists hold duplicate tensor rows as the planner's can.
    """
    leaves = exhaustive_backup(model, None)
    values = backup_values(model, leaves, None)
    rows = [
        np.append(rng.choice(n, size=keep - 1), 0) for n in leaves.sizes
    ]
    prev = values[np.ix_(*rows)]
    donors = prev.shape[:-1]
    selection = ObservationSelection(
        tuple(
            tuple(rng.choice(n, size=max(1, n - 1), replace=False).tolist())
            for n in model.observation_counts
        )
    )
    belief = BeliefState(rng.dirichlet(np.ones(model.num_states)))
    filled = fill_missing(model, partial_backup(model, donors, selection), prev, belief)
    return prev, exhaustive_backup(model, donors), filled


@pytest.mark.parametrize("num_states", [2, 3, 4, 7, 100])
@pytest.mark.parametrize("agents", [2, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_backup_values_equals_reference_bitwise(seed, agents, num_states):
    # three donors per agent make 1458 (2 agents) and 1944 (3 agents)
    # output tuples: several value blocks at 100 states
    model = random_model(seed, num_states=num_states, **AGENT_SHAPES[agents])
    leaves = exhaustive_backup(model, None)
    assert np.array_equal(
        backup_values(model, leaves, None), ref.backup_values_reference(model, leaves, None)
    )
    prev, full, filled = backed_up_tables(model, np.random.default_rng(seed), keep=3)
    for table in (full, filled):
        got = backup_values(model, table, prev)
        assert np.array_equal(got, ref.backup_values_reference(model, table, prev))
        # the level above reads a sub-tensor of this one; with one child
        # tuple (M = 1) a 2-D product of another layout sums in another order
        for keep in (1, 2):
            upper = exhaustive_backup(model, (keep,) * agents)
            sub = got[np.ix_(*[[0, len(r) - 1][:keep] for r in table.actions])]
            assert np.array_equal(
                backup_values(model, upper, sub), ref.backup_values_reference(model, upper, sub)
            )


@pytest.mark.parametrize("num_beliefs", [1, 3])
@pytest.mark.parametrize("keep", [1, 3])
@pytest.mark.parametrize("agents", [2, 3])
def test_belief_scores_and_picked_rows_match_the_whole_tensor(agents, keep, num_beliefs):
    # the planner scores every tuple at its beliefs without the tensor, and
    # builds S-wide rows for the picked tuples alone, bit for bit the
    # tensor's; keep = 1 makes one child tuple (M = 1)
    model = random_model(5, num_states=7, **AGENT_SHAPES[agents])
    rng = np.random.default_rng(5)
    prev, full, filled = backed_up_tables(model, rng, keep=keep)
    beliefs = rng.dirichlet(np.ones(model.num_states), size=num_beliefs)
    leaves = exhaustive_backup(model, None)
    for table, below in ((leaves, None), (full, prev), (filled, prev)):
        tensor = backup_values(model, table, below)
        rows, terms = table_rows(model, table, None if below is None else below.shape[:-1])
        np.testing.assert_allclose(
            belief_scores(model, rows, below, beliefs),
            np.moveaxis(tensor @ beliefs.T, -1, 0),
            rtol=1e-13,
            atol=1e-13,
        )
        # one pick per agent, as at the top level, and lists with repeats
        for count in (1, 4):
            picked = [rng.choice(size, size=count).tolist() for size in table.sizes]
            assert np.array_equal(
                picked_values(model, terms, picked, below), tensor[np.ix_(*picked)]
            )


def test_table_rows_refuse_open_branches_and_missing_donors():
    model = two_agent_or_three(4, 2)
    partial = partial_backup(model, (2, 2), ObservationSelection(((0,), (1,))))
    with pytest.raises(ConfigError, match="unassigned branches"):
        table_rows(model, partial, (2, 2))
    with pytest.raises(ConfigError, match="donor row"):
        table_rows(model, exhaustive_backup(model, (3, 3)), (2, 2))


def test_gather_plan_follows_model_and_donor_counts():
    model = two_agent_or_three(4, 2)
    other = two_agent_or_three(5, 2)
    rng = np.random.default_rng(4)
    table = exhaustive_backup(model, (2, 2))
    # the table's child rows are valid for any donor counts from 2 up
    for m, donors in ((model, (2, 2)), (model, (3, 2)), (other, (3, 2)), (model, (2, 2))):
        prev = rng.normal(size=donors + (model.num_states,))
        assert np.array_equal(
            backup_values(m, table, prev), ref.backup_values_reference(m, table, prev)
        )
    with pytest.raises(ConfigError, match="donor row"):
        backup_values(model, exhaustive_backup(model, (3, 3)), rng.normal(size=(2, 2, 3)))


# 12 joint observations: each share sums 3 or 4 of them, in jo order
FILL_SHAPES = {**AGENT_SHAPES, "12 obs": dict(action_counts=(2, 2), obs_counts=(3, 4))}


@given(
    seed=st.integers(0, 5_000),
    shape=st.sampled_from(sorted(FILL_SHAPES, key=str)),
    keep=st.integers(1, 4),
    num_states=st.sampled_from([2, 3, 5]),
)
@settings(max_examples=40)
def test_fill_equals_reference_bitwise(seed, shape, keep, num_states):
    model = random_model(seed, num_states=num_states, **FILL_SHAPES[shape])
    rng = np.random.default_rng(seed)
    leaves = exhaustive_backup(model, None)
    values = backup_values(model, leaves, None)
    prev = values[np.ix_(*[rng.choice(n, size=keep) for n in leaves.sizes])]
    selection = ObservationSelection(
        tuple((int(rng.integers(n)),) for n in model.observation_counts)
    )
    partial = partial_backup(model, prev.shape[:-1], selection)
    belief = BeliefState(rng.dirichlet(np.ones(num_states)))
    got = fill_missing(model, partial, prev, belief)
    want = ref.fill_missing_reference(model, partial, prev, belief)
    for a, b in zip(got.children, want.children):
        assert np.array_equal(a, b)


def assert_fill_is_reference(model, partial, prev, belief):
    got = fill_missing(model, partial, prev, belief)
    want = ref.fill_missing_reference(model, partial, prev, belief)
    for a, b in zip(got.children, want.children):
        assert np.array_equal(a, b)
    return got


def test_fill_equals_reference_on_box_pushing_levels(monkeypatch):
    # every fill of a box-pushing h=10 solve at (3, 3): 108 configurations
    # climb in one batch, and each share sums 5 of the 25 joint observations
    calls = []

    def spy(*args):
        calls.append(args)
        return fill_missing(*args)

    monkeypatch.setattr(solver_module, "fill_missing", spy)
    improved_mbdp(build_boxpush(horizon=10), SolverConfig(max_trees=3, max_obs=3, seed=0))
    assert len(calls) == 9
    for model, partial, prev, belief in calls:
        assert partial.sizes == (108, 108) and model.num_joint_observations == 25
        assert_fill_is_reference(model, partial, prev, belief)


def hand_built_partial(model, rng, sizes, donors, hole_rate=None):
    """A partial table of the given sizes, with random actions and children.

    With ``hole_rate`` None each agent keeps one random observation
    column, as ``partial_backup`` would; otherwise every entry outside
    each third row is a hole with that probability, so rows differ in
    their hole sets and some have none.
    """
    actions, children = [], []
    for i, (size, num_obs) in enumerate(zip(sizes, model.observation_counts)):
        actions.append(rng.integers(model.action_counts[i], size=size))
        kids = rng.integers(donors[i], size=(size, num_obs))
        if hole_rate is None:
            kids[:, np.arange(num_obs) != rng.integers(num_obs)] = -1
        else:
            holes = rng.random(kids.shape) < hole_rate
            holes[::3] = False
            kids[holes] = -1
        children.append(kids)
    return CandidateSet(tuple(actions), tuple(children))


# (observation counts, table sizes, donor counts): the shorter tables
# wrap, and with 12 or 18 joint observations a share sums up to 9 terms
WRAPPED_SHAPES = [
    ((3, 4), (7, 3), (2, 3)),
    ((3, 4), (4, 9), (3, 2)),
    ((2, 2, 3), (5, 3, 8), (2, 3, 4)),
    ((3, 3, 2), (4, 9, 6), (3, 1, 2)),
]


@pytest.mark.parametrize("hole_rate", [None, 0.5])
@pytest.mark.parametrize("obs_counts, sizes, donors", WRAPPED_SHAPES)
@pytest.mark.parametrize("seed", range(3))
def test_fill_equals_reference_on_hand_built_tables(seed, obs_counts, sizes, donors, hole_rate):
    model = random_model(
        seed, num_states=4, action_counts=(2,) * len(sizes), obs_counts=obs_counts
    )
    rng = np.random.default_rng(seed)
    partial = hand_built_partial(model, rng, sizes, donors, hole_rate)
    if hole_rate is not None:
        assert len({tuple(row) for kids in partial.children for row in kids < 0}) > 2
    prev = rng.normal(size=donors + (model.num_states,))
    belief = BeliefState(rng.dirichlet(np.ones(model.num_states)))
    assert_fill_is_reference(model, partial, prev, belief)


def test_fill_moves_a_hole_only_past_the_tie_floor():
    # one state, agent 0 sees two observations with mass 1/2 each, so a
    # hole after x1 adds V[donor] / 2 to a configuration's value; holes
    # start at donor 0
    model = DecPomdp(
        states=("only",),
        actions=(("go",), ("go",)),
        observations=(("x0", "x1"), ("y0",)),
        transition=np.ones((1, 1, 1)),
        observation=np.full((1, 1, 2), 0.5),
        reward=np.zeros((1, 1, 1)),
        initial_belief=np.array([1.0]),
        horizon=2,
    )

    def fill(donor_values):
        prev = np.array(donor_values).reshape(-1, 1, 1)
        partial = partial_backup(model, (len(prev), 1), ObservationSelection(((0,), (0,))))
        return assert_fill_is_reference(model, partial, prev, model.initial_belief).children[0]

    # a gain of 5e-13 is inside TIE_TOL: the incumbent stays
    assert fill([1.0, 1.0 + 1e-12]).tolist() == [[0, 0], [1, 0]]
    # gains of 1.5e-12 and 1.75e-12 both pass the floor; they tie with
    # each other, so the hole moves to the lower row, not the best one
    assert fill([1.0, 1.0 + 3e-12, 1.0 + 3.5e-12]).tolist() == [[0, 1], [1, 1], [2, 1]]


def test_fill_keeps_a_tying_incumbent_below_a_lower_row():
    # one state, four equally likely joint observations; configuration 0
    # keeps child 0 after x0 and y0, so agent 0's share of child a after
    # x1 is V[a, 0] + V[a, h1] and agent 1's of child b after y1 is
    # V[0, b] + V[h0, b], a quarter each.  Round 1 moves h0 to 2, then h1
    # to 1; in round 2 rows 1 and 2 of agent 0 tie at 5, and the
    # incumbent 2 stays although row 1 is lower
    model = DecPomdp(
        states=("only",),
        actions=(("go",), ("go",)),
        observations=(("x0", "x1"), ("y0", "y1")),
        transition=np.ones((1, 1, 1)),
        observation=np.full((1, 1, 4), 0.25),
        reward=np.zeros((1, 1, 1)),
        initial_belief=np.array([1.0]),
        horizon=2,
    )
    prev = np.array([[0.0, 0.0], [1.0, 4.0], [2.0, 3.0]])[..., None]
    partial = partial_backup(model, (3, 2), ObservationSelection(((0,), (0,))))
    filled = assert_fill_is_reference(model, partial, prev, model.initial_belief)
    assert filled.children[0][0].tolist() == [0, 2]
    assert filled.children[1][0].tolist() == [0, 1]


def assert_fill_is_best_response(model, partial, prev, belief):
    """No hole a configuration fills can gain more than the tie floor on its incumbent.

    Shares come from the reference's scalar loops, with every other
    branch of the configuration at its filled row.
    """
    filled = fill_missing(model, partial, prev, belief)
    n, sizes = model.num_agents, partial.sizes
    for c in range(max(sizes)):
        idx = [c % size for size in sizes]
        g = ref.fill_tables(model, prev, belief, [filled.actions[i][idx[i]] for i in range(n)])
        config_rows = [filled.children[i][idx[i]] for i in range(n)]
        for d in range(n):
            owned = np.flatnonzero(partial.children[d][idx[d]] < 0) if c < sizes[d] else []
            for o in owned:
                shares = ref.hole_shares(model, g, config_rows, d, o)
                best = max(shares)
                assert shares[config_rows[d][o]] >= best - TIE_TOL * max(1.0, abs(best))
    return filled


@given(
    seed=st.integers(0, 5_000),
    shape=st.sampled_from(sorted(FILL_SHAPES, key=str)),
    keep=st.integers(2, 4),
    num_states=st.sampled_from([2, 3, 5]),
)
@settings(max_examples=30)
def test_fill_is_a_per_observation_best_response(seed, shape, keep, num_states):
    model = random_model(seed, num_states=num_states, **FILL_SHAPES[shape])
    rng = np.random.default_rng(seed)
    leaves = exhaustive_backup(model, None)
    values = backup_values(model, leaves, None)
    prev = values[np.ix_(*[rng.choice(n, size=keep) for n in leaves.sizes])]
    partial = hand_built_partial(model, rng, (7, 5, 4)[: model.num_agents], prev.shape[:-1], 0.6)
    belief = BeliefState(rng.dirichlet(np.ones(num_states)))
    assert_fill_is_best_response(model, partial, prev, belief)


@given(seed=st.integers(0, 2_000))
@settings(max_examples=6)
def test_full_budget_equals_full_backups_with_three_agents(seed):
    model = two_agent_or_three(seed, 3)
    cfg = SolverConfig(max_trees=2, seed=seed)
    full = mbdp(model, cfg)
    budget = improved_mbdp(model, replace(cfg, max_obs=max(model.observation_counts)))
    assert budget.value == full.value
    assert serialize_policy(model, budget.policy) == serialize_policy(model, full.policy)


@given(seed=st.integers(0, 2_000))
@settings(max_examples=6)
def test_planner_never_beats_exact_with_three_agents(seed):
    model = two_agent_or_three(seed, 3, horizon=2)
    upper = exact_solve(model).value
    for solve, cfg in ((mbdp, SolverConfig(max_trees=2, seed=seed)),
                       (improved_mbdp, SolverConfig(max_trees=2, max_obs=1, seed=seed))):
        report = solve(model, cfg)
        assert report.value <= upper + 1e-9
        assert report.value == pytest.approx(
            ref.belief_value(model, report.policy.trees, model.initial_belief), abs=1e-9
        )


# exact_solve's final level, in models whose full final tensor stays small;
# the first agent's table is the larger in the "wide" shapes, the second's
# in the "tall" ones, like box pushing's (4096, 128)
FINAL_LEVEL_SHAPES = {
    ("2 agents", 2): dict(action_counts=(2, 3), obs_counts=(3, 2)),
    ("2 agents", 3): dict(action_counts=(2, 2), obs_counts=(2, 2)),
    ("3 agents", 2): dict(action_counts=(2, 2, 2), obs_counts=(2, 2, 1)),
    ("3 agents", 3): dict(action_counts=(2, 2, 2), obs_counts=(2, 2, 1)),
    ("wide", 2): dict(action_counts=(2, 3), obs_counts=(3, 1)),
    ("wide", 3): dict(action_counts=(2, 2), obs_counts=(3, 1)),
    ("tall", 2): dict(action_counts=(3, 2), obs_counts=(1, 3)),
    ("tall", 3): dict(action_counts=(2, 2), obs_counts=(1, 3)),
}
final_level_shapes = st.sampled_from(sorted(FINAL_LEVEL_SHAPES))


def final_level_model(seed, shape, ties=False):
    """A random model, or with ``ties`` one whose equal values are exactly equal.

    The tie-heavy variant has dyadic probabilities, integer rewards, and
    a second action of agent 0 that copies the first, so whole blocks of
    final tuples tie and every sum is exact.
    """
    model = random_model(
        seed, num_states=4 if ties else 3, horizon=shape[1], **FINAL_LEVEL_SHAPES[shape]
    )
    if not ties:
        return model
    rng = np.random.default_rng(seed)

    def dyadic_rows(shape):
        # each row puts 1/2 on two entries (possibly the same one)
        rows = np.zeros(shape)
        flat = rows.reshape(-1, shape[-1])
        for r, (a, b) in enumerate(rng.integers(shape[-1], size=(len(flat), 2))):
            flat[r, a] += 0.5
            flat[r, b] += 0.5
        return rows

    transition = dyadic_rows(model.transition.shape)
    observation = dyadic_rows(model.observation.shape)
    reward = rng.integers(-2, 3, size=model.reward.shape).astype(float)
    # joint actions are agent-0-major: the second half copies the first
    half = len(transition) // model.action_counts[0]
    for table in (transition, observation, reward):
        table[half : 2 * half] = table[:half]
    belief = np.zeros(model.num_states)
    np.add.at(belief, rng.integers(model.num_states, size=4), 0.25)
    return replace(
        model, transition=transition, observation=observation, reward=reward, initial_belief=belief
    )


def exact_oracle(model, belief):
    """exact_solve with the final level evaluated as one whole value tensor.

    The tensor's entries are checked against recursion above; the pick is
    its lowest-index argmax within the tie tolerance, and the per-state
    maxima are maxima over all its tuples.
    """
    levels, donors, prev = [], None, None
    for _ in range(model.horizon - 1):
        cands = exhaustive_backup(model, donors)
        keep, prev = prune_value_tensor(backup_values(model, cands, prev))
        levels.append((cands, keep))
        donors = prev.shape[:-1]
    cands = exhaustive_backup(model, donors)
    tensor = backup_values(model, cands, prev)
    idx, value = ref.best_tuple_reference(tensor, belief)
    levels.append((cands, [[r] for r in idx]))
    return SimpleNamespace(
        cands=cands,
        prev=prev,
        value=value,
        flat=int(np.ravel_multi_index(idx, cands.sizes)),
        state_values=tensor.reshape(-1, model.num_states).max(axis=0),
        policy=ref.materialize_reference(levels),
    )


@given(
    seed=st.integers(0, 5_000),
    shape=final_level_shapes,
    ties=st.booleans(),
    at_initial=st.booleans(),
)
@settings(max_examples=40)
def test_best_response_matches_full_tensor(seed, shape, ties, at_initial):
    model = final_level_model(seed, shape, ties)
    rng = np.random.default_rng(seed)
    belief = model.initial_belief.probs if at_initial else rng.dirichlet(np.ones(model.num_states))
    want = exact_oracle(model, belief)
    value, flat, state_values = _best_response(model, want.cands, want.prev, belief)
    assert flat == want.flat
    assert value == pytest.approx(want.value, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(state_values, want.state_values, rtol=0, atol=1e-12)


@given(seed=st.integers(0, 5_000), shape=final_level_shapes, ties=st.booleans())
@settings(max_examples=25)
def test_exact_solve_matches_full_tensor_oracle(seed, shape, ties):
    model = final_level_model(seed, shape, ties)
    want = exact_oracle(model, model.initial_belief.probs)
    got = exact_solve(model)
    assert got.value == pytest.approx(want.value, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(got.state_values, want.state_values, rtol=0, atol=1e-12)
    assert serialize_policy(model, got.policy) == serialize_policy(model, want.policy)
    assert ref.belief_value(model, got.policy.trees, model.initial_belief) == pytest.approx(
        got.value, abs=1e-9
    )


def test_final_tie_goes_to_lowest_flat_index_not_first_scanned():
    # one state and one observation, so trees are action sequences; each
    # step pays 1 when the two actions differ.  The four best tuples tie,
    # and the kernel, which scans joint actions first, meets flat index 6
    # before 3
    model = DecPomdp(
        states=("s",),
        actions=(("a", "b"), ("a", "b")),
        observations=(("o",), ("o",)),
        transition=np.ones((4, 1, 1)),
        observation=np.ones((4, 1, 1)),
        reward=np.array([0.0, 1.0, 1.0, 0.0]).reshape(4, 1, 1),
        initial_belief=np.ones(1),
        horizon=2,
    )
    belief = model.initial_belief.probs
    want = exact_oracle(model, belief)
    assert (want.value, want.flat) == (2.0, 3)
    assert _best_response(model, want.cands, want.prev, belief)[:2] == (2.0, 3)


def test_tie_heavy_models_tie_in_the_final_level():
    # the tie-heavy models above do exercise the tie rule: the lowest
    # index wins over an equal tuple with another action or child row
    tied = 0
    for seed in range(8):
        model = final_level_model(seed, ("2 agents", 2), ties=True)
        want = exact_oracle(model, model.initial_belief.probs)
        tensor = backup_values(model, want.cands, want.prev)
        scores = tensor.reshape(-1, model.num_states) @ model.initial_belief.probs
        tied += int((scores == want.value).sum() > 1)
    assert tied >= 6


@given(seed=st.integers(0, 5_000), shape=final_level_shapes, keep=st.integers(2, 4))
@settings(max_examples=30)
def test_fill_is_a_best_response_on_tie_heavy_models(seed, shape, keep):
    # dyadic models: donor rows with equal values, and so equal shares,
    # are exactly equal, and the climb must still end
    model = final_level_model(seed, shape, ties=True)
    rng = np.random.default_rng(seed)
    leaves = exhaustive_backup(model, None)
    values = backup_values(model, leaves, None)
    prev = values[np.ix_(*[rng.choice(n, size=keep) for n in leaves.sizes])]
    selection = ObservationSelection(
        tuple((int(rng.integers(n)),) for n in model.observation_counts)
    )
    partial = partial_backup(model, prev.shape[:-1], selection)
    assert_fill_is_reference(model, partial, prev, model.initial_belief)
    assert_fill_is_best_response(model, partial, prev, model.initial_belief)
