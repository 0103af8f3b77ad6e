"""The planner's joint value-tensor kernel against the recursive oracles."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mbdp import (
    CandidateSet,
    ObservationSelection,
    SolverConfig,
    exact_solve,
    exhaustive_backup,
    fill_missing,
    improved_mbdp,
    mbdp,
    partial_backup,
)
from mbdp.backup import backup_values
from mbdp.solver import _best_tuple

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
    idx, score = _best_tuple(values, belief, exclude=[list(map(int, e)) for e in exclude])
    want_idx, want_score = brute_force_pick(values, belief, exclude)
    assert idx == want_idx
    assert score == pytest.approx(want_score, abs=1e-12)


def test_one_ulp_tie_goes_to_lowest_index():
    values = np.zeros((2, 2, 1))
    values[0, 1, 0] = 183.42
    values[1, 0, 0] = np.nextafter(183.42, np.inf)
    belief = np.ones(1)
    assert _best_tuple(values, belief)[0] == (0, 1)
    # with the tie's first tuple masked, the later one wins
    assert _best_tuple(values, belief, exclude=[[0], []])[0] == (1, 0)
    # a gap well above the tolerance is not a tie
    values[1, 0, 0] = 183.42 + 1e-6
    assert _best_tuple(values, belief)[0] == (1, 0)


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


@given(seed=st.integers(0, 2_000))
@settings(max_examples=6)
def test_full_budget_equals_full_backups_with_three_agents(seed):
    model = two_agent_or_three(seed, 3)
    cfg = SolverConfig(max_trees=2, seed=seed)
    full = mbdp(model, cfg)
    budget = improved_mbdp(model, replace(cfg, max_obs=max(model.observation_counts)))
    assert budget.value == full.value
    for a, b in zip(full.policy.trees, budget.policy.trees):
        assert a.same_structure(b)


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
