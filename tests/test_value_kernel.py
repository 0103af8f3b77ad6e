"""The planner's joint value-tensor kernel against the recursive oracles."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mbdp import (
    CandidateSet,
    ObservationSelection,
    PolicyTree,
    SolverConfig,
    exact_solve,
    exhaustive_backup,
    fill_missing,
    improved_mbdp,
    mbdp,
    partial_backup,
)
from mbdp.backup import backup_values, candidate_codes
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
    leaves = CandidateSet(
        tuple(tuple(PolicyTree(a) for a in range(c)) for c in model.action_counts)
    )
    return leaves, backup_values(model, *candidate_codes(leaves, None), None)


def pick(sets, values, rng, keep):
    """A random selection of ``keep`` rows per agent and its sub-tensor."""
    rows = [sorted(rng.choice(size, size=min(keep, size), replace=False)) for size in sets.sizes]
    chosen = CandidateSet(tuple(tuple(ts[r] for r in rs) for ts, rs in zip(sets.trees, rows)))
    return chosen, values[np.ix_(*rows)]


def assert_matches_recursion(model, sets, values):
    for idx in itertools.product(*(range(size) for size in sets.sizes)):
        trees = tuple(ts[i] for ts, i in zip(sets.trees, idx))
        want = [ref.tree_value(model, trees, s) for s in range(model.num_states)]
        np.testing.assert_allclose(values[idx], want, rtol=0, atol=1e-9)


@given(seed=st.integers(0, 5_000), agents=st.sampled_from([2, 3]))
@settings(max_examples=8)
def test_tensor_entries_match_recursive_values(seed, agents):
    model = two_agent_or_three(seed, agents)
    rng = np.random.default_rng(seed)
    sets, values = leaf_values(model)
    assert_matches_recursion(model, sets, values)
    for _ in range(2):
        chosen, prev = pick(sets, values, rng, keep=2)
        sets = exhaustive_backup(model, chosen)
        values = backup_values(model, *candidate_codes(sets, chosen), prev)
        assert_matches_recursion(model, sets, values)


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


@given(seed=st.integers(0, 5_000), agents=st.sampled_from([2, 3]))
@settings(max_examples=15)
def test_fill_with_and_without_values_agree(seed, agents):
    model = two_agent_or_three(seed, agents)
    rng = np.random.default_rng(seed)
    sets, values = leaf_values(model)
    donors, prev = pick(sets, values, rng, keep=2)
    selection = ObservationSelection(tuple((0,) for _ in range(agents)))
    partial = partial_backup(model, donors, selection)
    with_values = fill_missing(model, partial, donors, model.initial_belief, values=prev)
    evaluated = fill_missing(model, partial, donors, model.initial_belief)
    for a, b in zip(with_values.trees, evaluated.trees):
        assert [[c.uid for c in t.children] for t in a] == [[c.uid for c in t.children] for t in b]


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
