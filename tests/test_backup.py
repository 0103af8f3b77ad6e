import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mbdp import (
    BeliefState,
    CandidateSet,
    CapacityError,
    ConfigError,
    DecPomdp,
    ObservationSelection,
    PolicyTree,
    SolverConfig,
    build_boxpush,
    epsilon_at,
    exhaustive_backup,
    fill_missing,
    improved_mbdp,
    partial_backup,
    rank_observations,
)
import mbdp.solver as solver_module
from mbdp.backup import backup_values, prune_value_tensor

import _reference as ref
from conftest import random_model


def donor_lists(model, rows):
    """Leaf trees picked by ``rows`` per agent and their joint value tensor."""
    leaves = exhaustive_backup(model, None)
    trees = ref.table_trees(leaves)
    values = backup_values(model, leaves, None)[np.ix_(*rows)]
    return tuple(tuple(trees[i][r] for r in rs) for i, rs in enumerate(rows)), values


def obs_table_model(joint_probs):
    """Two agents, one action each, 2x2 observations, fixed joint obs row."""
    probs = np.asarray(joint_probs, dtype=float).reshape(1, 1, 4)
    return DecPomdp(
        states=("only",),
        actions=(("go",), ("go",)),
        observations=(("x0", "x1"), ("y0", "y1")),
        transition=np.ones((1, 1, 1)),
        observation=probs,
        reward=np.zeros((1, 1, 1)),
        initial_belief=np.array([1.0]),
        horizon=2,
    )


class TestCounts:
    @given(
        num_src=st.integers(1, 4),
        actions=st.integers(1, 3),
        obs=st.integers(1, 3),
    )
    def test_exhaustive_size_law(self, num_src, actions, obs):
        model = random_model(0, num_states=2, action_counts=(actions, actions), obs_counts=(obs, obs))
        out = exhaustive_backup(model, (num_src, num_src))
        assert out.sizes == (actions * num_src**obs,) * 2
        assert all(kids.shape == (actions * num_src**obs, obs) for kids in out.children)

    def test_published_count_example(self):
        # 2 actions and 5 observations over 5 sources: 2 * 5^5 = 6250 per
        # agent, 6250^2 = 39,062,500 joint pairs
        model = random_model(1, num_states=2, action_counts=(2, 2), obs_counts=(5, 5))
        out = exhaustive_backup(model, (5, 5), cap=10_000)
        assert out.sizes == (6250, 6250)
        assert out.sizes[0] * out.sizes[1] == 39_062_500

    def test_partial_size_law(self):
        model = random_model(2, num_states=2, action_counts=(2, 2), obs_counts=(3, 3))
        sel = ObservationSelection(((0, 2), (1,)))
        out = partial_backup(model, (4, 4), sel)
        assert out.sizes == (2 * 4**2, 2 * 4**1)

    def test_cap_enforced(self):
        model = random_model(3, num_states=2, action_counts=(2, 2), obs_counts=(4, 4))
        with pytest.raises(CapacityError):
            exhaustive_backup(model, (6, 6), cap=1000)

    def test_cap_message_names_the_options(self):
        model = random_model(3, num_states=2, action_counts=(2, 2), obs_counts=(4, 4), horizon=4)
        message = (
            "backup for agent 0 would create 12 trees (cap 10); "
            "lower max_trees or max_obs, or raise backup_cap"
        )
        with pytest.raises(CapacityError, match=f"^{re.escape(message)}$"):
            partial_backup(model, (6, 6), ObservationSelection(((0,), (1,))), cap=10)
        # levels 1 and 2 keep 2 and 4 picks; level 3's 8 picks back up to
        # 2 actions times 8 donors for the one observation kept
        with pytest.raises(CapacityError, match="would create 16 trees .* or raise backup_cap$"):
            improved_mbdp(model, SolverConfig(max_trees=9, max_obs=1, backup_cap=10))

    def test_depth_grows_by_one(self, tiger):
        trees = ref.table_trees(exhaustive_backup(tiger, None))
        assert [len(ts) for ts in trees] == list(tiger.action_counts)
        for depth in (2, 3):
            below = tuple(ts[:2] for ts in trees)
            trees = ref.table_trees(exhaustive_backup(tiger, (2, 2)), below)
            assert all(t.depth == depth and t.complete for agent in trees for t in agent)


class TestPartial:
    def test_full_selection_matches_exhaustive_order(self, tiger):
        full = exhaustive_backup(tiger, (2, 2))
        part = partial_backup(tiger, (2, 2), ObservationSelection(((0, 1), (0, 1))))
        assert part.sizes == full.sizes
        for agent in range(2):
            np.testing.assert_array_equal(part.actions[agent], full.actions[agent])
            np.testing.assert_array_equal(part.children[agent], full.children[agent])
        # action-major, child rows lexicographic
        assert full.actions[0].tolist() == [a for a in range(3) for _ in range(4)]
        assert full.children[0][:4].tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_unselected_slots_are_holes(self):
        model = random_model(4, num_states=2, action_counts=(2, 2), obs_counts=(3, 3))
        out = partial_backup(model, (2, 2), ObservationSelection(((1,), (0, 2))))
        assert out.children[0][0].tolist() == [-1, 0, -1]
        assert (out.children[1][:, 1] == -1).all()
        below = tuple((PolicyTree(0), PolicyTree(1)) for _ in range(2))
        tree = ref.table_trees(out, below)[0][0]
        assert tree.children[1] is not None
        assert tree.children[0] is None and tree.children[2] is None
        assert not tree.complete


    def test_rejects_negative_observation_index(self, tiger):
        # -1 once assigned the children to the last observation column
        with pytest.raises(ConfigError, match="observation indices must be >= 0"):
            partial_backup(tiger, (2, 2), ObservationSelection(((-1,), (0,))))


class TestRanking:
    def test_hand_ranked_masses(self):
        model = obs_table_model([0.1, 0.4, 0.3, 0.2])
        sel = rank_observations(model, model.initial_belief, 0, max_obs=1)
        # joint obs sorted by mass: (0,1)=0.4 first, so each agent keeps
        # its component of that pair
        assert sel.per_agent == ((0,), (1,))

    def test_tie_breaks_by_index(self):
        model = obs_table_model([0.25, 0.25, 0.25, 0.25])
        sel = rank_observations(model, model.initial_belief, 0, max_obs=1)
        assert sel.per_agent == ((0,), (0,))

    def test_quota_capped_at_alphabet(self):
        model = obs_table_model([0.1, 0.4, 0.3, 0.2])
        sel = rank_observations(model, model.initial_belief, 0, max_obs=9)
        assert sel.per_agent == ((0, 1), (0, 1))

    @pytest.mark.parametrize("bad", [1.5, True, 0])
    def test_rejects_bad_max_obs(self, bad):
        # 1.5 once kept two observations per agent: the quota was min(1.5, n)
        model = build_boxpush(horizon=2)
        with pytest.raises(ConfigError, match="max_obs must be an integer >= 1"):
            rank_observations(model, model.initial_belief, 0, max_obs=bad)

    @staticmethod
    def assert_best_family(model, belief, action, max_obs):
        sel = rank_observations(model, belief, action, max_obs)
        subsets, mass = ref.rank_observations_reference(model, belief, action, max_obs)
        assert (sel.per_agent, sel.captured_mass) == (subsets, mass)
        assert sel.captured_mass == epsilon_at(model, belief, action, max_obs)

    @pytest.mark.parametrize("max_obs", [1, 2, 3])
    def test_keeps_the_best_family_on_random_models(self, max_obs):
        # walking the joint observations greedily kept less mass at 514 of
        # these 1,600 (belief, joint action) pairs at max_obs 2
        for seed in range(40):
            model = random_model(seed, obs_counts=(3, 3))
            rng = np.random.default_rng(seed)
            for probs in rng.dirichlet(np.ones(model.num_states), size=10):
                for ja in range(model.num_joint_actions):
                    self.assert_best_family(model, BeliefState(probs), ja, max_obs)

    def test_keeps_the_best_family_at_every_planner_ranking(self, monkeypatch):
        calls = []

        def spy(model, belief, action, max_obs):
            calls.append((belief, action, max_obs))
            return rank_observations(model, belief, action, max_obs)

        monkeypatch.setattr(solver_module, "rank_observations", spy)
        model = build_boxpush(horizon=10)
        improved_mbdp(model, SolverConfig(max_trees=4, max_obs=2, seed=0))
        assert len(calls) == 9
        for belief, action, max_obs in calls:
            self.assert_best_family(model, belief, action, max_obs)

    def test_components_sorted_ascending(self, mabc):
        sel = rank_observations(mabc, mabc.initial_belief, 0, max_obs=2)
        for agent in sel.per_agent:
            assert list(agent) == sorted(agent)


class TestFill:
    def fill_case(self, seed):
        # three donors per agent, the third repeating the first
        model = random_model(seed, num_states=3, action_counts=(2, 2), obs_counts=(2, 2))
        donors, values = donor_lists(model, ([0, 1, 0], [0, 1, 0]))
        partial = partial_backup(model, (3, 3), ObservationSelection(((0,), (1,))))
        return model, donors, values, partial

    def test_output_complete_and_hole_count_preserved(self):
        model, _, values, partial = self.fill_case(11)
        filled = fill_missing(model, partial, values, model.initial_belief)
        assert filled.sizes == partial.sizes
        for agent in range(2):
            np.testing.assert_array_equal(filled.actions[agent], partial.actions[agent])
            assert (filled.children[agent] >= 0).all()

    def test_holes_filled_from_donor_pool(self):
        model, _, values, partial = self.fill_case(12)
        filled = fill_missing(model, partial, values, model.initial_belief)
        for kids, orig in zip(filled.children, partial.children):
            holes = orig < 0
            assert ((kids[holes] >= 0) & (kids[holes] < 3)).all()
            np.testing.assert_array_equal(kids[~holes], orig[~holes])

    def test_no_worse_than_any_uniform_donor_assignment(self):
        """Hill climbing starts from paired donor assignments, so the
        result must dominate every single-donor completion."""
        model, donors, values, partial = self.fill_case(13)
        filled = fill_missing(model, partial, values, model.initial_belief)
        b = model.initial_belief

        def best_pair(cands):
            trees = ref.table_trees(cands, donors)
            return max(
                ref.belief_value(model, (t0, t1), b) for t0 in trees[0] for t1 in trees[1]
            )

        got = best_pair(filled)
        for donor_idx in range(3):
            uniform = CandidateSet(
                partial.actions,
                tuple(np.where(kids < 0, donor_idx, kids) for kids in partial.children),
            )
            assert got >= best_pair(uniform) - 1e-9

    def test_identity_on_complete_input(self, tiger):
        complete = exhaustive_backup(tiger, (2, 2))
        _, values = donor_lists(tiger, ([0, 1], [0, 1]))
        assert fill_missing(tiger, complete, values, tiger.initial_belief) is complete

    def test_deterministic(self):
        model, _, values, partial = self.fill_case(14)
        a = fill_missing(model, partial, values, model.initial_belief)
        b = fill_missing(model, partial, values, model.initial_belief)
        for x, y in zip(a.children, b.children):
            np.testing.assert_array_equal(x, y)


class TestPrune:
    def grid(self, num_states, step=5):
        axes = [np.linspace(0, 1, step)] * (num_states - 1)
        for mix in itertools.product(*axes):
            rest = 1.0 - sum(mix)
            if rest < -1e-12:
                continue
            yield BeliefState(np.array(list(mix) + [max(rest, 0.0)]))

    @given(seed=st.integers(0, 2_000))
    @settings(max_examples=15)
    def test_upper_envelope_preserved(self, seed):
        model = random_model(seed, num_states=3)
        donors, prev = donor_lists(model, ([0, 1], [0, 1]))
        sets = exhaustive_backup(model, (2, 2))
        keep, _ = prune_value_tensor(backup_values(model, sets, prev))
        assert all(len(k) >= 1 for k in keep)
        trees = ref.table_trees(sets, donors)

        def pair_vectors(rows):
            return [
                np.array([ref.tree_value(model, (trees[0][r0], trees[1][r1]), s) for s in range(3)])
                for r0 in rows[0]
                for r1 in rows[1]
            ]

        before_v = pair_vectors([range(size) for size in sets.sizes])
        after_v = pair_vectors(keep)
        for b in self.grid(3, step=4):
            before = max(float(b.probs @ v) for v in before_v)
            after = max(float(b.probs @ v) for v in after_v)
            assert after == pytest.approx(before, abs=1e-9)

    def test_duplicates_are_merged(self, tiger):
        leaves = CandidateSet(
            ([0, 0, 1], [0, 2]), (np.empty((3, 0)), np.empty((2, 0)))
        )
        keep, pruned = prune_value_tensor(backup_values(tiger, leaves, None))
        assert keep == [[0, 2], [0, 1]]
        assert pruned.shape == (2, 2, tiger.num_states)
