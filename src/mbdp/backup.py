"""Backup operators over per-agent candidate tree sets.

A backup turns depth-t candidate sets into depth-(t+1) sets by pairing
every action with every assignment of children.  The partial variant
assigns children only for a selected subset of each agent's observations
and leaves the rest as holes, to be filled against a belief later.
Enumeration order is fixed (action-major, child indices lexicographic)
so downstream tie-breaking is reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError
from .model import BeliefState, DecPomdp
from .policy import PolicyEvaluator, PolicyTree, ValueTable


@dataclass(frozen=True)
class CandidateSet:
    """Per-agent lists of policy trees, all of one depth."""

    trees: tuple[tuple[PolicyTree, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "trees", tuple(tuple(ts) for ts in self.trees))
        if not self.trees or any(not ts for ts in self.trees):
            raise ConfigError("candidate set needs at least one tree per agent")
        depths = {t.depth for ts in self.trees for t in ts}
        if len(depths) != 1:
            raise ConfigError(f"candidate trees have differing depths: {sorted(depths)}")

    @property
    def depth(self) -> int:
        return self.trees[0][0].depth

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(ts) for ts in self.trees)

    def validate(self) -> list[str]:
        """Checks the no-duplicate-identity invariant expected of backup outputs."""
        problems = []
        for i, ts in enumerate(self.trees):
            uids = [t.uid for t in ts]
            if len(set(uids)) != len(uids):
                problems.append(f"agent {i} list repeats a tree identity")
        return problems


@dataclass(frozen=True)
class ObservationSelection:
    """Per-agent subsets of local observation indices, sorted ascending."""

    per_agent: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "per_agent", tuple(tuple(sorted(set(s))) for s in self.per_agent)
        )
        if any(not s for s in self.per_agent):
            raise ConfigError("every agent must keep at least one observation")

    def is_full(self, model: DecPomdp) -> bool:
        return all(
            len(s) == model.observation_counts[i] for i, s in enumerate(self.per_agent)
        )

    @staticmethod
    def full(model: DecPomdp) -> "ObservationSelection":
        return ObservationSelection(
            tuple(tuple(range(n)) for n in model.observation_counts)
        )


def _check_backup_cap(num_actions: int, num_donors: int, slots: int, cap: int, agent: int):
    count = num_actions * num_donors**slots
    if count > cap:
        raise CapacityError(
            f"backup for agent {agent} would create {count} trees (cap {cap}); "
            "lower maxTrees or maxObs"
        )
    return count


def exhaustive_backup(model: DecPomdp, sets: CandidateSet, cap: int = 1_000_000) -> CandidateSet:
    """All one-step extensions: every action crossed with every full child assignment."""
    out = []
    for i in range(model.num_agents):
        donors = sets.trees[i]
        num_obs = model.observation_counts[i]
        _check_backup_cap(model.action_counts[i], len(donors), num_obs, cap, i)
        trees = [
            PolicyTree(action, tuple(donors[c] for c in combo))
            for action in range(model.action_counts[i])
            for combo in itertools.product(range(len(donors)), repeat=num_obs)
        ]
        out.append(tuple(trees))
    return CandidateSet(tuple(out))


def partial_backup(
    model: DecPomdp,
    sets: CandidateSet,
    selection: ObservationSelection,
    cap: int = 1_000_000,
) -> CandidateSet:
    """One-step extensions with children assigned only for selected observations.

    With a full selection this enumerates exactly like exhaustive_backup,
    tree for tree, which keeps the two code paths interchangeable.
    """
    if len(selection.per_agent) != model.num_agents:
        raise ConfigError("selection does not cover every agent")
    out = []
    for i in range(model.num_agents):
        donors = sets.trees[i]
        slots = selection.per_agent[i]
        num_obs = model.observation_counts[i]
        if slots[-1] >= num_obs:
            raise ConfigError(f"agent {i} selection references observation {slots[-1]}")
        _check_backup_cap(model.action_counts[i], len(donors), len(slots), cap, i)
        trees = []
        for action in range(model.action_counts[i]):
            for combo in itertools.product(range(len(donors)), repeat=len(slots)):
                children: list[PolicyTree | None] = [None] * num_obs
                for slot, c in zip(slots, combo):
                    children[slot] = donors[c]
                trees.append(PolicyTree(action, tuple(children)))
        out.append(tuple(trees))
    return CandidateSet(tuple(out))


def rank_observations(
    model: DecPomdp, belief: BeliefState, action, max_obs: int
) -> ObservationSelection:
    """Keeps each agent's most probable observations under (belief, action).

    Joint observations are ranked by probability (ties broken by joint
    index); the ranking is walked in order and each agent collects the
    local components it has not seen until it holds min(max_obs, |O_i|)
    of them.
    """
    if max_obs < 1:
        raise ConfigError("max_obs must be >= 1")
    probs = model.observation_probabilities(belief, action)
    order = sorted(range(len(probs)), key=lambda j: (-probs[j], j))
    quota = [min(max_obs, n) for n in model.observation_counts]
    collected: list[list[int]] = [[] for _ in range(model.num_agents)]
    for jo in order:
        local = model.joint_observation(jo)
        for i, o in enumerate(local):
            if len(collected[i]) < quota[i] and o not in collected[i]:
                collected[i].append(o)
        if all(len(c) == q for c, q in zip(collected, quota)):
            break
    return ObservationSelection(tuple(tuple(c) for c in collected))


def joint_values(model: DecPomdp, sets: CandidateSet, table: ValueTable | None = None) -> np.ndarray:
    """Joint value tensor of shape (m_0, ..., m_{n-1}, S), one exact evaluation per tuple."""
    evaluator = PolicyEvaluator(model, table)
    values = np.empty(sets.sizes + (model.num_states,))
    for idx in itertools.product(*(range(size) for size in sets.sizes)):
        values[idx] = evaluator.value_vector(tuple(ts[i] for ts, i in zip(sets.trees, idx)))
    return values


def candidate_codes(sets: CandidateSet, donors: CandidateSet | None):
    """Integer tables of complete candidates: per agent, actions (m,) and children (m, |O_i|).

    ``children[i][r, o]`` is the row in ``donors.trees[i]`` of the child
    that candidate r of agent i follows after local observation o (the
    first row holding that tree); ``donors`` is None for depth-1 sets,
    whose children tables are None too.
    """
    actions, children = [], []
    for i, trees in enumerate(sets.trees):
        actions.append(np.array([t.action for t in trees], dtype=np.int64))
        if donors is None:
            children.append(None)
            continue
        row: dict[int, int] = {}
        for r, tree in enumerate(donors.trees[i]):
            row.setdefault(tree.uid, r)
        children.append(
            np.array([[row[c.uid] for c in t.children] for t in trees], dtype=np.int64)
        )
    return actions, children


def backup_values(model: DecPomdp, actions, children, prev: np.ndarray | None) -> np.ndarray:
    """Joint value tensor of backed-up candidates, shape (|Q_0|, ..., |Q_{n-1}|, S).

    Candidate r of agent i takes action ``actions[i][r]`` and continues
    with row ``children[i][r, o]`` of ``prev``'s axis i after local
    observation o; ``prev`` is the (m_0, ..., m_{n-1}, S) value tensor of
    those children.  With ``prev`` None the candidates are depth-1 trees
    and a tuple's value is the expected immediate reward of its joint
    action.  Per joint action and joint observation,
    ``prev @ (T[ja] * O[ja][:, jo]).T`` weights every child tuple's
    values by the step's mass; indexing it by the candidates' child rows
    and summing over joint observations gives the tensor.
    """
    n = model.num_agents
    num_s = model.num_states
    er = model.expected_reward
    out = np.empty(tuple(len(a) for a in actions) + (num_s,))
    prev_flat = None if prev is None else prev.reshape(-1, num_s)
    by_action = [
        [np.flatnonzero(actions[i] == a) for a in range(model.action_counts[i])]
        for i in range(n)
    ]
    for ja, ja_tuple in enumerate(itertools.product(*(range(c) for c in model.action_counts))):
        rows = [by_action[i][a] for i, a in enumerate(ja_tuple)]
        if any(r.size == 0 for r in rows):
            continue
        block = np.broadcast_to(er[ja], tuple(r.size for r in rows) + (num_s,)).copy()
        if prev is not None:
            for jo, local in enumerate(model._joint_obs_tuples):
                weighted = prev_flat @ (model.transition[ja] * model.observation[ja][:, jo][None, :]).T
                block += weighted.reshape(prev.shape)[
                    np.ix_(*(children[i][rows[i], local[i]] for i in range(n)))
                ]
        out[np.ix_(*rows)] = block
    return out


def fill_missing(
    model: DecPomdp,
    partials: CandidateSet,
    donors: CandidateSet,
    belief: BeliefState,
    values: np.ndarray | None = None,
) -> CandidateSet:
    """Completes partial trees with donor subtrees, hill-climbing on joint value.

    Trees are grouped into joint configurations by list index (shorter
    lists wrap around); each configuration is optimized once, in index
    order, and only the trees whose first occurrence it is get their
    holes assigned.  Holes start at donor 0 and single-branch swaps are
    applied only on strict improvement of the configuration's value at
    ``belief``, so the value never decreases.  ``values`` is the donors'
    joint value tensor (m_0, ..., m_{n-1}, S); without it the tensor is
    evaluated here, over the donors and any other subtree the partial
    trees already hold.  Complete inputs are returned unchanged, same
    objects.
    """
    n = model.num_agents
    if len(partials.trees) != n or len(donors.trees) != n:
        raise ConfigError("candidate sets do not cover every agent")
    if donors.depth != partials.depth - 1:
        raise ConfigError(
            f"donor depth {donors.depth} does not extend to partial depth {partials.depth}"
        )
    missing = [
        [tuple(o for o, c in enumerate(t.children) if c is None) for t in ts]
        for ts in partials.trees
    ]
    if not any(slots for per_agent in missing for slots in per_agent):
        return partials
    # child rows index a pool per agent: the donors, then any other child
    # the partial trees already hold
    pool = [list(ts) for ts in donors.trees]
    rows = []
    for i, ts in enumerate(partials.trees):
        row: dict[int, int] = {}
        for r, tree in enumerate(pool[i]):
            row.setdefault(tree.uid, r)
        for child in (c for t in ts for c in t.children if c is not None):
            if child.uid not in row:
                row[child.uid] = len(pool[i])
                pool[i].append(child)
        # holes start at donor row 0
        rows.append(
            [np.array([0 if c is None else row[c.uid] for c in t.children]) for t in ts]
        )
    pool_sizes = tuple(len(p) for p in pool)
    if values is None:
        values = joint_values(model, CandidateSet(tuple(tuple(p) for p in pool)))
    elif values.shape != pool_sizes + (model.num_states,):
        raise ConfigError(
            f"value tensor shape {values.shape} != {pool_sizes + (model.num_states,)}"
        )

    b = belief.probs
    er = model.expected_reward
    flat_values = values.reshape(-1, model.num_states)
    num_jo = model.num_joint_observations
    # local[i][jo]: agent i's component of joint observation jo
    local = np.array(model._joint_obs_tuples, dtype=np.int64).T
    tables: dict[int, tuple[float, np.ndarray]] = {}

    def table(ja: int):
        # G[jo, c_0, ..., c_{n-1}] = sum_{s'} U[jo, s'] V[c, s'] with
        # U[jo, s'] = O[ja][s', jo] * (b P[ja])(s'), the unnormalized
        # one-step posterior mass that weights the child tuple's values
        if ja not in tables:
            post = b @ model.transition[ja]
            u = (model.observation[ja] * post[:, None]).T
            tables[ja] = (float(b @ er[ja]), (flat_values @ u.T).T.reshape((num_jo,) + pool_sizes))
        return tables[ja]

    sizes = partials.sizes
    jo_index = np.arange(num_jo)

    def config_value(base: float, g: np.ndarray, config_rows) -> float:
        kids = tuple(r[local[i]] for i, r in enumerate(config_rows))
        return base + float(g[(jo_index,) + kids].sum())

    for c in range(max(sizes)):
        idx = tuple(c % sizes[i] for i in range(n))
        owned = [
            (i, o)
            for i in range(n)
            if c < sizes[i]
            for o in missing[i][idx[i]]
        ]
        if not owned:
            continue
        base, g = table(
            model.joint_action_index(tuple(partials.trees[i][idx[i]].action for i in range(n)))
        )
        config_rows = [rows[i][idx[i]] for i in range(n)]
        current = config_value(base, g, config_rows)
        improved = True
        while improved:
            improved = False
            for i, o in owned:
                slot_rows = config_rows[i]
                incumbent = slot_rows[o]
                best, best_row = current, incumbent
                for r, donor in enumerate(donors.trees[i]):
                    if donor is pool[i][incumbent]:
                        continue
                    slot_rows[o] = r
                    value = config_value(base, g, config_rows)
                    if value > best:
                        best, best_row = value, r
                slot_rows[o] = best_row
                if best > current:
                    current = best
                    improved = True

    out = []
    for i in range(n):
        trees = [
            t
            if not missing[i][x]
            else PolicyTree(t.action, tuple(pool[i][r] for r in rows[i][x]))
            for x, t in enumerate(partials.trees[i])
        ]
        out.append(tuple(trees))
    return CandidateSet(tuple(out))


def _keep_rows(matrix: np.ndarray) -> list[int]:
    """Survivors of duplicate removal and strict pointwise dominance checks."""
    m = matrix.shape[0]
    seen: dict[bytes, int] = {}
    unique = []
    for r in range(m):
        key = matrix[r].tobytes()
        if key not in seen:
            seen[key] = r
            unique.append(r)
    # a strict dominator has a strictly larger row sum, so it is enough
    # to compare each row against the kept rows that sort ahead of it
    sums = matrix.sum(axis=1)
    order = sorted(unique, key=lambda r: (-sums[r], r))
    kept: list[int] = []
    for r in order:
        dominated = False
        for q in kept:
            if sums[q] <= sums[r]:
                break
            diff = matrix[q] - matrix[r]
            if diff.min() >= 0.0 and diff.max() > 0.0:
                dominated = True
                break
        if not dominated:
            kept.append(r)
    return sorted(kept)


def prune_value_tensor(values: np.ndarray):
    """Prunes a joint value tensor of shape (m_0, ..., m_{n-1}, S) in place.

    Iterates duplicate removal and strict-dominance removal over agents
    until stable.  Returns (survivor index lists per agent, trimmed
    tensor); at least one index always survives per agent, and the best
    achievable value at every belief is unchanged.
    """
    n = values.ndim - 1
    keep_lists = [list(range(values.shape[i])) for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            if values.shape[i] == 1:
                continue
            flat = np.moveaxis(values, i, 0).reshape(values.shape[i], -1)
            keep = _keep_rows(flat)
            if len(keep) < values.shape[i]:
                keep_lists[i] = [keep_lists[i][r] for r in keep]
                values = values.take(keep, axis=i)
                changed = True
    return keep_lists, values


def pointwise_prune(
    model: DecPomdp,
    sets: CandidateSet,
    values: np.ndarray | None = None,
    table: ValueTable | None = None,
) -> CandidateSet:
    """Removes value-duplicate and strictly dominated trees, per agent, to fixpoint.

    A tree of agent i is dominated when some other tree of agent i does at
    least as well for every (state, opposing-tree tuple) and strictly
    better somewhere.  Removal never changes the best achievable joint
    value at any belief.  ``values`` may carry a precomputed tensor of
    shape (m_0, ..., m_{n-1}, S); otherwise values are evaluated here.
    """
    if values is None:
        values = joint_values(model, sets, table)
    elif values.shape != sets.sizes + (model.num_states,):
        raise ConfigError(f"value tensor shape {values.shape} != {sets.sizes + (model.num_states,)}")
    keep_lists, _ = prune_value_tensor(values)
    return CandidateSet(
        tuple(tuple(ts[r] for r in keep) for ts, keep in zip(sets.trees, keep_lists))
    )
