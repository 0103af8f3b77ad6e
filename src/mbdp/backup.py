"""Backup operators over per-agent candidate tables.

A level's candidates are integer tables (``CandidateSet``): per agent, an
action per row and, per row and local observation, the row of the
previous level's selected list that the tree continues with.  A backup
turns the selected lists of one depth into the candidates of the next
by pairing every action with every assignment of children.  The partial
variant assigns children only for a selected subset of each agent's
observations and leaves the rest as holes (-1), to be filled against a
belief later.  Enumeration order is fixed (action-major, child rows
lexicographic) so downstream tie-breaking is reproducible.  Values come
from one kernel, ``backup_values``, which builds the joint value tensor
of a table from the selected lists' tensor; policy trees are built only
by the solvers, for the policy they return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import CapacityError, ConfigError
from .model import BeliefState, DecPomdp, _mixed_radix_strides


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Per-agent integer tables of candidate trees, all of one depth.

    Row r of agent i is the tree that takes action ``actions[i][r]`` and,
    after local observation o, continues with the tree in row
    ``children[i][r, o]`` of the previous level's selected list; -1 marks
    a branch not assigned yet.  Depth-1 tables have no children columns.
    """

    actions: tuple[np.ndarray, ...]
    children: tuple[np.ndarray, ...]
    # backup_values' gather plan, built on first use
    _plan: "_GatherPlan | None" = field(default=None, init=False, repr=False)

    def __post_init__(self):
        for name in ("actions", "children"):
            tables = tuple(np.asarray(t, dtype=np.int64) for t in getattr(self, name))
            object.__setattr__(self, name, tables)
        if not self.actions or len(self.children) != len(self.actions):
            raise ConfigError("candidate set needs an actions and a children table per agent")
        for i, (acts, kids) in enumerate(zip(self.actions, self.children)):
            if acts.ndim != 1 or not len(acts) or kids.ndim != 2 or len(kids) != len(acts):
                raise ConfigError(
                    f"agent {i} needs at least one candidate and one children row per candidate"
                )

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.actions)

    def rows_by_action(self, model: DecPomdp) -> list[list[np.ndarray]]:
        """Per agent and action, the rows taking that action, ascending."""
        return [
            [np.flatnonzero(acts == a) for a in range(count)]
            for acts, count in zip(self.actions, model.action_counts)
        ]


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


def _backup_table(num_actions: int, num_donors: int, num_obs: int, slots, cap: int, agent: int):
    """(actions, children) of every action crossed with every donor assignment to ``slots``."""
    count = num_actions * num_donors ** len(slots)
    if count > cap:
        raise CapacityError(
            f"backup for agent {agent} would create {count} trees (cap {cap}); "
            "lower maxTrees or maxObs"
        )
    # child rows of one action's block: base-num_donors digits of 0..block-1,
    # most significant first, so the block runs in lexicographic order
    block = count // num_actions
    powers = num_donors ** np.arange(len(slots) - 1, -1, -1)
    digits = (np.arange(block)[:, None] // powers[None, :]) % num_donors
    children = np.full((count, num_obs), -1, dtype=np.int64)
    children[:, list(slots)] = np.tile(digits, (num_actions, 1))
    return np.repeat(np.arange(num_actions), block), children


def exhaustive_backup(
    model: DecPomdp, donors: Sequence[int] | None, cap: int = 1_000_000
) -> CandidateSet:
    """All one-step extensions: every action crossed with every full child assignment.

    ``donors`` gives, per agent, the number of rows in the previous
    level's selected list.  With ``donors`` None the candidates are the
    depth-1 trees, one per action.
    """
    if donors is None:
        tables = [
            _backup_table(model.action_counts[i], 1, 0, (), cap, i)
            for i in range(model.num_agents)
        ]
    else:
        tables = [
            _backup_table(model.action_counts[i], donors[i], num_obs, range(num_obs), cap, i)
            for i, num_obs in enumerate(model.observation_counts)
        ]
    return CandidateSet(*zip(*tables))


def partial_backup(
    model: DecPomdp,
    donors: Sequence[int],
    selection: ObservationSelection,
    cap: int = 1_000_000,
) -> CandidateSet:
    """One-step extensions with children assigned only for selected observations.

    With a full selection this enumerates exactly like exhaustive_backup,
    row for row, which keeps the two code paths interchangeable.
    """
    if len(selection.per_agent) != model.num_agents:
        raise ConfigError("selection does not cover every agent")
    tables = []
    for i, num_obs in enumerate(model.observation_counts):
        slots = selection.per_agent[i]
        if slots[-1] >= num_obs:
            raise ConfigError(f"agent {i} selection references observation {slots[-1]}")
        tables.append(_backup_table(model.action_counts[i], donors[i], num_obs, slots, cap, i))
    return CandidateSet(*zip(*tables))


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


def weighted_children(model: DecPomdp, prev_flat: np.ndarray, ja: int, jo: int) -> np.ndarray:
    """Child tuples' values weighted by one step's mass, shape (M, S).

    ``prev_flat`` holds one child tuple's values per row, (M, S).  Entry
    [c, s] is sum_{s'} T[ja][s, s'] O[ja][s', jo] prev_flat[c, s']: the
    share of child tuple c in the value of a tuple that takes joint
    action ``ja`` in state s and then sees joint observation ``jo``.
    """
    return prev_flat @ (model.transition[ja] * model.observation[ja][:, jo][None, :]).T


# floats per output block of backup_values (512 KiB): 2^16 measured
# fastest, and box pushing's kernel ran 20-35% slower at 2^20
_GATHER_BLOCK = 1 << 16


@dataclass(frozen=True)
class _GatherPlan:
    """Where ``backup_values`` reads each output tuple's terms.

    Output tuples are numbered in C order over the tables' rows.
    ``joint_actions[p]`` is tuple p's joint action, the row of the
    expected reward it starts from, and ``children[jo, p]`` the row it
    adds after joint observation jo: ja * M + c in the weighted children
    of every joint action stacked, where M counts the child tuples and c
    is the child tuple's row in C order.
    """

    model: DecPomdp
    donors: tuple[int, ...] | None
    joint_actions: np.ndarray
    children: np.ndarray | None


def _gather_plan(model: DecPomdp, candidates: CandidateSet, donors) -> _GatherPlan:
    """The table's gather plan for ``model`` and ``donors``, built once and kept on the table."""
    plan = candidates._plan
    if plan is not None and plan.model is model and plan.donors == donors:
        return plan
    n = model.num_agents
    if len(candidates.actions) != n:
        raise ConfigError(f"candidate set has {len(candidates.actions)} agents, model {n}")
    sizes = candidates.sizes

    def spread(i, column):
        # agent i's per-row values, broadcast along axis i
        return column.reshape((1,) * i + (-1,) + (1,) * (n - 1 - i))

    strides = model._action_strides
    ja = sum(spread(i, acts * strides[i]) for i, acts in enumerate(candidates.actions))
    joint_actions = np.broadcast_to(ja, sizes).reshape(-1)
    children = None
    if donors is not None:
        for i, kids in enumerate(candidates.children):
            if kids.size and kids.max() >= donors[i]:
                raise ConfigError(f"agent {i} references donor row {kids.max()} of {donors[i]}")
        child_strides = _mixed_radix_strides(donors)
        base = joint_actions * math.prod(donors)
        children = np.empty((model.num_joint_observations, base.size), dtype=np.int64)
        for jo, local in enumerate(model._joint_obs_tuples):
            child = sum(
                spread(i, kids[:, local[i]] * child_strides[i])
                for i, kids in enumerate(candidates.children)
            )
            np.add(base, np.broadcast_to(child, sizes).reshape(-1), out=children[jo])
    plan = _GatherPlan(model, donors, joint_actions, children)
    object.__setattr__(candidates, "_plan", plan)
    return plan


def backup_values(model: DecPomdp, candidates: CandidateSet, prev: np.ndarray | None) -> np.ndarray:
    """Joint value tensor of backed-up candidates, shape (|Q_0|, ..., |Q_{n-1}|, S).

    ``prev`` is the (m_0, ..., m_{n-1}, S) value tensor of the previous
    level's selected lists, whose rows the candidates' children index.
    With ``prev`` None the candidates are depth-1 trees and a tuple's
    value is the expected immediate reward of its joint action.  Per
    joint action and joint observation, ``weighted_children`` weights
    every child tuple's values by the step's mass.  Each output tuple is
    then its joint action's expected reward plus, per joint observation
    in order, one gathered row of those products: the table's gather
    plan says which, and output blocks of ``_GATHER_BLOCK`` floats are
    summed in place.  Every entry adds the same terms in the same order
    as indexing each (joint action, joint observation) block by the
    child rows, so the result is the same bit for bit.
    """
    children = candidates.children
    if prev is not None and any((kids < 0).any() for kids in children):
        raise ConfigError("candidate table has unassigned branches; fill them first")
    num_s = model.num_states
    plan = _gather_plan(model, candidates, None if prev is None else prev.shape[:-1])
    if prev is not None:
        prev_flat = prev.reshape(-1, num_s)
        weighted = np.empty(
            (model.num_joint_observations, model.num_joint_actions) + prev_flat.shape
        )
        for ja in range(model.num_joint_actions):
            for jo in range(model.num_joint_observations):
                weighted[jo, ja] = weighted_children(model, prev_flat, ja, jo)
        weighted = weighted.reshape(model.num_joint_observations, -1, num_s)
    out = np.empty((plan.joint_actions.size, num_s))
    er = model.expected_reward
    rows = max(1, _GATHER_BLOCK // num_s)
    for lo in range(0, out.shape[0], rows):
        block = out[lo : lo + rows]
        np.take(er, plan.joint_actions[lo : lo + rows], axis=0, out=block)
        if prev is not None:
            for jo in range(model.num_joint_observations):
                block += weighted[jo].take(plan.children[jo, lo : lo + rows], axis=0)
    return out.reshape(candidates.sizes + (num_s,))


def fill_missing(
    model: DecPomdp,
    partials: CandidateSet,
    values: np.ndarray,
    belief: BeliefState,
) -> CandidateSet:
    """Completes partial candidates with donor rows, hill-climbing on joint value.

    ``values`` is the (m_0, ..., m_{n-1}, S) joint value tensor of the
    donors, the previous level's selected lists.  Candidates are grouped
    into joint configurations by row (shorter tables wrap around); each
    configuration is optimized once, in row order, and only the rows
    whose first occurrence it is get their holes assigned.  Holes start
    at donor 0 and single-branch swaps are applied only on strict
    improvement of the configuration's value at ``belief``, so the value
    never decreases.  Complete inputs are returned unchanged, same object.
    """
    n = model.num_agents
    if len(partials.actions) != n or values.shape[n:] != (model.num_states,):
        raise ConfigError(
            f"value tensor shape {values.shape} does not match {n} agents and "
            f"{model.num_states} states"
        )
    num_donors = values.shape[:-1]
    for i, kids in enumerate(partials.children):
        if kids.size and kids.max() >= num_donors[i]:
            raise ConfigError(f"agent {i} references donor row {kids.max()} of {num_donors[i]}")
    missing = [[np.flatnonzero(row < 0).tolist() for row in kids] for kids in partials.children]
    if not any(slots for per_agent in missing for slots in per_agent):
        return partials
    # holes start at donor row 0
    rows = [np.maximum(kids, 0) for kids in partials.children]

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
            tables[ja] = (float(b @ er[ja]), (flat_values @ u.T).T.reshape((num_jo,) + num_donors))
        return tables[ja]

    sizes = partials.sizes
    jo_index = np.arange(num_jo)

    def config_value(base: float, g: np.ndarray, config_rows) -> float:
        kids = tuple(r[local[i]] for i, r in enumerate(config_rows))
        return base + float(g[(jo_index,) + kids].sum())

    def donor_values(base: float, g: np.ndarray, config_rows, i: int, o: int) -> np.ndarray:
        # the configuration's value with agent i's branch o set to each
        # donor row in turn: one gather, summed per row as config_value sums
        kids = [r[local[j]] for j, r in enumerate(config_rows)]
        kids[i] = np.where(local[i] == o, np.arange(num_donors[i])[:, None], kids[i])
        return base + g[(jo_index,) + tuple(kids)].sum(axis=1)

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
            model.joint_action_index(tuple(int(partials.actions[i][idx[i]]) for i in range(n)))
        )
        config_rows = [rows[i][idx[i]] for i in range(n)]
        current = config_value(base, g, config_rows)
        improved = True
        while improved:
            improved = False
            for i, o in owned:
                scores = donor_values(base, g, config_rows, i, o)
                # a repeated pick of the incumbent's tree has a bit-identical
                # tensor row and never strictly improves, so skipping the
                # incumbent row alone is enough
                scores[config_rows[i][o]] = -np.inf
                # the first row of the best value, if it strictly improves
                best_row = int(np.argmax(scores))
                if scores[best_row] > current:
                    config_rows[i][o] = best_row
                    current = float(scores[best_row])
                    improved = True
    return CandidateSet(partials.actions, tuple(rows))


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
