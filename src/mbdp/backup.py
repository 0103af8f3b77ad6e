"""Backup operators over per-agent candidate tables.

A level's candidates are integer tables (``CandidateSet``): per agent, an
action per row and, per row and local observation, the row of the
previous level's selected list that the tree continues with.  A backup
turns the selected lists of one depth into the candidates of the next
by pairing every action with every assignment of children.  The partial
variant assigns children only for a selected subset of each agent's
observations and leaves the rest as holes (-1), to be filled against a
belief later.  Enumeration order is fixed (action-major, child rows
lexicographic) so downstream tie-breaking is reproducible.

Values come from one kernel, ``gather_values``.  A table's gather plan
says, per joint tuple, which expected reward and which weighted child
tuple per joint observation make up its value; the weighted children
(``weighted_stack``) are the selected lists' values weighted by one
step's mass.  Gathered in state columns the kernel gives value vectors:
of every tuple in ``backup_values``, the joint value tensor the exact
solver prunes, or of a few picked tuples.  Gathered after projecting
its inputs onto K beliefs it gives every tuple's value at those
beliefs in K columns, which is how the planner scores a level without
its tensor.  The solvers return the rows their policy reaches as tables
(``JointPolicy._from_tables``); no policy tree is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError, ConfigError, require_count
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
        if any(s[0] < 0 for s in self.per_agent):
            raise ConfigError(f"observation indices must be >= 0, got {self.per_agent}")


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
    max_obs = require_count(max_obs, "max_obs", ConfigError)
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


def weighted_stack(model: DecPomdp, prev: np.ndarray) -> np.ndarray:
    """Child tuples' values weighted by one step's mass, shape (JO, JA * M, S).

    ``prev`` holds the values of M child tuples, (..., S), flattened in C
    order.  Entry [jo, ja * M + c, s] is sum_{s'} T[ja][s, s']
    O[ja][s', jo] prev[c, s']: the share of child tuple c in the value of
    a tuple that takes joint action ``ja`` in state s and then sees joint
    observation ``jo``.  Per joint action the children are weighted by
    each observation column first, then one stacked matmul applies the
    transition; slice jo is the same BLAS call as the 2-D product
    ``(prev * O[ja][:, jo]) @ T[ja].T`` and gives its bits for any M,
    one child tuple included.
    """
    num_s = model.num_states
    prev_flat = prev.reshape(-1, num_s)
    num_jo = model.num_joint_observations
    out = np.empty((num_jo, model.num_joint_actions) + prev_flat.shape)
    # one buffer for all joint actions: a fresh one per joint action was slower
    masked = np.empty((num_jo,) + prev_flat.shape)
    for ja in range(model.num_joint_actions):
        np.multiply(prev_flat[None], model.observation[ja].T[:, None, :], out=masked)
        np.matmul(masked, model.transition[ja].T, out=out[:, ja])
    return out.reshape(num_jo, -1, num_s)


# floats per output block of gather_values (512 KiB): 2^16 measured
# fastest, and box pushing's kernel ran 20-35% slower at 2^20
_GATHER_BLOCK = 1 << 16


@dataclass(frozen=True)
class GatherPlan:
    """Where ``gather_values`` reads each joint tuple's terms.

    Joint tuples are numbered in C order over the tables' rows.
    ``joint_actions[p]`` is tuple p's joint action, the row of the
    expected reward it starts from, and ``children[jo, p]`` the row it
    adds after joint observation jo: ja * M + c in ``weighted_stack``,
    where M counts the child tuples and c is the child tuple's row in C
    order.  ``children`` is None for depth-1 tables.
    """

    joint_actions: np.ndarray
    children: np.ndarray | None


def gather_plan(model: DecPomdp, candidates: CandidateSet, donors) -> GatherPlan:
    """The gather plan of ``candidates``, whose children index lists of ``donors`` rows.

    ``donors`` is None for depth-1 tables.
    """
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
    if donors is None:
        return GatherPlan(joint_actions, None)
    if any((kids < 0).any() for kids in candidates.children):
        raise ConfigError("candidate table has unassigned branches; fill them first")
    for i, kids in enumerate(candidates.children):
        if kids.size and kids.max() >= donors[i]:
            raise ConfigError(f"agent {i} references donor row {kids.max()} of {donors[i]}")
    child_strides = _mixed_radix_strides(donors)
    base = joint_actions * math.prod(donors)
    # int32 rows where they fit halve the plan, its largest array
    rows = model.num_joint_actions * math.prod(donors)
    dtype = np.int32 if rows <= np.iinfo(np.int32).max else np.int64
    children = np.empty((model.num_joint_observations, base.size), dtype=dtype)
    for jo, local in enumerate(model._joint_obs_tuples):
        child = sum(
            spread(i, kids[:, local[i]] * child_strides[i])
            for i, kids in enumerate(candidates.children)
        )
        np.add(base, np.broadcast_to(child, sizes).reshape(-1), out=children[jo])
    return GatherPlan(joint_actions, children)


def gather_values(
    plan: GatherPlan,
    rewards: np.ndarray,
    weighted: np.ndarray | None,
    tuples: np.ndarray | None = None,
) -> np.ndarray:
    """The value kernel: one row per joint tuple, in the columns of its inputs.

    Row p is ``rewards[ja]`` plus, per joint observation jo in order,
    ``weighted[jo][children[jo, p]]``, with ja and the children from
    ``plan``.  Given ``model.expected_reward`` and ``weighted_stack``
    the columns are states and row p is tuple p's value in every state;
    given both multiplied by K beliefs on the right they are tuple p's
    K values at those beliefs, without its S-wide row ever being built.
    ``tuples`` picks flat tuple indices (default all).  Rows are filled
    in blocks of ``_GATHER_BLOCK`` floats, and each row's sum does not
    depend on the block or the other rows, so picking tuples gives the
    same bits as picking rows of the whole output.
    """
    joint_actions, children = plan.joint_actions, plan.children
    if tuples is not None:
        joint_actions = joint_actions[tuples]
        children = None if children is None else children[:, tuples]
    out = np.empty((joint_actions.size, rewards.shape[1]))
    rows = max(1, _GATHER_BLOCK // rewards.shape[1])
    for lo in range(0, out.shape[0], rows):
        block = out[lo : lo + rows]
        np.take(rewards, joint_actions[lo : lo + rows], axis=0, out=block)
        if weighted is not None:
            for jo, part in enumerate(weighted):
                block += part.take(children[jo, lo : lo + rows], axis=0)
    return out


def backup_values(model: DecPomdp, candidates: CandidateSet, prev: np.ndarray | None) -> np.ndarray:
    """Joint value tensor of backed-up candidates, shape (|Q_0|, ..., |Q_{n-1}|, S).

    ``prev`` is the (m_0, ..., m_{n-1}, S) value tensor of the previous
    level's selected lists, whose rows the candidates' children index.
    With ``prev`` None the candidates are depth-1 trees and a tuple's
    value is the expected immediate reward of its joint action.  This is
    ``gather_values`` over every tuple in state columns: every entry
    adds the same terms in the same order as indexing each (joint
    action, joint observation) block of weighted children by the child
    rows, so the result is the same bit for bit.
    """
    plan = gather_plan(model, candidates, None if prev is None else prev.shape[:-1])
    weighted = None if prev is None else weighted_stack(model, prev)
    values = gather_values(plan, model.expected_reward, weighted)
    return values.reshape(candidates.sizes + (model.num_states,))


def fill_missing(
    model: DecPomdp,
    partials: CandidateSet,
    values: np.ndarray,
    belief: BeliefState,
) -> CandidateSet:
    """Completes partial candidates with donor rows, hill-climbing on joint value.

    ``values`` is the (m_0, ..., m_{n-1}, S) joint value tensor of the
    donors, the previous level's selected lists.  Candidates are grouped
    into joint configurations by row (shorter tables wrap around); only
    the rows whose first occurrence a configuration is get their holes
    assigned.  Holes start at donor 0, and a configuration sweeps its
    holes in (agent, observation) order, moving a branch to the first
    best other donor row only on strict improvement of its value at
    ``belief``, until a sweep improves nothing.  Configurations climb in
    lockstep, in batches of min(sizes) consecutive ones: per sweep and
    hole, one (configurations, donor rows, joint observations) gather
    scores every live owner's donor rows.  Within a batch each agent's
    rows are distinct and wrapped rows are final (an earlier batch owns
    them), and every score is summed over a C-contiguous last axis like
    one configuration's row, so the result is the same bit for bit as
    climbing one configuration at a time.  Complete inputs are returned
    unchanged, same object.
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
    holes = [kids < 0 for kids in partials.children]
    if not any(h.any() for h in holes):
        return partials
    rows = [np.maximum(kids, 0) for kids in partials.children]  # holes start at donor 0

    sizes = partials.sizes
    configs = np.arange(max(sizes))
    idx = [configs % size for size in sizes]
    joint = sum(partials.actions[i][idx[i]] * model._action_strides[i] for i in range(n))
    used, which = np.unique(joint, return_inverse=True)
    # per joint action used, its expected reward at b and G[jo, c] = sum_{s'}
    # U[jo, s'] V[c, s'] with U[jo, s'] = O[ja][s', jo] * (b P[ja])(s'),
    # the unnormalized one-step posterior mass weighting child tuple c
    flat = values.reshape(-1, model.num_states)
    num_jo, num_kids = model.num_joint_observations, len(flat)
    b = belief.probs
    base = np.array([b @ model.expected_reward[ja] for ja in used])
    g = np.stack(
        [(flat @ (model.observation[ja] * (b @ model.transition[ja])[:, None])).T for ja in used]
    ).reshape(-1)
    # local[i][jo]: agent i's component of joint observation jo
    local = np.array(model._joint_obs_tuples, dtype=np.int64).T
    strides = _mixed_radix_strides(num_donors)
    start = ((which * num_jo)[:, None] + np.arange(num_jo)) * num_kids
    pairs = [(i, o) for i, h in enumerate(holes) for o in np.flatnonzero(h.any(axis=0))]

    def child_index(c):
        # each configuration's entry of g per joint observation, (A, JO)
        return start[c] + sum(rows[j][idx[j][c]][:, local[j]] * strides[j] for j in range(n))

    for lo in range(0, len(configs), min(sizes)):
        batch = configs[lo : lo + min(sizes)]
        # owns[i][p, o]: configuration lo + p assigns agent i's branch o
        owns = [holes[i][idx[i][batch]] & (batch < sizes[i])[:, None] for i in range(n)]
        live = np.flatnonzero(np.any([own.any(axis=1) for own in owns], axis=0))
        current = base[which[batch]] + g.take(child_index(batch)).sum(axis=1)
        while live.size:
            improved = np.zeros(len(batch), dtype=bool)
            for i, o in pairs:
                p = live[owns[i][live, o]]
                if not p.size:
                    continue
                c, step = lo + p, (local[i] == o) * strides[i]
                index = child_index(c) - np.outer(rows[i][c, o], step)
                # (A, D, JO) donor trials; take, unlike g[trial], returns them
                # C-ordered whatever the layout of trial, so each sum is pairwise
                trial = index[:, None, :] + np.outer(np.arange(num_donors[i]), step)
                scores = base[which[c]][:, None] + g.take(trial).sum(axis=2)
                # a repeat of the incumbent's tree has a bit-identical tensor row
                # and never strictly improves, so skipping its row is enough
                scores[np.arange(len(p)), rows[i][c, o]] = -np.inf
                best = scores.argmax(axis=1)
                score = scores[np.arange(len(p)), best]
                gain = score > current[p]
                rows[i][c[gain], o] = best[gain]
                current[p[gain]] = score[gain]
                improved[p[gain]] = True
            live = live[improved[live]]
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
