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

Values come in two forms.  At K beliefs, ``belief_scores`` projects the
selected lists' values onto each belief before the transition, then
contracts the projected children with one agent's one-hot row matrix
(``table_rows``) at a time: every joint tuple's K values, and no
tuple's S-wide row, which is how the planner scores a level.  In state
columns, a tuple's value is its expected reward plus, per joint
observation, one row of the weighted children (``weighted_stack``, the
selected lists' values weighted by one step's mass).  ``picked_values``
adds them up for the tuples of a grid of rows, reading each tuple's
joint action and child tuples off its agents' term rows
(``term_rows``): the few tuples the planner keeps, or every tuple of a
table for ``backup_values``, the joint value tensor the exact solver
prunes.  The solvers return the rows their policy reaches as tables
(``JointPolicy._from_tables``); no policy tree is built.
``fill_missing`` and the exact solver's top level pick one agent's
children per observation, from its ``observation_shares``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
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


@dataclass(frozen=True)
class ObservationSelection:
    """Per-agent subsets of local observation indices, sorted ascending.

    ``captured_mass`` is the joint-observation mass the subsets keep,
    summed over the joint observations whose every component is kept, at
    the (belief, action) ``rank_observations`` ranked at; None for a
    selection built by hand.  It takes no part in equality.
    """

    per_agent: tuple[tuple[int, ...], ...]
    captured_mass: float | None = field(default=None, compare=False)

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
            "lower max_trees or max_obs, or raise backup_cap"
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
    level's selected list; the backup is ``partial_backup`` with every
    observation selected.  With ``donors`` None the candidates are the
    depth-1 trees, one per action.
    """
    if donors is not None:
        every = ObservationSelection(tuple(tuple(range(c)) for c in model.observation_counts))
        return partial_backup(model, donors, every, cap)
    tables = [_backup_table(count, 1, 0, (), cap, i) for i, count in enumerate(model.action_counts)]
    return CandidateSet(*zip(*tables))


def partial_backup(
    model: DecPomdp,
    donors: Sequence[int],
    selection: ObservationSelection,
    cap: int = 1_000_000,
) -> CandidateSet:
    """One-step extensions with children assigned only for selected observations.

    Rows run action-major, child rows lexicographic over the selected
    observations; the rest are holes (-1).
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


@lru_cache(maxsize=None)
def _subset_families(counts: tuple[int, ...], max_obs: int):
    """Every family of min(max_obs, |O_i|)-observation subsets, one per agent.

    ``counts`` is a model's ``observation_counts``.  Families run in the
    product order of each agent's lexicographic subsets.  Returns their
    subsets and an (F, k) read-only array of the joint observations each
    keeps, cached on the plain tuples, so no model is kept alive.
    """
    per_agent = [itertools.combinations(range(c), min(max_obs, c)) for c in counts]
    combos = tuple(itertools.product(*per_agent))
    flat = np.array([np.ravel_multi_index(np.ix_(*c), counts).ravel() for c in combos])
    flat.setflags(write=False)
    return combos, flat


def _capture_matrix(q: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Captured mass per (family, row) for joint observation probabilities q.

    Each family's mass is numpy's sum over a gathered (kept observation,
    row) block, the same sum as ``q[:, family].sum(axis=1)``; families go
    a few at a time so the gathered block stays near 1 MB.
    """
    cols = np.ascontiguousarray(q.T)
    captures = np.empty((len(flat), len(q)))
    step = max(1, (1 << 17) // (flat.shape[1] * len(q)))
    for f in range(0, len(flat), step):
        cols[flat[f:f + step]].sum(axis=1, out=captures[f:f + step])
    return captures


def rank_observations(
    model: DecPomdp, belief: BeliefState, action, max_obs: int
) -> ObservationSelection:
    """The per-agent subsets that keep the most joint-observation mass under (belief, action).

    The best of the ``_subset_families`` families, ties going to the
    first (at ``max_obs`` 1, the likeliest joint observation of lowest
    index): the family that ``epsilon_at`` and ``epsilon_global``
    measure.  The selection records its mass.
    """
    max_obs = require_count(max_obs, "max_obs", ConfigError)
    combos, flat = _subset_families(model.observation_counts, max_obs)
    captures = _capture_matrix(model.observation_probabilities(belief, action)[None, :], flat)[:, 0]
    best = int(captures.argmax())
    return ObservationSelection(combos[best], float(captures[best]))


def weighted_stack(model: DecPomdp, prev: np.ndarray, joint_actions=None) -> np.ndarray:
    """Child tuples' values weighted by one step's mass, shape (JO, J * M, S).

    ``prev`` holds the values of M child tuples, (..., S), flattened in C
    order, and ``joint_actions`` lists J joint actions (default all, in
    order).  Entry [jo, j * M + c, s] is sum_{s'} T[ja][s, s']
    O[ja][s', jo] prev[c, s'] with ja = ``joint_actions[j]``: the share of
    child tuple c in the value of a tuple that takes joint action ``ja``
    in state s and then sees joint observation ``jo``.  Per joint action
    the children are weighted by each observation column first, then one
    stacked matmul applies the transition; slice jo is the same BLAS call
    as the 2-D product ``(prev * O[ja][:, jo]) @ T[ja].T`` and gives its
    bits for any M, one child tuple included, and whichever other joint
    actions are listed.
    """
    num_s = model.num_states
    prev_flat = prev.reshape(-1, num_s)
    if joint_actions is None:
        joint_actions = range(model.num_joint_actions)
    num_jo = model.num_joint_observations
    out = np.empty((num_jo, len(joint_actions)) + prev_flat.shape)
    # one buffer for all joint actions: a fresh one per joint action was slower
    masked = np.empty((num_jo,) + prev_flat.shape)
    for j, ja in enumerate(joint_actions):
        np.multiply(prev_flat[None], model.observation[ja].T[:, None, :], out=masked)
        np.matmul(masked, model.transition[ja].T, out=out[:, j])
    return out.reshape(num_jo, -1, num_s)


def term_rows(model: DecPomdp, candidates: CandidateSet, donors) -> tuple[np.ndarray, ...]:
    """Per agent, each row's shares of its joint tuples' indices.

    ``donors`` gives the lengths of the lists the children index, None
    for depth-1 tables.  Agent i's row holds its action times its
    joint-action stride, then, per joint observation, its child row
    after its own component of it times its stride among the child
    tuples.  Summed over a joint tuple's rows they give the tuple's
    joint action and its child tuple after each joint observation.
    Tables with holes or with child rows past the donor lists are rejected.
    """
    if len(candidates.actions) != model.num_agents:
        raise ConfigError(
            f"candidate set has {len(candidates.actions)} agents, model {model.num_agents}"
        )
    if donors is not None:
        if any((kids < 0).any() for kids in candidates.children):
            raise ConfigError("candidate table has unassigned branches; fill them first")
        for i, kids in enumerate(candidates.children):
            if kids.size and kids.max() >= donors[i]:
                raise ConfigError(f"agent {i} references donor row {kids.max()} of {donors[i]}")
    return _terms(model, candidates.actions, candidates.children, donors)


def _terms(model: DecPomdp, actions, children, donors) -> tuple[np.ndarray, ...]:
    """``term_rows`` of per-agent action and child tables, unchecked."""
    strides = model._action_strides
    terms = [(acts * stride)[:, None] for acts, stride in zip(actions, strides)]
    if donors is None:
        return tuple(terms)
    child_strides = _mixed_radix_strides(donors)
    local = model._local_obs
    return tuple(
        np.concatenate([term, kids[:, local[i]] * child_strides[i]], axis=1)
        for i, (term, kids) in enumerate(zip(terms, children))
    )


def _grid(terms: Sequence[np.ndarray]) -> np.ndarray:
    """Term rows summed over every joint tuple of their rows, shape (len(terms[0]), ..., 1 + JO)."""
    n = len(terms)
    # each agent's rows along its own axis
    return sum(t.reshape((1,) * i + (len(t),) + (1,) * (n - 1 - i) + (-1,)) for i, t in enumerate(terms))


def table_rows(model: DecPomdp, candidates: CandidateSet, donors):
    """A table's rows as the planner reads them: (one-hot rows, term rows), per agent.

    ``donors`` is as for ``term_rows``.  Agent i's one-hot matrix, for
    ``belief_scores``, has a one in column (a, o, c) of the C-ordered
    (A_i, O_i, ``donors[i]``) grid for each local observation o, where a
    is the row's action and c its child row after o; at depth 1 its
    columns are the actions.  The term rows, for ``picked_values``, are
    ``term_rows``.
    """
    terms = term_rows(model, candidates, donors)
    one_hot = []
    for i, (acts, kids) in enumerate(zip(candidates.actions, candidates.children)):
        if donors is None:
            cols, width = acts[:, None], model.action_counts[i]
        else:
            num_obs = model.observation_counts[i]
            cols = (acts[:, None] * num_obs + np.arange(num_obs)) * donors[i] + kids
            width = model.action_counts[i] * num_obs * donors[i]
        rows = np.zeros((len(acts), width))
        np.put_along_axis(rows, cols, 1.0, axis=1)
        one_hot.append(rows)
    return tuple(one_hot), terms


def belief_scores(
    model: DecPomdp, rows: Sequence[np.ndarray], prev: np.ndarray | None, beliefs: np.ndarray
) -> np.ndarray:
    """Every joint tuple's value at each of K beliefs, shape (K, |Q_0|, ..., |Q_{n-1}|).

    ``rows`` is the one-hot rows of ``table_rows``, ``prev`` the value
    tensor of the lists their children index (None for depth-1 tables)
    and ``beliefs`` a (K, S) array.  At belief b a tuple with joint
    action ja scores ER[ja] b plus, per joint observation jo, sum_{s'}
    prev[c, s'] O[ja][s', jo] (b T[ja])[s'] for its child tuple c after
    jo.  So each belief goes through the transition first, and one
    stacked product projects the children onto it: W[ja, c, jo, k], no
    S-wide row of any tuple.  Laid out with each agent's (action,
    observation, child) axes side by side, W is contracted with one
    agent's rows at a time, which sums that agent's observations out;
    for two agents that is X_0 W_k X_1^T per belief.  The expected
    rewards are added at every agent's observation 0, which each row
    reads once.  The scores sum in another order than a value vector
    times the belief, so they can differ from it in the last bits.
    """
    n = model.num_agents
    k = len(beliefs)
    acts = model.action_counts
    # (K, A_0, ..., A_{n-1}): each joint action's expected reward at each belief
    scores = (model.expected_reward @ beliefs.T).T.reshape((k,) + acts)
    if prev is not None:
        num_s = model.num_states
        pushed = np.matmul(beliefs, model.transition)
        # mass[ja, s', jo, k] = O[ja][s', jo] (b_k T[ja])[s']
        mass = model.observation[..., None] * pushed.transpose(0, 2, 1)[:, :, None, :]
        projected = np.matmul(prev.reshape(-1, num_s), mass.reshape(len(mass), num_s, -1))
        # (A..., m..., O..., K) -> (K, A_0, O_0, m_0, A_1, O_1, m_1, ...)
        grid = acts + prev.shape[:-1] + model.observation_counts + (k,)
        axes = [3 * n] + [axis for i in range(n) for axis in (i, 2 * n + i, n + i)]
        projected = projected.reshape(grid).transpose(axes).copy()
        at_first = (slice(None),) + (slice(None), 0, slice(None)) * n
        projected[at_first] += scores.reshape((k,) + sum(((a, 1) for a in acts), ()))
        scores = projected
    lead = k
    for x in rows[:-1]:
        scores = np.matmul(x, scores.reshape(lead, x.shape[1], -1))
        lead *= len(x)
    scores = scores.reshape(lead, -1) @ rows[-1].T
    return scores.reshape((k,) + tuple(len(x) for x in rows))


# floats of stacked terms per block of picked_values (512 KiB); output
# blocks of 2^20 floats ran box pushing's kernel 20-35% slower
_VALUE_BLOCK = 1 << 16


def picked_values(
    model: DecPomdp, terms: Sequence[np.ndarray], picked, prev: np.ndarray | None
) -> np.ndarray:
    """Value vectors of the joint tuples ``np.ix_(*picked)``, shape (len(picked[0]), ..., S).

    ``terms`` is ``term_rows`` of a table, ``picked[i]`` lists rows of
    agent i's table, and ``prev`` is the value tensor of the lists the
    children index (None for depth-1 tables).  A tuple's row is the
    expected reward of its joint action plus, per joint observation in
    order, its child tuple's row of ``weighted_stack``, which weights
    only the joint actions the picks take.  Rows are filled in blocks of
    agent 0's picks: one gather stacks a block's terms, (1 + JO, rows,
    S) of about ``_VALUE_BLOCK`` floats, and one reduction adds them in
    that order.  Each row's sum does not depend on the block, the other
    rows or the other joint actions.
    """
    sizes = tuple(len(rows) for rows in picked)
    # take, not a fancy index: it reads a short list of rows faster
    picks = [term.take(rows, axis=0) for term, rows in zip(terms, picked)]
    num_s = model.num_states
    out = np.empty(sizes + (num_s,))
    if prev is None:
        np.take(model.expected_reward, _grid(picks).ravel(), axis=0, out=out.reshape(-1, num_s))
        return out
    # every combination of the agents' own actions occurs in the grid
    used = sorted(
        {sum(c) for c in itertools.product(*(set(p[:, 0].tolist()) for p in picks))}
    )
    weighted = weighted_stack(model, prev, used)
    num_jo, width = weighted.shape[:2]
    weighted = weighted.reshape(-1, num_s)
    # each used joint action's first row in a joint observation's slice of
    # weighted, and each slice's first row
    num_children = math.prod(prev.shape[:-1])
    first = np.zeros(model.num_joint_actions, dtype=np.int64)
    first[used] = np.arange(0, len(used) * num_children, num_children)
    slices = np.arange(0, num_jo * width, width)[:, None]
    # a block's terms, (1 + JO, rows, S), hold about _VALUE_BLOCK floats
    step = max(1, _VALUE_BLOCK // (math.prod(sizes[1:]) * num_s * (1 + num_jo)))
    for lo in range(0, sizes[0], step):
        block = out[lo : lo + step].reshape(-1, num_s)
        # per tuple, its joint action, then its child tuple per joint observation
        tuples = _grid([picks[0][lo : lo + step], *picks[1:]]).reshape(len(block), -1)
        # the expected reward, then each joint observation's share, added in that order
        parts = np.empty((1 + num_jo,) + block.shape)
        np.take(model.expected_reward, tuples[:, 0], axis=0, out=parts[0])
        np.take(weighted, tuples[:, 1:].T + first[tuples[:, 0]] + slices, axis=0, out=parts[1:])
        np.add.reduce(parts, axis=0, out=block)
    return out


def backup_values(model: DecPomdp, candidates: CandidateSet, prev: np.ndarray | None) -> np.ndarray:
    """Joint value tensor of backed-up candidates, shape (|Q_0|, ..., |Q_{n-1}|, S).

    ``prev`` is the (m_0, ..., m_{n-1}, S) value tensor of the previous
    level's selected lists, whose rows the candidates' children index.
    With ``prev`` None the candidates are depth-1 trees and a tuple's
    value is the expected immediate reward of its joint action.  This is
    ``picked_values`` of every row: every entry adds the same terms in
    the same order as indexing each (joint action, joint observation)
    block of weighted children by the child rows, so the result is the
    same bit for bit.
    """
    terms = term_rows(model, candidates, None if prev is None else prev.shape[:-1])
    return picked_values(model, terms, [np.arange(size) for size in candidates.sizes], prev)


# shares this close to the best count as ties: the kernels sum in another
# order than exact evaluation, so mathematically equal values can differ
# in the last bits
TIE_TOL = 1e-12


def _tie_floor(best):
    """Lowest score that still ties with ``best`` (elementwise for arrays)."""
    return best - TIE_TOL * np.maximum(1.0, np.abs(best))


def observation_shares(model: DecPomdp, agent: int, kids, table: np.ndarray, block: np.ndarray):
    """An agent's value share per (observation, own child row), the other agents' rows fixed.

    ``kids`` holds a (P, O_j) block of child rows for every other agent
    j, in order.  ``table`` is (JO, B, m_j for every other agent j, ...):
    a child tuple's weighted value per joint observation and block (a
    joint action), with ``agent``'s child rows in its trailing axes; row
    p reads block ``block[p]``.  F[p, o, ...] sums, in jo order, row p's
    entries after the joint observations whose ``agent`` component is o,
    so a tuple's value is a constant plus, per o, F[p, o] at its child after o.
    """
    n = model.num_agents
    counts, rest = table.shape[2 : n + 1], table.shape[n + 1 :]
    flat = table.reshape(table.shape[:1] + (-1,) + rest)
    local = model._local_obs
    others = [j for j in range(n) if j != agent]
    # (P, JO): the row of flat each p reads after each joint observation
    index = (block * math.prod(counts))[:, None] + sum(
        k[:, local[j]] * stride for j, k, stride in zip(others, kids, _mixed_radix_strides(counts))
    )
    order = model._obs_order[agent]
    shares = flat[order[0], index[:, order[0]]]
    for jos in order[1:]:
        shares += flat[jos, index[:, jos]]
    return shares


def pick_children(shares: np.ndarray, incumbent: np.ndarray | None = None) -> np.ndarray:
    """Lowest index along the last axis within ``TIE_TOL`` of the best, or a tying ``incumbent``."""
    ties = shares >= _tie_floor(shares.max(axis=-1))[..., None]
    picks = ties.argmax(axis=-1)
    if incumbent is None:
        return picks
    return np.where(np.take_along_axis(ties, incumbent[..., None], -1)[..., 0], incumbent, picks)


def fill_missing(
    model: DecPomdp, partials: CandidateSet, values: np.ndarray, belief: BeliefState
) -> CandidateSet:
    """Completes partial candidates with donor rows by alternating best response at ``belief``.

    ``values`` is the (m_0, ..., m_{n-1}, S) joint value tensor of the
    donors, the previous level's selected lists.  Row c of every table
    (shorter tables wrap) forms configuration c, which fills the holes
    of the rows it is first to use.  Holes start at donor 0; then each
    agent in turn moves its holes to ``pick_children`` of its
    ``observation_shares``, until a full round of agents moves nothing.
    Each move gains more than the tie floor, so the climb ends.
    Configurations climb in lockstep, in batches of min(sizes): within
    one, each agent's rows are distinct and wrapped rows are final, so
    each climbs as it would alone.  Complete inputs are returned as is.
    """
    n = model.num_agents
    if len(partials.actions) != n or values.shape[n:] != (model.num_states,):
        raise ConfigError(
            f"value tensor shape {values.shape} does not match {n} agents and "
            f"{model.num_states} states"
        )
    b = model._belief_probs(belief)
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
    # per joint action used, G[jo, c] = sum_{s'} U[jo, s'] V[c, s'] with
    # U[jo, s'] = O[ja][s', jo] * (b P[ja])(s'), the unnormalized one-step
    # posterior mass weighting child tuple c
    flat = values.reshape(-1, model.num_states)
    g = np.stack(
        [(flat @ (model.observation[ja] * (b @ model.transition[ja])[:, None])).T for ja in used]
    ).reshape((len(used), model.num_joint_observations) + num_donors)
    # per agent d, G laid out (JO, joint actions used, other agents' donors, d's donors)
    tables = [np.ascontiguousarray(np.moveaxis(g, (1, 2 + d), (0, -1))) for d in range(n)]

    for lo in range(0, len(configs), min(sizes)):
        batch = configs[lo : lo + min(sizes)]
        # owns[i][p, o]: configuration lo + p assigns agent i's branch o
        owns = [holes[i][idx[i][batch]] & (batch < sizes[i])[:, None] for i in range(n)]
        live = np.flatnonzero(np.any([own.any(axis=1) for own in owns], axis=0))
        while live.size:
            moved = np.zeros(len(batch), dtype=bool)
            for d in range(n):
                p = live[owns[d][live].any(axis=1)]
                if not p.size:
                    continue
                # configuration c owns agent d's row c
                c = lo + p
                kids = [rows[j][idx[j][c]] for j in range(n) if j != d]
                mine = rows[d][c]
                picks = pick_children(observation_shares(model, d, kids, tables[d], which[c]), mine)
                move = owns[d][p] & (picks != mine)
                rows[d][c] = np.where(move, picks, mine)
                moved[p] |= move.any(axis=1)
            live = live[moved[live]]
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
