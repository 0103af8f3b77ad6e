"""Policy trees, joint policies, exact evaluation, simulation, serialization.

A joint policy holds integer tables, one action array and one child-row
table per agent and depth, with each shared subtree in a single row.
The solvers build these tables directly.  Policy trees (immutable,
shared nodes) exist only at the API boundary: hand-built trees are
compiled once into a ``JointPolicy``, policy files are read straight
into its tables, and ``JointPolicy.trees`` builds nodes on request.
``CompiledPolicy`` checks the tables against a model; simulation,
trajectory replay, exact evaluation and serialization all read them a
depth at a time, without recursion; exact evaluation and simulation
step through the grid of the agents' rows at each depth.  Simulation
looks up a joint observation only at depths where some tuple's child
depends on it.  It reads each outcome from a guide table of buckets per
cumulative row, and searches the row's sorted distinct values only for
a draw in a bucket that holds one of them; either way the outcome is
that of comparing the draw with the whole row.  An episode count whose arrays
would pass ``MAX_GRID_FLOATS`` raises ``CapacityError`` before any is
allocated.  Only ``json`` recurses, and a nested policy file too deep
for it is rejected with ``ParseError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .backup import _grid, _terms, picked_values
from .errors import EvaluationError, ModelError, ParseError, require_count, require_floats, require_seed
from .model import BeliefState, DecPomdp

POLICY_FORMAT = "mbdp-joint-policy"
POLICY_VERSION = 1
# nested serialization switches to the shared-node form above this many
# expanded nodes per policy; read at each call
INLINE_NODE_LIMIT = 20_000
# ... or above this depth, so that json can still write and read the file
NESTED_MAX_DEPTH = 200


class PolicyTree:
    """Immutable per-agent decision tree node.

    ``children`` has one slot per local observation; ``None`` marks a
    branch that has not been assigned yet (a partial tree).  Depth-1
    nodes carry an empty children tuple.
    """

    __slots__ = ("action", "children", "depth", "complete")

    def __init__(self, action: int, children: Sequence["PolicyTree | None"] = ()):
        children = tuple(children)
        present = [c for c in children if c is not None]
        if children and not present:
            raise ModelError("a non-leaf node must have at least one child present")
        if present:
            depths = {c.depth for c in present}
            if len(depths) != 1:
                raise ModelError(f"child depths differ: {sorted(depths)}")
            depth = 1 + present[0].depth
            complete = len(present) == len(children) and all(c.complete for c in present)
        else:
            depth = 1
            complete = True
        object.__setattr__(self, "action", int(action))
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "complete", complete)

    def __setattr__(self, name, value):
        raise AttributeError("PolicyTree nodes are immutable")

    def __repr__(self):
        return f"PolicyTree(action={self.action}, depth={self.depth}, complete={self.complete})"

    def child(self, obs: int) -> "PolicyTree | None":
        return self.children[obs] if self.children else None


@dataclass(frozen=True, eq=False, repr=False, init=False)
class JointPolicy:
    """One complete policy per agent, all of one depth, held as integer tables.

    For agent i and depth d (0 is the root), ``actions[i][d]`` is an int
    array over that depth's rows and ``children[i][d]`` maps (row, local
    observation) to a row of depth d + 1.  Rows are numbered by first
    reference from the depth above, parent row first, then observation,
    so a shared subtree is a single row, and every row is reached from
    the root, which ``PolicyEvaluator`` relies on.  The arrays are
    read-only.  Trees given to the constructor are compiled once and not
    kept: ``trees`` is built from the tables on first use, one shared
    node per row.
    """

    actions: tuple[tuple[np.ndarray, ...], ...]
    children: tuple[tuple[np.ndarray, ...], ...]

    def __init__(self, trees: Sequence[PolicyTree]):
        self._hold([_compile(i, t, range(len(t.children))) for i, t in enumerate(trees)])

    @classmethod
    def _from_tables(cls, actions, children, rows=None) -> "JointPolicy":
        """The policy that starts each agent i at the first row of its depth 0.

        Depth d of agent i holds rows ``rows[i][d]`` of the tables
        ``actions[i][d]`` and ``children[i][d]`` (every row when ``rows``
        is None), and a child indexes the rows of depth d + 1.  Only the
        rows the root reaches are kept, renumbered by first reference
        (``_number``) a depth at a time: each depth gathers the actions
        and child rows of the rows it reached, and no other row is read.
        """
        tables = []
        for i, (acts, kids) in enumerate(zip(actions, children)):
            level, acts_out, kids_out = [0], [], []
            for d, table in enumerate(acts):
                at = level if rows is None else [rows[i][d][r] for r in level]
                # take, not a fancy index: it reads a short list of rows faster
                acts_out.append(np.asarray(table, dtype=np.int64).take(at))
                if d == len(kids):
                    break
                below = np.asarray(kids[d]).take(at, axis=0)
                flat, level = _number(below.tolist())
                kids_out.append(np.array(flat, dtype=np.int64).reshape(below.shape))
            tables.append((acts_out, kids_out))
        return cls.__new__(cls)._hold(tables)

    def _hold(self, tables):
        depths = {len(acts) for acts, _ in tables}
        if len(depths) != 1:
            raise ModelError(f"joint policy needs trees of one depth, got depths {sorted(depths)}")
        for table in (t for acts, kids in tables for t in (*acts, *kids)):
            table.flags.writeable = False
        object.__setattr__(self, "actions", tuple(tuple(acts) for acts, _ in tables))
        object.__setattr__(self, "children", tuple(tuple(kids) for _, kids in tables))
        return self

    @cached_property
    def trees(self) -> tuple[PolicyTree, ...]:
        """Each agent's root node, built on first use with one shared node per table row."""
        roots = []
        for acts, kids in zip(self.actions, self.children):
            nodes = [PolicyTree(a) for a in acts[-1].tolist()]
            for level, table in zip(acts[-2::-1], kids[::-1]):
                nodes = [PolicyTree(a, [nodes[c] for c in row]) for a, row in zip(level.tolist(), table.tolist())]
            roots.append(nodes[0])
        return tuple(roots)

    @property
    def depth(self) -> int:
        return len(self.actions[0])

    @property
    def num_agents(self) -> int:
        return len(self.actions)


def _number(rows):
    """The keys in ``rows`` numbered by first reference: (each key's number, row by row; the keys in order)."""
    index: dict = {}
    return [index.setdefault(key, len(index)) for row in rows for key in row], list(index)


def _first_reference(agent: int, root, read):
    """(actions, children) tables of the rows that ``root`` reaches, a depth at a time.

    ``read(key)`` gives a node's action and its child keys, one per
    observation, or None at a leaf; equal keys name one node.  Each
    depth's rows are the distinct child keys of the depth above, numbered
    by first reference.  Only a policy file can mix leaves and inner
    nodes at one depth, which raises ``ParseError``.
    """
    level, actions, children = [root], [], []
    while True:
        acts, kids = zip(*map(read, level))
        actions.append(np.array(acts, dtype=np.int64))
        leaves = [k is None for k in kids]
        if all(leaves):
            return actions, children
        _require(not any(leaves), "agent {}: child depths differ at depth {}", agent, len(children))
        flat, level = _number(kids)
        children.append(np.array(flat, dtype=np.int64).reshape(len(kids), -1))


def _compile(agent: int, root: PolicyTree, names: Sequence):
    """(actions, children) per depth of one agent's tree, a child column per entry of ``names``."""
    def read(node):
        if not node.children:
            return node.action, None
        if len(node.children) > len(names):
            raise EvaluationError(f"agent {agent} policy needs {len(names)} branches per node")
        kids = (node.children + (None,) * len(names))[: len(names)]
        missing = [name for kid, name in zip(kids, names) if kid is None]
        if missing:
            raise EvaluationError(f"agent {agent} tree (action {node.action}, depth {node.depth}) "
                                  f"is missing the branch for observation '{missing[0]}'")
        return node.action, kids
    return _first_reference(agent, root, read)


# Unused by the package; kept only because perfbench/bench_trace.py imports it and patches ``retain``.
class ValueTable:
    """Empty stand-in for a value memo the package no longer keeps."""

    def retain(self, keys) -> None:
        """Does nothing."""


class CompiledPolicy:
    """Integer tables of a joint policy, the form every policy consumer reads.

    The tables are laid out as in ``JointPolicy``.  A ``JointPolicy``'s
    are only checked against the model: one policy per agent, a child
    column per observation, actions in range.  A sequence of trees is
    first checked for one tree per agent and equal depths, then
    compiled, which finds any missing branch.
    """

    def __init__(self, model: DecPomdp, joint):
        trees = None if isinstance(joint, JointPolicy) else tuple(joint)
        count = joint.num_agents if trees is None else len(trees)
        if count != model.num_agents:
            raise EvaluationError(f"expected {model.num_agents} trees, got {count}")
        if trees is None:
            actions, children = joint.actions, joint.children
        else:
            if len({t.depth for t in trees}) != 1:
                raise EvaluationError("joint configuration mixes tree depths")
            actions, children = zip(*(_compile(i, t, model.observations[i]) for i, t in enumerate(trees)))
        for i, (acts, kids) in enumerate(zip(actions, children)):
            if {table.shape[1] for table in kids} - {model.observation_counts[i]}:
                raise EvaluationError(f"agent {i} policy needs {model.observation_counts[i]} branches per node")
            every = np.concatenate(acts)
            bad = every[(every < 0) | (every >= model.action_counts[i])]
            if len(bad):
                raise ModelError(f"action {bad[0]} out of range for agent {i}")
        self.depth = len(actions[0])
        self.actions, self.children = actions, children


class PolicyEvaluator:
    """Exact joint-policy evaluation on ``CompiledPolicy`` tables.

    Every row is reached from the root and every joint observation is
    followed, so depth d reaches the whole grid of the agents' depth-d
    rows.  Bottom up, each grid is ``picked_values`` of all its rows,
    the planner's kernel, over the grid below; a tuple's vector has the
    bits it has wherever that kernel values it.
    """

    def __init__(self, model: DecPomdp):
        model.require_valid()
        self.model = model

    def value_vector(self, joint) -> np.ndarray:
        """State-indexed exact value vector of a joint configuration."""
        model = self.model
        policy = CompiledPolicy(model, joint)
        values = None
        for d in range(policy.depth - 1, -1, -1):
            kids = below = None
            if values is not None:
                kids, below = [k[d] for k in policy.children], values.shape[:-1]
            terms = _terms(model, [a[d] for a in policy.actions], kids, below)
            values = picked_values(model, terms, [np.arange(len(t)) for t in terms], values)
        return values.reshape(-1, model.num_states)[0]

    def at_state(self, joint, state: int) -> float:
        if require_count(state, "state", EvaluationError, least=0) >= self.model.num_states:
            raise EvaluationError(f"state {state} out of range for {self.model.num_states} states")
        return float(self.value_vector(joint)[state])

    def at_belief(self, joint, belief: BeliefState) -> float:
        return float(self.model._belief_probs(belief) @ self.value_vector(joint))


def evaluate_at_state(model: DecPomdp, joint, state: int) -> float:
    """Exact value of a joint policy started in a single state."""
    return PolicyEvaluator(model).at_state(joint, state)


def evaluate_at_belief(model: DecPomdp, joint, belief: BeliefState) -> float:
    """Exact value of a joint policy under a starting belief (linear in the belief)."""
    return PolicyEvaluator(model).at_belief(joint, belief)


# ---- simulation ----------------------------------------------------------


@dataclass(frozen=True)
class SimulationResult:
    mean: float
    std_error: float
    episodes: int


class _RowSampler:
    """Categorical draws from the rows of a cumulative table: a guide table, then a binary search.

    A draw ``u`` on row ``r`` of ``cumulative`` (rows, K) has outcome
    ``min(#{k : cumulative[r, k] < u}, K - 1)``, as if ``u`` were compared
    with the whole row.  That count does not depend on the order of the
    row, so each row is sorted and its K - 1 smallest entries are kept.
    Sorting is required, not a shortcut: rows may carry negative dust
    down to ``-PROB_TOL``, so a cumulative row need not be monotone.
    A sparse row repeats values (a zero-probability outcome adds
    nothing), so only each row's distinct kept values count, padded with
    ``+inf`` to a power-of-two width P above the largest distinct count
    of any row.  The outcome is entry m of the row's count table, where
    m is the number of distinct values below the draw; entry m is the
    number of kept entries below the row's m-th distinct value, and
    K - 1 past the last, which is the clamp.

    The guide table (Chen & Asau 1974; Devroye 1986, III.2.4) splits
    [0, 1) into B buckets per row, B a power of two, so ``u * B`` is
    exact and truncates to the draw's bucket.  Where no distinct value
    lies in a bucket, m is the same for every draw in it and the entry
    holds the outcome; elsewhere it holds -1.  Entry B of each row holds
    the outcome of a draw of exactly 1, so such a draw stays on its row.  Every draw reads the
    guide, and only those on a -1 entry go on to a fixed-step binary
    search (Khuong & Morin 2017) that finds m in log2(P) gathers.  Both
    compare the draw with the same doubles as the whole-row comparison,
    so every outcome is identical to it.
    """

    def __init__(self, cumulative: np.ndarray):
        rows, k = cumulative.shape
        kept = np.sort(cumulative, axis=1)[:, : k - 1]
        first = np.ones(kept.shape, dtype=bool)
        first[:, 1:] = kept[:, 1:] != kept[:, :-1]
        self.width = 1 << int(first.sum(axis=1).max()).bit_length()
        # each distinct value goes to its rank in the row, with the
        # position of its first occurrence as its count
        r, j = np.nonzero(first)
        rank = np.cumsum(first, axis=1)[r, j] - 1
        values = np.full((rows, self.width), np.inf)
        values[r, rank] = kept[r, j]
        counts = np.full((rows, self.width), k - 1, dtype=np.int64)
        counts[r, rank] = j
        # one unused entry in front: value m of row r is values[r * width + m + 1]
        self.values = np.concatenate(([np.nan], values.ravel()))
        self.counts = counts.ravel()
        # about 2^16 guide entries (0.5 MiB), 16 to 4,096 buckets per row;
        # below[r, b] counts the distinct values v < b / B, that is the
        # edges b > v * B, so v adds one from edge floor(v * B) + 1 on
        self.buckets = buckets = 1 << min(max(((1 << 16) // rows).bit_length() - 1, 4), 12)
        edge = np.clip(np.floor(values * buckets) + 1, 0, buckets + 1).astype(np.int64)
        edge += np.arange(rows)[:, None] * (buckets + 2)
        below = np.bincount(edge.ravel(), minlength=rows * (buckets + 2)).reshape(rows, -1).cumsum(axis=1)
        clean = np.ones((rows, buckets + 1), dtype=bool)
        clean[:, :-1] = below[:, 1:-1] == below[:, :-2]
        self.guide = np.where(clean, np.take_along_axis(counts, below[:, :-1], axis=1), -1).ravel()

    def draw(self, rows: np.ndarray, draws: np.ndarray, out: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Writes the outcome of ``draws[e]`` on row ``rows[e]`` to ``out[e]``.

        ``index`` is an int64 buffer as long as ``draws``; its contents
        are overwritten.
        """
        # indices are in range by construction, and mode="clip" skips the
        # copy that the bounds check makes
        np.multiply(draws, self.buckets, out=index, casting="unsafe")
        np.multiply(rows, self.buckets + 1, out=out)
        index += out
        np.take(self.guide, index, out=out, mode="clip")
        at = np.flatnonzero(out < 0)
        if len(at):
            out[at] = self._search(rows[at], draws[at])
        return out

    def _search(self, rows: np.ndarray, draws: np.ndarray) -> np.ndarray:
        # index holds row * width + m, and m rises by step when the row's
        # value m + step - 1 lies below the draw
        index = rows * self.width
        step = self.width >> 1
        while step:
            index += (np.take(self.values, index + step, mode="clip") < draws) * step
            step >>= 1
        return np.take(self.counts, index, mode="clip")


# episodes per block of simulate's lookups (1.25 MiB of buffers); box pushing
# h=10 ran 5-20% slower at 2^12 and 2^17, mabc h=100 did not resolve them
_SIM_BLOCK = 1 << 15


def simulate(model: DecPomdp, joint, episodes: int, seed: int) -> SimulationResult:
    """Monte Carlo estimate of a joint policy's value from the initial belief.

    Each episode holds an index into its depth's grid of joint row tuples,
    numbered as in ``PolicyEvaluator``, whose table (the only one held)
    gives each tuple's joint action and child tuple per joint observation.
    A step draws for all episodes, then samples and looks up
    ``_SIM_BLOCK`` episodes at a time.  A depth with one tuple reads its
    joint action as a number.  A depth where each tuple's child is the
    same after every joint observation looks up no observation: the next
    tuple is a gather of that child column, or stays tuple 0 at a depth
    of one tuple.  Its observation uniforms are still drawn, so the
    stream is the same.  Each categorical draw on a
    cumulative row of the start belief, ``T`` or ``O`` is one read of the
    row's guide table, and a binary search over the row's sorted distinct
    values only where the draw's bucket holds one of them
    (``_RowSampler``).  A fixed seed reproduces results bit-for-bit: the
    draws come in a fixed order from one generator (the start state, then
    per step the next state and, before the last step, the joint
    observation), and each outcome equals comparing the draw with its
    whole cumulative row.
    """
    model.require_valid()
    n = require_count(episodes, "episodes", EvaluationError)
    rng = np.random.default_rng(require_seed(seed, EvaluationError))
    # five arrays of n: the tuples, states, returns and two draw columns
    require_floats(5 * n, "{episodes} episodes would take {floats} floats (cap {cap}); lower episodes", episodes=n)
    policy = CompiledPolicy(model, joint)
    num_states = model.num_states

    start = _RowSampler(np.cumsum(model.initial_belief.probs)[None, :])
    transition = _RowSampler(np.cumsum(model.transition, axis=-1).reshape(-1, num_states))
    observation = _RowSampler(np.cumsum(model.observation, axis=-1).reshape(-1, model.num_joint_observations))
    reward = model.reward.ravel()
    # per episode: its joint row tuple (the root tuple is 0), state, return and
    # draws; per block, views of those, four int buffers and a float one
    total, t_draws, o_draws = np.zeros(n), np.empty(n), np.empty(n)
    episode = (np.zeros(n, dtype=np.int64), np.empty(n, dtype=np.int64), total, t_draws, o_draws)
    size = min(n, _SIM_BLOCK)
    buffers = (*(np.zeros(size, dtype=np.int64) for _ in range(4)), np.empty(size))
    blocks = [(*(v[lo : lo + size] for v in episode), *(b[: min(size, n - lo)] for b in buffers))
              for lo in range(0, n, size)]
    rng.random(n, out=t_draws)
    for _, state, _, draws, _, _, _, zeros, flat, _ in blocks:
        start.draw(zeros, draws, state, flat)
    for t in range(policy.depth):
        last = t == policy.depth - 1
        below = None if last else tuple(len(a[t + 1]) for a in policy.actions)
        children = None if last else [k[t] for k in policy.children]
        grid = _grid(_terms(model, [a[t] for a in policy.actions], children, below))
        # per column, a plane over the tuples in C order (a view of how _grid lays
        # out _terms sums): joint action * num_states, then each observation's child
        planes = np.moveaxis(grid, -1, 0).reshape(grid.shape[-1], -1)
        acts, count = planes[0], planes.shape[1]
        acts *= num_states
        # one tuple's joint action is a scalar
        act = acts[0] if count == 1 else None
        # kids: each tuple's child per joint observation, read after an
        # observation draw; column: each tuple's child where it is the same
        # after every joint observation, so no observation is looked up.  One
        # tuple with one child needs neither: every row is reached, so the
        # next depth is one tuple too
        kids = column = None
        if not last and (planes[2:] != planes[1]).any():
            kids = planes[1:].reshape(-1)
        elif not last and count > 1:
            column = planes[1]
        rng.random(n, out=t_draws)
        if not last:
            rng.random(n, out=o_draws)
        for tuples, state, returns, t_u, o_u, at, base, row, flat, value in blocks:
            if act is None:
                np.take(acts, tuples, out=base, mode="clip")
                np.add(base, state, out=row)
            else:
                np.add(state, act, out=row)
            # the next state replaces the state, which the T row holds
            transition.draw(row, t_u, state, flat)
            np.multiply(row, num_states, out=flat)
            flat += state
            returns += np.take(reward, flat, out=value, mode="clip")
            if kids is not None:
                if act is None:
                    base += state
                else:
                    np.add(state, act, out=base)
                np.multiply(observation.draw(base, o_u, row, flat), count, out=at)
                at += tuples
                np.take(kids, at, out=tuples, mode="clip")
            elif column is not None:
                # take reads each index before it writes that entry
                np.take(column, tuples, out=tuples, mode="clip")
        del grid, planes, acts, kids, column
    std_error = float(total.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return SimulationResult(mean=float(total.mean()), std_error=std_error, episodes=n)


# ---- serialization ----------------------------------------------------


def serialize_policy(model: DecPomdp, joint) -> str:
    """Canonical text form of a joint policy, written from its ``CompiledPolicy`` tables.

    Children keys appear in observation-set order, so output is
    byte-deterministic.  The nested form writes each agent's unrolled
    tree; it is used while the trees have at most ``INLINE_NODE_LIMIT``
    unrolled nodes in all and a depth of at most ``NESTED_MAX_DEPTH``.
    Otherwise the shared-node form lists each table row once, children
    before parents, and references it by index.
    """
    policy = CompiledPolicy(model, joint)
    last = policy.depth - 1
    # unrolled node counts, clipped just above the limit (and 2**40) so
    # that they fit in int64 however deep the trees are
    cap = min(INLINE_NODE_LIMIT, 1 << 40) + 1
    expanded = 0
    for acts, kids in zip(policy.actions, policy.children):
        count = np.ones(len(acts[-1]), dtype=np.int64)
        for table in reversed(kids):
            count = np.minimum(1 + count[table].sum(axis=1), cap)
        expanded += int(count[0])
    nested = expanded < cap and policy.depth <= NESTED_MAX_DEPTH
    agents = []
    for i, (acts, kids) in enumerate(zip(policy.actions, policy.children)):
        action_names, obs_names = model.actions[i], model.observations[i]
        acts, kids = [a.tolist() for a in acts], [k.tolist() for k in kids]
        if nested:
            # one record per row, deepest level first; json.dumps writes a
            # shared child record out at every place that references it
            records = [{"action": action_names[a]} for a in acts[last]]
            for d in range(last - 1, -1, -1):
                records = [
                    {"action": action_names[a], "children": dict(zip(obs_names, (records[c] for c in row)))}
                    for a, row in zip(acts[d], kids[d])
                ]
            agents.append({"agent": i, "tree": records[0]})
            continue
        # post-order from the root, children in observation order; a row
        # is numbered once all its children are
        index = [[-1] * len(a) for a in acts]
        nodes = []
        stack = [(0, 0, False)]
        while stack:
            d, r, ready = stack.pop()
            if index[d][r] >= 0:
                continue
            if d < last and not ready:
                stack.append((d, r, True))
                stack.extend((d + 1, c, False) for c in reversed(kids[d][r]))
                continue
            index[d][r] = len(nodes)
            nodes.append({"action": action_names[acts[d][r]]})
            if d < last:
                nodes[-1]["children"] = {name: index[d + 1][c] for name, c in zip(obs_names, kids[d][r])}
        agents.append({"agent": i, "root": index[0][0], "nodes": nodes})
    doc = {"format": POLICY_FORMAT, "version": POLICY_VERSION, "horizon": policy.depth,
           "representation": "nested" if nested else "shared", "agents": agents}
    return json.dumps(doc, indent=2) + "\n"


def _require(condition: bool, message: str, *args):
    # the message is built only on failure: parsing checks every node
    if not condition:
        raise ParseError(message.format(*args))


def _read_record(model: DecPomdp, agent: int, record, where: str):
    """A node record's action index and its children in observation order, or None at a leaf."""
    actions, observations = model.actions[agent], model.observations[agent]
    _require(isinstance(record, dict) and "action" in record, "agent {}: {} is not an object with an action",
             agent, where)
    _require(record["action"] in actions, "agent {}: unknown action {!r} at {}", agent, record["action"], where)
    kids = record.get("children")
    if kids is None:
        return actions.index(record["action"]), None
    _require(isinstance(kids, dict), "agent {}: children of {} are not an object", agent, where)
    for key in kids:
        _require(key in observations, "agent {}: unknown observation {!r} at {}", agent, key, where)
    for name in observations:
        _require(name in kids, "agent {}: {} is missing the branch for observation '{}'", agent, where, name)
    return actions.index(record["action"]), [kids[name] for name in observations]


def _read_nested(model: DecPomdp, agent: int, entry):
    """Tables of a nested tree, one row per record: each record is keyed by the order the walk finds it."""
    _require("tree" in entry, "agent {}: nested form needs a 'tree' field", agent)
    found = [(entry["tree"], "root")]
    def read(key):
        record, path = found[key]
        action, kids = _read_record(model, agent, record, f"node at {path}")
        if kids is None:
            return action, None
        found.extend((kid, f"{path}/{name}") for kid, name in zip(kids, model.observations[agent]))
        return action, range(len(found) - len(kids), len(found))
    return _first_reference(agent, 0, read)


def _read_shared(model: DecPomdp, agent: int, entry):
    """Tables of a shared-form entry, keyed by node index; every listed node is checked, reached or not."""
    raw_nodes = entry.get("nodes")
    _require(isinstance(raw_nodes, list) and raw_nodes, "agent {}: shared form needs a node list", agent)
    nodes, depths = [], []
    for idx, record in enumerate(raw_nodes):
        action, kids = _read_record(model, agent, record, f"node {idx}")
        for ref in kids or ():
            _require(type(ref) is int and 0 <= ref < idx,
                     "agent {}: node {} references {!r}, which is not an earlier node", agent, idx, ref)
        below = {depths[ref] for ref in kids or ()}
        _require(len(below) <= 1, "agent {}: child depths of node {} differ: {}", agent, idx, below)
        nodes.append((action, kids))
        depths.append(1 + max(below, default=0))
    root = entry.get("root")
    _require(type(root) is int and 0 <= root < len(nodes), "agent {}: bad root index {!r}", agent, root)
    return _first_reference(agent, root, nodes.__getitem__)


def parse_policy(model: DecPomdp, text: str) -> JointPolicy:
    """Parses the canonical policy text form straight into a joint policy's tables."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError("policy nests too deeply") from exc
    _require(isinstance(doc, dict), "top level is not an object")
    _require(doc.get("format") == POLICY_FORMAT, "unknown format {!r}", doc.get("format"))
    version = doc.get("version")
    _require(type(version) is int and version == POLICY_VERSION, "unsupported version {!r}", version)
    representation = doc.get("representation", "nested")
    _require(representation in ("nested", "shared"), "unknown representation {!r}", representation)
    agents = doc.get("agents")
    _require(isinstance(agents, list) and len(agents) == model.num_agents,
             "expected {} agent entries", model.num_agents)
    tables = [None] * model.num_agents
    for entry in agents:
        _require(isinstance(entry, dict) and type(entry.get("agent")) is int,
                 "agent entry lacks an integer 'agent' field")
        i = entry["agent"]
        _require(0 <= i < model.num_agents, "agent index {} out of range", i)
        _require(tables[i] is None, "duplicate entry for agent {}", i)
        tables[i] = (_read_nested if representation == "nested" else _read_shared)(model, i, entry)
    depths = {len(actions) for actions, _ in tables}
    _require(len(depths) == 1, "agent trees have differing depths: {}", sorted(depths))
    depth, declared = depths.pop(), doc.get("horizon")
    _require(declared is None or type(declared) is int and declared == depth,
             "declared horizon {!r} != tree depth {}", declared, depth)
    return JointPolicy.__new__(JointPolicy)._hold(tables)
