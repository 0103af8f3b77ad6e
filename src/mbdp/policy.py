"""Policy trees, joint policies, exact evaluation, simulation, serialization.

A per-agent policy tree carries an action at every node and one child
slot per local observation.  Trees are immutable and shared: backups
reference existing subtrees instead of copying them, so a horizon-100
policy is a small DAG even though its unrolled tree is astronomically
large.  ``CompiledPolicy`` turns a joint policy into integer tables, one
action array and one child-row table per agent and depth, with each
shared subtree in a single row.  Simulation, trajectory replay, exact
evaluation and serialization all work on those tables a depth at a
time, without recursion.  Only parsing a nested policy file recurses,
and a file nested too deeply for that is rejected with ``ParseError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import EvaluationError, ModelError, ParseError
from .model import BeliefState, DecPomdp

POLICY_FORMAT = "mbdp-joint-policy"
POLICY_VERSION = 1
# nested serialization switches to the shared-node form above this many
# expanded nodes per policy
DEFAULT_INLINE_NODE_LIMIT = 20_000
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

    def same_structure(self, other: "PolicyTree") -> bool:
        """Structural equality (actions and branch shapes); each pair of shared nodes is compared once."""
        seen: set[tuple[int, int]] = set()
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            if a.action != b.action or a.depth != b.depth or len(a.children) != len(b.children):
                return False
            for x, y in zip(a.children, b.children):
                if (x is None) != (y is None):
                    return False
                if x is not None:
                    stack.append((x, y))
        return True


@dataclass(frozen=True, eq=False)
class JointPolicy:
    """One complete policy tree per agent, all of the same depth."""

    trees: tuple[PolicyTree, ...]

    def __post_init__(self):
        object.__setattr__(self, "trees", tuple(self.trees))
        if not self.trees:
            raise ModelError("joint policy needs at least one tree")
        depths = {t.depth for t in self.trees}
        if len(depths) != 1:
            raise ModelError(f"joint policy trees have differing depths: {sorted(depths)}")
        for i, t in enumerate(self.trees):
            if not t.complete:
                raise ModelError(f"agent {i} tree is incomplete")

    @property
    def depth(self) -> int:
        return self.trees[0].depth

    @property
    def num_agents(self) -> int:
        return len(self.trees)


# Unused by the package; kept only because perfbench/bench_trace.py imports it and patches ``retain``.
class ValueTable:
    """Memo of state-value vectors keyed by joint subtree identity.

    Entries are idempotent: the first write for a key wins.
    """

    __slots__ = ("_vectors",)

    def __init__(self):
        self._vectors: dict[tuple[int, ...], np.ndarray] = {}

    def get(self, key):
        return self._vectors.get(key)

    def put(self, key, vector) -> None:
        self._vectors.setdefault(key, vector)

    def retain(self, keys: Iterable[tuple[int, ...]]) -> None:
        """Drops every entry whose key is not listed."""
        wanted = set(keys)
        self._vectors = {k: v for k, v in self._vectors.items() if k in wanted}

    def __len__(self):
        return len(self._vectors)


def _tree_tuple(joint) -> tuple[PolicyTree, ...]:
    if isinstance(joint, JointPolicy):
        return joint.trees
    return tuple(joint)


class CompiledPolicy:
    """Integer tables of a joint policy, the form every policy consumer reads.

    For each agent and tree level d (0 is the root), ``actions[i][d]`` is
    an int array over that level's distinct nodes and ``children[i][d]``
    maps (node_row, local_obs) to a row of level d+1.  Shared subtrees
    occupy a single row, so the tables stay small for solver output.
    Compiling checks the input: one tree per agent, equal depths and no
    missing branch.
    """

    def __init__(self, model: DecPomdp, joint):
        trees = _tree_tuple(joint)
        if len(trees) != model.num_agents:
            raise EvaluationError(f"expected {model.num_agents} trees, got {len(trees)}")
        if len({t.depth for t in trees}) != 1:
            raise EvaluationError("joint configuration mixes tree depths")
        self.depth = trees[0].depth
        self.actions: list[list[np.ndarray]] = []
        self.children: list[list[np.ndarray]] = []
        for i, root in enumerate(trees):
            acts, kids = self._compile(model, i, root)
            self.actions.append(acts)
            self.children.append(kids)

    @staticmethod
    def _compile(model: DecPomdp, agent: int, root: PolicyTree):
        # nodes are told apart by id(); the trees keep them alive meanwhile
        level = [root]
        actions = [np.array([root.action], dtype=np.int64)]
        children = []
        for _ in range(root.depth - 1):
            below: list[PolicyTree] = []
            index: dict[int, int] = {}
            table = np.empty((len(level), model.observation_counts[agent]), dtype=np.int64)
            for r, node in enumerate(level):
                for o, name in enumerate(model.observations[agent]):
                    child = node.children[o] if o < len(node.children) else None
                    if child is None:
                        raise EvaluationError(
                            f"agent {agent} tree (action {node.action}, depth {node.depth}) "
                            f"is missing the branch for observation '{name}'"
                        )
                    if id(child) not in index:
                        index[id(child)] = len(below)
                        below.append(child)
                    table[r, o] = index[id(child)]
            children.append(table)
            actions.append(np.array([n.action for n in below], dtype=np.int64))
            level = below
        bad = [a for acts in actions for a in acts.tolist() if not 0 <= a < model.action_counts[agent]]
        if bad:
            raise ModelError(f"action {bad[0]} out of range for agent {agent}")
        return actions, children


# joint row tuples are coded as int64 numbers below this
_CODE_LIMIT = np.iinfo(np.int64).max


class PolicyEvaluator:
    """Exact joint-policy evaluation on ``CompiledPolicy`` tables.

    Top down, the distinct joint row tuples each depth reaches are found
    by ``np.unique`` on one int64 code per tuple.  Bottom up, per joint
    action, their children's values are gathered, weighted by O and
    carried back through one T matmul.
    """

    def __init__(self, model: DecPomdp):
        model.require_valid()
        self.model = model

    def value_vector(self, joint) -> np.ndarray:
        """State-indexed exact value vector of a joint configuration."""
        model = self.model
        policy = CompiledPolicy(model, joint)
        local = np.array(model._joint_obs_tuples, dtype=np.int64).T
        # rows[d][i]: agent i's row in each tuple depth d reaches;
        # below[d][k, jo]: the depth-d+1 tuple that tuple k moves to on jo
        rows = [[np.zeros(1, dtype=np.int64)] * model.num_agents]
        below = []
        for d in range(policy.depth - 1):
            kids = [table[d][r][:, o].ravel() for table, r, o in zip(policy.children, rows[d], local)]
            code = np.zeros(len(kids[0]), dtype=np.int64)
            for kid, acts in zip(kids, policy.actions):
                size = len(acts[d + 1])
                if code.max() >= _CODE_LIMIT // size:  # renumber densely before it overflows
                    code = np.unique(code, return_inverse=True)[1]
                code = code * size + kid
            _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
            rows.append([kid[first] for kid in kids])
            below.append(inverse.reshape(len(rows[d][0]), -1))
        values = None
        for d in range(policy.depth - 1, -1, -1):
            ja = sum(a[d][r] * stride for a, r, stride in zip(policy.actions, rows[d], model._action_strides))
            level = model.expected_reward[ja]
            if values is not None:
                for a in np.unique(ja):
                    sel = np.flatnonzero(ja == a)
                    weighted = (values[below[d][sel]] * model.observation[a].T).sum(axis=1)
                    level[sel] += weighted @ model.transition[a].T
            values = level
        return values[0]

    def at_state(self, joint, state: int) -> float:
        return float(self.value_vector(joint)[state])

    def at_belief(self, joint, belief: BeliefState) -> float:
        return float(belief.probs @ self.value_vector(joint))


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


# floats per block of gathered rows in simulate's sampling (2 MB)
_SIM_BLOCK_ELEMENTS = 1 << 18


def _sample_rows(cumulative: np.ndarray, index: tuple[np.ndarray, ...], draws) -> np.ndarray:
    """Row-wise categorical draws, one per episode.

    ``cumulative`` holds cumulative distributions along its last axis;
    episode e compares ``draws[e]`` against row ``cumulative[index][e]``.
    Rows are gathered and compared a block of episodes at a time, so no
    (episodes, K) array is ever built whole; each row's result does not
    depend on the block it falls in.
    """
    out = np.empty(len(draws), dtype=np.int64)
    last = cumulative.shape[-1] - 1
    block = max(1, _SIM_BLOCK_ELEMENTS // cumulative.shape[-1])
    for lo in range(0, len(draws), block):
        part = slice(lo, lo + block)
        rows = cumulative[tuple(k[part] for k in index)]
        out[part] = np.minimum((draws[part, None] > rows).sum(axis=1), last)
    return out


def simulate(model: DecPomdp, joint, episodes: int, seed: int) -> SimulationResult:
    """Monte Carlo estimate of a joint policy's value from the initial belief.

    Vectorized over episodes, with each step's categorical draws made in
    blocks of episodes to bound memory; a fixed seed reproduces results
    bit-for-bit because all draws happen in a fixed order on a single
    generator.
    """
    model.require_valid()
    if episodes < 1:
        raise EvaluationError("episodes must be >= 1")
    compiled = CompiledPolicy(model, joint)
    horizon = compiled.depth
    rng = np.random.default_rng(seed)
    n = int(episodes)

    # cumulative sums along each row, taken once; summing a gathered
    # copy of a row gives the same bits
    start = np.cumsum(model.initial_belief.probs)[None, :]
    transition = np.cumsum(model.transition, axis=2)
    observation = np.cumsum(model.observation, axis=2)

    state = _sample_rows(start, (np.zeros(n, dtype=np.int64),), rng.random(n))
    rows = [np.zeros(n, dtype=np.int64) for _ in range(model.num_agents)]
    total = np.zeros(n)
    action_strides = model._action_strides
    obs_strides = model._obs_strides
    for t in range(horizon):
        ja = np.zeros(n, dtype=np.int64)
        for i in range(model.num_agents):
            ja += compiled.actions[i][t][rows[i]] * action_strides[i]
        nxt = _sample_rows(transition, (ja, state), rng.random(n))
        total += model.reward[ja, state, nxt]
        if t < horizon - 1:
            jo = _sample_rows(observation, (ja, nxt), rng.random(n))
            for i in range(model.num_agents):
                local = (jo // obs_strides[i]) % model.observation_counts[i]
                rows[i] = compiled.children[i][t][rows[i], local]
        state = nxt
    mean = float(total.mean())
    std_error = float(total.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return SimulationResult(mean=mean, std_error=std_error, episodes=n)


# ---- serialization ----------------------------------------------------


def serialize_policy(model: DecPomdp, joint, inline_node_limit: int = DEFAULT_INLINE_NODE_LIMIT) -> str:
    """Canonical text form of a joint policy, written from its ``CompiledPolicy`` tables.

    Children keys appear in observation-set order, so output is
    byte-deterministic.  The nested form writes each agent's unrolled
    tree; it is used while the trees have at most ``inline_node_limit``
    unrolled nodes in all and a depth of at most ``NESTED_MAX_DEPTH``.
    Otherwise the shared-node form lists each table row once, children
    before parents, and references it by index.
    """
    policy = CompiledPolicy(model, joint)
    last = policy.depth - 1
    # unrolled node counts, clipped just above the limit (and 2**40) so
    # that they fit in int64 however deep the trees are
    cap = min(max(inline_node_limit, 0), 1 << 40) + 1
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


def _require(condition: bool, message: str):
    if not condition:
        raise ParseError(message)


def _parse_nested(model: DecPomdp, agent: int, payload, path: str) -> PolicyTree:
    _require(isinstance(payload, dict), f"agent {agent}: node at {path} is not an object")
    _require("action" in payload, f"agent {agent}: node at {path} lacks an action")
    action_names = model.actions[agent]
    obs_names = model.observations[agent]
    _require(payload["action"] in action_names, f"agent {agent}: unknown action {payload['action']!r} at {path}")
    action = action_names.index(payload["action"])
    raw_children = payload.get("children")
    if raw_children is None:
        return PolicyTree(action)
    _require(isinstance(raw_children, dict), f"agent {agent}: children at {path} is not an object")
    for key in raw_children:
        _require(key in obs_names, f"agent {agent}: unknown observation {key!r} at {path}")
    children = []
    for o, name in enumerate(obs_names):
        _require(name in raw_children, f"agent {agent}: node at {path} is missing the branch for observation '{name}'")
        children.append(_parse_nested(model, agent, raw_children[name], f"{path}/{name}"))
    return PolicyTree(action, children)


def _parse_shared(model: DecPomdp, agent: int, entry) -> PolicyTree:
    action_names = model.actions[agent]
    obs_names = model.observations[agent]
    raw_nodes = entry.get("nodes")
    _require(isinstance(raw_nodes, list) and raw_nodes, f"agent {agent}: shared form needs a node list")
    built: list[PolicyTree] = []
    for idx, record in enumerate(raw_nodes):
        _require(isinstance(record, dict) and "action" in record, f"agent {agent}: node {idx} malformed")
        _require(record["action"] in action_names, f"agent {agent}: unknown action {record['action']!r} in node {idx}")
        action = action_names.index(record["action"])
        raw_children = record.get("children")
        if raw_children is None:
            built.append(PolicyTree(action))
            continue
        children = []
        for o, name in enumerate(obs_names):
            _require(name in raw_children, f"agent {agent}: node {idx} is missing the branch for observation '{name}'")
            ref = raw_children[name]
            _require(isinstance(ref, int) and 0 <= ref < idx,
                     f"agent {agent}: node {idx} references {ref!r}, which is not an earlier node")
            children.append(built[ref])
        built.append(PolicyTree(action, children))
    root = entry.get("root")
    _require(isinstance(root, int) and 0 <= root < len(built), f"agent {agent}: bad root index {root!r}")
    return built[root]


def parse_policy(model: DecPomdp, text: str) -> JointPolicy:
    """Parses the canonical policy text form back into a joint policy."""
    try:
        return _parse_document(model, text)
    except RecursionError as exc:
        raise ParseError("policy nests too deeply") from exc


def _parse_document(model: DecPomdp, text: str) -> JointPolicy:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    _require(isinstance(doc, dict), "top level is not an object")
    _require(doc.get("format") == POLICY_FORMAT, f"unknown format {doc.get('format')!r}")
    _require(doc.get("version") == POLICY_VERSION, f"unsupported version {doc.get('version')!r}")
    representation = doc.get("representation", "nested")
    agents = doc.get("agents")
    _require(isinstance(agents, list) and len(agents) == model.num_agents,
             f"expected {model.num_agents} agent entries")
    trees: list[PolicyTree | None] = [None] * model.num_agents
    for entry in agents:
        _require(isinstance(entry, dict) and isinstance(entry.get("agent"), int),
                 "agent entry lacks an integer 'agent' field")
        i = entry["agent"]
        _require(0 <= i < model.num_agents, f"agent index {i} out of range")
        _require(trees[i] is None, f"duplicate entry for agent {i}")
        if representation == "nested":
            _require("tree" in entry, f"agent {i}: nested form needs a 'tree' field")
            trees[i] = _parse_nested(model, i, entry["tree"], "root")
        elif representation == "shared":
            trees[i] = _parse_shared(model, i, entry)
        else:
            raise ParseError(f"unknown representation {representation!r}")
    depths = {t.depth for t in trees}
    _require(len(depths) == 1, f"agent trees have differing depths: {sorted(depths)}")
    declared = doc.get("horizon")
    if declared is not None:
        _require(declared == trees[0].depth, f"declared horizon {declared} != tree depth {trees[0].depth}")
    return JointPolicy(tuple(trees))
