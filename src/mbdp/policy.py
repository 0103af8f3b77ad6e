"""Policy trees, joint policies, exact evaluation, simulation, serialization.

A per-agent policy tree carries an action at every node and one child
slot per local observation.  Trees are immutable and shared: backups
reference existing subtrees instead of copying them, so a horizon-100
policy is a small DAG even though its unrolled tree is astronomically
large.  Every node gets a process-unique ``uid`` at construction; memo
tables are keyed on tuples of uids, which makes identity-based sharing
safe and deterministic within a run.
"""

from __future__ import annotations

import itertools
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


class PolicyTree:
    """Immutable per-agent decision tree node.

    ``children`` has one slot per local observation; ``None`` marks a
    branch that has not been assigned yet (a partial tree, as produced
    by partial backups).  Depth-1 nodes carry an empty children tuple.
    """

    __slots__ = ("action", "children", "depth", "complete", "uid")

    _uids = itertools.count()

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
        object.__setattr__(self, "uid", next(PolicyTree._uids))

    def __setattr__(self, name, value):
        raise AttributeError("PolicyTree nodes are immutable")

    def __repr__(self):
        return f"PolicyTree(action={self.action}, depth={self.depth}, complete={self.complete}, uid={self.uid})"

    def child(self, obs: int) -> "PolicyTree | None":
        return self.children[obs] if self.children else None

    def same_structure(self, other: "PolicyTree") -> bool:
        """Structural equality (actions and branch shapes), ignoring uids."""
        if self.action != other.action or self.depth != other.depth:
            return False
        if len(self.children) != len(other.children):
            return False
        for a, b in zip(self.children, other.children):
            if (a is None) != (b is None):
                return False
            if a is not None and not a.same_structure(b):
                return False
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

    def __contains__(self, key):
        return key in self._vectors


def _tree_tuple(joint) -> tuple[PolicyTree, ...]:
    if isinstance(joint, JointPolicy):
        return joint.trees
    return tuple(joint)


class PolicyEvaluator:
    """Exact joint-policy evaluation against a fixed model.

    Values are state-indexed vectors memoized per tuple of subtree uids
    and computed iteratively from the leaves up, so deep policies never
    recurse near the interpreter stack limit.
    """

    def __init__(self, model: DecPomdp, table: ValueTable | None = None):
        model.require_valid()
        self.model = model
        self.table = table if table is not None else ValueTable()

    def _joint_action(self, nodes) -> int:
        return self.model.joint_action_index(tuple(n.action for n in nodes))

    def _child_key(self, nodes, local_obs) -> tuple:
        children = []
        for i, node in enumerate(nodes):
            child = node.children[local_obs[i]] if node.children else None
            if child is None:
                name = self.model.observations[i][local_obs[i]]
                raise EvaluationError(
                    f"agent {i} tree (action {node.action}, depth {node.depth}) "
                    f"is missing the branch for observation '{name}'"
                )
            children.append(child)
        return tuple(children)

    def value_vector(self, joint) -> np.ndarray:
        """State-indexed exact value vector of a joint configuration."""
        nodes = _tree_tuple(joint)
        if len(nodes) != self.model.num_agents:
            raise EvaluationError(f"expected {self.model.num_agents} trees, got {len(nodes)}")
        if len({n.depth for n in nodes}) != 1:
            raise EvaluationError("joint configuration mixes tree depths")
        model = self.model
        er = model.expected_reward
        table = self.table
        root_key = tuple(n.uid for n in nodes)
        if (cached := table.get(root_key)) is not None:
            return cached
        obs_tuples = model._joint_obs_tuples
        stack: list[tuple[tuple[PolicyTree, ...], bool]] = [(nodes, False)]
        while stack:
            current, expanded = stack.pop()
            key = tuple(n.uid for n in current)
            if key in table:
                continue
            if current[0].depth == 1:
                table.put(key, er[self._joint_action(current)])
                continue
            kids = [self._child_key(current, lo) for lo in obs_tuples]
            if not expanded:
                stack.append((current, True))
                for kid in kids:
                    if tuple(n.uid for n in kid) not in table:
                        stack.append((kid, False))
            else:
                ja = self._joint_action(current)
                child_vals = np.stack([table.get(tuple(n.uid for n in kid)) for kid in kids])
                weighted = (model.observation[ja] * child_vals.T).sum(axis=1)
                vec = er[ja] + model.transition[ja] @ weighted
                vec.setflags(write=False)
                table.put(key, vec)
        return table.get(root_key)

    def at_state(self, joint, state: int) -> float:
        return float(self.value_vector(joint)[state])

    def at_belief(self, joint, belief: BeliefState) -> float:
        return float(belief.probs @ self.value_vector(joint))


def evaluate_at_state(model: DecPomdp, joint, state: int, table: ValueTable | None = None) -> float:
    """Exact value of a joint policy started in a single state."""
    return PolicyEvaluator(model, table).at_state(joint, state)


def evaluate_at_belief(model: DecPomdp, joint, belief: BeliefState, table: ValueTable | None = None) -> float:
    """Exact value of a joint policy under a starting belief (linear in the belief)."""
    return PolicyEvaluator(model, table).at_belief(joint, belief)


# ---- vectorized tree walking (simulation, trajectory replay) ---------


class CompiledPolicy:
    """Integer tables for walking a joint policy without touching objects.

    For each agent and tree level d (0 is the root), ``actions[i][d]`` is
    an int array over that level's distinct nodes and ``children[i][d]``
    maps (node_row, local_obs) to a row of level d+1.  Shared subtrees
    occupy a single row, so the tables stay small for solver output.
    """

    def __init__(self, model: DecPomdp, joint):
        trees = _tree_tuple(joint)
        self.depth = trees[0].depth
        self.actions: list[list[np.ndarray]] = []
        self.children: list[list[np.ndarray]] = []
        for i, root in enumerate(trees):
            if not root.complete:
                raise EvaluationError(f"agent {i} tree is incomplete")
            acts, kids = self._compile(root, model.observation_counts[i])
            self.actions.append(acts)
            self.children.append(kids)

    @staticmethod
    def _compile(root: PolicyTree, num_obs: int):
        levels = [[root]]
        index = [{root.uid: 0}]
        for d in range(root.depth - 1):
            nxt: list[PolicyTree] = []
            idx: dict[int, int] = {}
            for node in levels[d]:
                for child in node.children:
                    if child.uid not in idx:
                        idx[child.uid] = len(nxt)
                        nxt.append(child)
            levels.append(nxt)
            index.append(idx)
        actions = [np.array([n.action for n in level], dtype=np.int64) for level in levels]
        children = []
        for d in range(root.depth - 1):
            table = np.empty((len(levels[d]), num_obs), dtype=np.int64)
            for r, node in enumerate(levels[d]):
                for o, child in enumerate(node.children):
                    table[r, o] = index[d + 1][child.uid]
            children.append(table)
        return actions, children


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
    trees = _tree_tuple(joint)
    horizon = trees[0].depth
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


def _expanded_node_count(tree: PolicyTree, memo: dict[int, int]) -> int:
    if tree.uid in memo:
        return memo[tree.uid]
    total = 1 + sum(_expanded_node_count(c, memo) for c in tree.children if c is not None)
    memo[tree.uid] = total
    return total


def _nested_payload(model: DecPomdp, agent: int, tree: PolicyTree):
    obs_names = model.observations[agent]
    action_names = model.actions[agent]

    def build(node: PolicyTree):
        record = {"action": action_names[node.action]}
        if node.children:
            record["children"] = {obs_names[o]: build(child) for o, child in enumerate(node.children)}
        return record

    return build(tree)


def _shared_payload(model: DecPomdp, agent: int, tree: PolicyTree):
    obs_names = model.observations[agent]
    action_names = model.actions[agent]
    order: list[PolicyTree] = []
    index: dict[int, int] = {}

    def visit(node: PolicyTree):
        if node.uid in index:
            return
        for child in node.children:
            visit(child)
        index[node.uid] = len(order)
        order.append(node)

    visit(tree)
    nodes = []
    for node in order:
        record = {"action": action_names[node.action]}
        if node.children:
            record["children"] = {obs_names[o]: index[c.uid] for o, c in enumerate(node.children)}
        nodes.append(record)
    return {"root": index[tree.uid], "nodes": nodes}


def serialize_policy(model: DecPomdp, joint, inline_node_limit: int = DEFAULT_INLINE_NODE_LIMIT) -> str:
    """Canonical text form of a joint policy.

    Children keys appear in observation-set order, so output is
    byte-deterministic.  Policies whose unrolled trees exceed
    ``inline_node_limit`` nodes switch to the shared-node representation,
    which lists each distinct subtree once and references it by index.
    """
    trees = _tree_tuple(joint)
    memo: dict[int, int] = {}
    expanded = sum(_expanded_node_count(t, memo) for t in trees)
    doc: dict = {
        "format": POLICY_FORMAT,
        "version": POLICY_VERSION,
        "horizon": trees[0].depth,
    }
    if expanded <= inline_node_limit:
        doc["representation"] = "nested"
        doc["agents"] = [
            {"agent": i, "tree": _nested_payload(model, i, t)} for i, t in enumerate(trees)
        ]
    else:
        doc["representation"] = "shared"
        doc["agents"] = [
            {"agent": i, **_shared_payload(model, i, t)} for i, t in enumerate(trees)
        ]
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
