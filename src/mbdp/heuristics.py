"""Belief trajectory generators used to pick selection points for planning.

Each heuristic simulates forward from the initial belief and records the
belief after every step.  The MDP heuristic acts greedily against the
value function of the underlying fully-observable problem, the random
heuristic samples joint actions uniformly, and the replay heuristic
walks a previously computed joint policy (sampling observations and
conditioning the belief on them, which the other two do not need).

A planning round needs one trajectory per level and pick, of length
horizon - t at level t, and reads only its last two beliefs and last
action.  ``selection_beliefs`` draws all of them before the first level,
with the generator calls ``generate_belief`` would make in the same
order.  Random trajectories then advance together, one batched step per
numpy call, so a round costs O(horizon) steps rather than O(horizon^2);
the MDP heuristic's trajectories are prefixes of one cached walk, and
the replay heuristic walks its own.  Every step is the vector-matrix
product of ``DecPomdp.propagate``, so the rows match a chain of
``propagate`` calls bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ModelError
from .model import PROB_TOL, BeliefState, DecPomdp
from .policy import CompiledPolicy, JointPolicy


def _check_rows(rows: np.ndarray) -> None:
    """Raises ModelError unless every row is a belief within ``PROB_TOL``."""
    # a non-finite entry makes its row's sum non-finite, which fails
    # the sum test as well
    sums = rows.sum(axis=1)
    off = ~(np.abs(sums - 1.0) <= PROB_TOL)
    if off.any():
        raise ModelError(f"belief sums to {sums[np.argmax(off)]!r}, not 1")
    if float(rows.min()) < -PROB_TOL:
        raise ModelError(f"belief has a negative entry: {rows.min()!r}")


# floats of gathered transition matrices per batched product (8 MB)
_STEP_FLOATS = 1 << 20


def _step(transition: np.ndarray, beliefs: np.ndarray, actions) -> np.ndarray:
    """Row r of ``beliefs`` pushed through ``transition[actions[r]]``, shape (R, S).

    A stack of (1, S) @ (S, S) products is one vector-matrix product per
    row, bit for bit ``DecPomdp.propagate``; a 2-D ``beliefs @ T`` or
    ``einsum`` sums in another order.  Rows go in blocks whose gathered
    matrices stay within ``_STEP_FLOATS``.
    """
    out = np.empty(beliefs.shape)
    block = max(1, _STEP_FLOATS // transition[0].size)
    for lo in range(0, len(beliefs), block):
        rows = beliefs[lo : lo + block, None, :]
        out[lo : lo + block] = np.matmul(rows, transition[actions[lo : lo + block]])[:, 0, :]
    return out


@dataclass(frozen=True)
class BeliefTrajectory:
    """A simulated belief sequence: one row of ``probs`` per step plus the start.

    ``probs`` is a read-only (len(actions) + 1, S) array, checked once
    with the tolerances of ``BeliefState`` and clipped the same way.
    """

    probs: np.ndarray
    actions: tuple[int, ...]

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != len(self.actions) + 1 or arr.shape[1] == 0:
            raise ConfigError("trajectory needs one belief per step plus the start")
        _check_rows(arr)
        arr = np.maximum(arr, 0.0)  # remove rounding dust, as np.clip(arr, 0.0, None)
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def beliefs(self) -> tuple[BeliefState, ...]:
        return tuple(BeliefState(row) for row in self.probs)


def solve_underlying_mdp(model: DecPomdp, horizon: int | None = None):
    """Finite-horizon value iteration on states with joint actions.

    Returns (values, greedy) where values[k] is the optimal state value
    with k steps to go and greedy[k] the lexicographically first optimal
    joint action, for k = 0..horizon.
    """
    horizon = model.horizon if horizon is None else horizon
    num_s = model.num_states
    values = np.zeros((horizon + 1, num_s))
    greedy = np.zeros((horizon + 1, num_s), dtype=np.int64)
    for k in range(1, horizon + 1):
        q = (model.transition * (model.reward + values[k - 1][None, None, :])).sum(axis=2)
        values[k] = q.max(axis=0)
        greedy[k] = q.argmax(axis=0)
    return values, greedy


class MdpHeuristic:
    """Greedy joint action for the most likely state, marginal belief updates.

    It draws nothing from the generator, so every trajectory is a prefix
    of one walk, computed once per model.
    """

    name = "mdp"

    def __init__(self, model: DecPomdp):
        self.model = model
        self.values, self.greedy = solve_underlying_mdp(model)
        self._walk: tuple[DecPomdp, BeliefTrajectory] | None = None

    def walk(self, model: DecPomdp, depth: int) -> BeliefTrajectory:
        """The cached walk, at least ``depth`` steps long; trajectories are its prefixes."""
        if self._walk is None or self._walk[0] is not model or len(self._walk[1].actions) < depth:
            top = self.values.shape[0] - 1

            def choose(step, belief):
                return int(self.greedy[min(max(model.horizon - step, 1), top)][int(np.argmax(belief))])

            self._walk = (model, _marginal_walk(model, max(depth, model.horizon), choose))
        return self._walk[1]

    def trajectory(self, model: DecPomdp, depth: int, rng) -> BeliefTrajectory:
        walk = self.walk(model, depth)
        return BeliefTrajectory(walk.probs[: depth + 1], walk.actions[:depth])


class RandomHeuristic:
    """Uniform joint actions, marginal belief updates."""

    name = "random"

    def __init__(self, model: DecPomdp):
        self.model = model

    @staticmethod
    def draw(model: DecPomdp, depth: int, rng) -> np.ndarray:
        """The ``depth`` joint actions of one trajectory, in one generator call."""
        # one call draws the same stream as ``depth`` scalar draws
        return rng.integers(model.num_joint_actions, size=depth)

    def trajectory(self, model: DecPomdp, depth: int, rng) -> BeliefTrajectory:
        draws = self.draw(model, depth, rng).tolist()
        return _marginal_walk(model, depth, lambda step, belief: draws[step])


def _marginal_walk(model: DecPomdp, depth: int, choose) -> BeliefTrajectory:
    """Pushes the initial belief through ``depth`` joint actions, observations marginalized.

    ``choose(step, belief)`` picks each joint action.  Every step starts
    from the previous belief with its rounding dust clipped, as
    ``BeliefState`` does, so the rows match a chain of
    ``DecPomdp.propagate`` calls bit for bit.  It steps one row at a
    time with the ``_step`` that ``_walk_batch`` uses for many.
    """
    belief = model.initial_belief.probs[None, :]
    rows = [belief]
    actions = []
    for step in range(depth):
        ja = choose(step, belief[0])
        row = _step(model.transition, belief, [ja])
        rows.append(row)
        belief = np.maximum(row, 0.0)  # np.clip(row, 0.0, None)
        actions.append(ja)
    return BeliefTrajectory(np.concatenate(rows), tuple(actions))


class PolicyReplayHeuristic:
    """Replays a joint policy, sampling observations and conditioning on them.

    Past the policy's depth it falls back to uniform random actions, still
    conditioning on sampled observations.
    """

    name = "replay"

    def __init__(self, model: DecPomdp, policy: JointPolicy):
        self.model = model
        self.compiled = CompiledPolicy(model, policy)

    def trajectory(self, model: DecPomdp, depth: int, rng) -> BeliefTrajectory:
        compiled = self.compiled
        nodes = [0] * model.num_agents
        beliefs = [model.initial_belief]
        actions: list[int] = []
        for level in range(depth):
            if level >= compiled.depth:
                ja = int(rng.integers(model.num_joint_actions))
            else:
                ja = model.joint_action_index(
                    tuple(
                        int(compiled.actions[i][level][nodes[i]])
                        for i in range(model.num_agents)
                    )
                )
            probs = model.observation_probabilities(beliefs[-1], ja)
            jo = int(rng.choice(len(probs), p=probs / probs.sum()))
            beliefs.append(model.bayes_update(beliefs[-1], ja, jo))
            if level < compiled.depth - 1:
                local = model.joint_observation(jo)
                for i in range(model.num_agents):
                    nodes[i] = int(compiled.children[i][level][nodes[i], local[i]])
            actions.append(ja)
        return BeliefTrajectory(np.array([b.probs for b in beliefs]), tuple(actions))


def generate_belief(
    heuristic, model: DecPomdp, depth: int, rng: np.random.Generator
) -> BeliefTrajectory:
    """Runs ``heuristic`` for ``depth`` steps from the initial belief.

    Trajectories are prefixes of the full problem, so the heuristic is
    told the steps remaining out of the model horizon, not the depth.
    """
    if depth < 0:
        raise ConfigError("trajectory depth must be >= 0")
    return heuristic.trajectory(model, depth, rng)


# bytes of pre-drawn random actions held at once (8 MiB): a round draws
# about max_trees * horizon^2 / 2 of them, walked in batches of at most
# this size (or one trajectory, if longer), and every batch walks from
# the first step, so fewer, larger batches walk fewer steps
_ACTION_CHUNK = 8 << 20


def _walk_batch(model: DecPomdp, batch, b_sel, b_prev, a_prev) -> None:
    """Walks random trajectories together, one ``_step`` per step.

    ``batch`` lists (t, k, actions) in drawing order, so lengths never
    increase and the rows still walking at any step are a prefix.  Each
    row's last two beliefs and last action go to [t - 1, k] of
    ``b_sel``, ``b_prev`` and ``a_prev``.  Steps are checked and clipped
    as ``_marginal_walk`` does.
    """
    levels = np.array([t - 1 for t, _, _ in batch])
    picks = np.array([k for _, k, _ in batch])
    lengths = [len(acts) for _, _, acts in batch]
    flat = np.concatenate([acts for _, _, acts in batch])
    offsets = np.cumsum([0] + lengths[:-1])
    belief = np.repeat(model.initial_belief.probs[None, :], len(batch), axis=0)
    active = len(batch)
    for step in range(lengths[0]):
        acts = flat[offsets[:active] + step]
        row = _step(model.transition, belief, acts)
        _check_rows(row)
        after = np.maximum(row, 0.0)
        # rows whose last step this is: the tail of the prefix
        done = active
        while done and lengths[done - 1] == step + 1:
            done -= 1
        where = (levels[done:active], picks[done:active])
        b_sel[where] = after[done:]
        b_prev[where] = belief[done:]
        a_prev[where] = acts[done:]
        belief, active = after[:done], done


def selection_beliefs(portfolio, model: DecPomdp, max_trees: int, rng: np.random.Generator):
    """Selection points of one planning round, every trajectory drawn up front.

    Level t (1 .. horizon - 1) makes ``max_trees`` picks; pick k runs
    ``portfolio[k % len(portfolio)]`` for horizon - t steps.  Trajectories
    are drawn in (t, k) order with the generator calls ``generate_belief``
    would make, so the stream is the same.  Returns (b_sel, b_prev,
    a_prev), indexed [t - 1, k]: each trajectory's last belief, the
    belief before it and the joint action between them, equal bit for
    bit to ``probs[-1]``, ``probs[-2]`` and ``actions[-1]`` of
    ``generate_belief``.
    """
    horizon = model.horizon
    b_sel = np.empty((max(horizon - 1, 0), max_trees, model.num_states))
    b_prev = np.empty_like(b_sel)
    a_prev = np.empty(b_sel.shape[:2], dtype=np.int64)
    batch: list[tuple[int, int, np.ndarray]] = []
    held = 0
    # draws are kept in the smallest unsigned type that holds every joint
    # action, so a batch holds up to 8 times as many
    dtype = np.min_scalar_type(model.num_joint_actions - 1)
    capacity = max(1, _ACTION_CHUNK // dtype.itemsize)
    for t in range(1, horizon):
        depth = horizon - t
        for k in range(max_trees):
            heuristic = portfolio[k % len(portfolio)]
            if isinstance(heuristic, RandomHeuristic):
                if batch and held + depth > capacity:
                    _walk_batch(model, batch, b_sel, b_prev, a_prev)
                    batch, held = [], 0
                batch.append((t, k, heuristic.draw(model, depth, rng).astype(dtype)))
                held += depth
                continue
            # the MDP heuristic's trajectories are prefixes of its walk
            if isinstance(heuristic, MdpHeuristic):
                traj = heuristic.walk(model, depth)
            else:
                traj = generate_belief(heuristic, model, depth, rng)
            b_sel[t - 1, k] = traj.probs[depth]
            b_prev[t - 1, k] = traj.probs[depth - 1]
            a_prev[t - 1, k] = traj.actions[depth - 1]
    if batch:
        _walk_batch(model, batch, b_sel, b_prev, a_prev)
    return b_sel, b_prev, a_prev


def build_portfolio(model: DecPomdp, names: tuple[str, ...] | list[str]):
    """Instantiates heuristics from names ("mdp", "random")."""
    out = []
    for name in names:
        if name == "mdp":
            out.append(MdpHeuristic(model))
        elif name == "random":
            out.append(RandomHeuristic(model))
        else:
            raise ConfigError(f"unknown heuristic '{name}' (expected mdp or random)")
    if not out:
        raise ConfigError("heuristic portfolio is empty")
    return out
