"""Belief trajectory generators used to pick selection points for planning.

Each heuristic simulates forward from the initial belief and records the
belief after every step.  The MDP heuristic acts greedily against the
value function of the underlying fully-observable problem, the random
heuristic samples joint actions uniformly, and the replay heuristic
walks a previously computed joint policy (sampling observations and
conditioning the belief on them, which the other two do not need).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ModelError
from .model import PROB_TOL, BeliefState, DecPomdp
from .policy import CompiledPolicy, JointPolicy


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
        # a non-finite entry makes its row's sum non-finite, which fails
        # the sum test as well
        sums = arr.sum(axis=1)
        off = ~(np.abs(sums - 1.0) <= PROB_TOL)
        if off.any():
            raise ModelError(f"belief sums to {sums[np.argmax(off)]!r}, not 1")
        if float(arr.min()) < -PROB_TOL:
            raise ModelError(f"belief has a negative entry: {arr.min()!r}")
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

    def __init__(self, model: DecPomdp, horizon: int | None = None):
        self.model = model
        self.values, self.greedy = solve_underlying_mdp(model, horizon)
        self._walk: tuple[DecPomdp, BeliefTrajectory] | None = None

    def trajectory(self, model: DecPomdp, depth: int, rng) -> BeliefTrajectory:
        if self._walk is None or self._walk[0] is not model or len(self._walk[1].actions) < depth:
            top = self.values.shape[0] - 1

            def choose(step, belief):
                return int(self.greedy[min(max(model.horizon - step, 1), top)][int(np.argmax(belief))])

            self._walk = (model, _marginal_walk(model, max(depth, model.horizon), choose))
        walk = self._walk[1]
        return BeliefTrajectory(walk.probs[: depth + 1], walk.actions[:depth])


class RandomHeuristic:
    """Uniform joint actions, marginal belief updates."""

    name = "random"

    def __init__(self, model: DecPomdp):
        self.model = model

    def trajectory(self, model: DecPomdp, depth: int, rng) -> BeliefTrajectory:
        # one call draws the same stream as ``depth`` scalar draws
        draws = rng.integers(model.num_joint_actions, size=depth).tolist()
        return _marginal_walk(model, depth, lambda step, belief: draws[step])


def _marginal_walk(model: DecPomdp, depth: int, choose) -> BeliefTrajectory:
    """Pushes the initial belief through ``depth`` joint actions, observations marginalized.

    ``choose(step, belief)`` picks each joint action.  Every step starts
    from the previous belief with its rounding dust clipped, as
    ``BeliefState`` does, so the rows match a chain of
    ``DecPomdp.propagate`` calls bit for bit.
    """
    transition = list(model.transition)
    belief = model.initial_belief.probs
    rows = [belief]
    actions = []
    for step in range(depth):
        ja = choose(step, belief)
        row = belief.dot(transition[ja])
        rows.append(row)
        belief = np.maximum(row, 0.0)  # np.clip(row, 0.0, None)
        actions.append(ja)
    return BeliefTrajectory(np.array(rows), tuple(actions))


class PolicyReplayHeuristic:
    """Replays a joint policy, sampling observations and conditioning on them.

    Past the policy's depth it falls back to uniform random actions, still
    conditioning on sampled observations.
    """

    name = "replay"

    def __init__(self, model: DecPomdp, policy: JointPolicy):
        self.model = model
        self.compiled = CompiledPolicy(model, policy)
        self.depth = policy.depth

    def trajectory(self, model: DecPomdp, depth: int, rng) -> BeliefTrajectory:
        compiled = self.compiled
        nodes = [0] * model.num_agents
        beliefs = [model.initial_belief]
        actions: list[int] = []
        for level in range(depth):
            if level >= self.depth:
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
            if level < self.depth - 1:
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
